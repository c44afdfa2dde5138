"""Fault plans: the declarative side of deterministic fault injection.

A :class:`FaultPlan` is a small, JSON-serializable document that says
*which* shard-worker ops misbehave, *how*, and *for how many attempts*.
The plan — not wall-clock, not scheduling luck — is the only input to
every injection decision, so a chaos run is exactly as reproducible as a
clean one: replaying the same plan against the same op labels yields the
same raises, hangs, and worker kills, attempt for attempt.

Plan document (inline JSON or a file path)::

    {"seed": 0, "faults": [
        {"task": "serve/shard1/tick/*",   "kind": "kill"},
        {"task": "serve/shard0/stats/*",  "kind": "raise", "times": 2},
        {"task": "serve/shard*/tick/*",   "kind": "hang",  "p": 0.25}
    ]}

- ``task`` is an :func:`fnmatch.fnmatchcase` pattern over the op label
  ``serve/shard{id}/{op}/{seq}``.
- ``kind`` is one of :data:`KINDS` — see :mod:`repro.faults.inject` for
  what each does at the injection point.
- ``times`` bounds injection to attempts ``0..times-1`` (default 1: fail
  the first worker incarnation, let the respawn succeed); ``-1`` means
  every attempt, which is how a test exhausts the respawn budget.
- ``p`` (or ``probability``) thins injection with a *deterministic* coin:
  :func:`repro.utils.procs.derive_unit` over
  ``(plan seed, kind, label, attempt)``, so the same plan flips the same
  coins in every process and on every replay.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fnmatch import fnmatchcase
from pathlib import Path
from typing import Mapping, Sequence

from repro.utils.procs import derive_unit

__all__ = ["KINDS", "FaultSpec", "FaultPlan"]

#: the three injectable behaviours, in escalating nastiness.
KINDS = ("raise", "hang", "kill")


@dataclass(frozen=True)
class FaultSpec:
    """One rule: tasks matching ``task`` suffer ``kind`` on early attempts."""

    task: str
    kind: str
    #: inject on attempts ``0..times-1``; ``-1`` = every attempt.
    times: int = 1
    #: deterministic per-(label, attempt) coin; 1.0 = always.
    probability: float = 1.0
    #: how long a ``hang`` sleeps (the worker timeout should fire first).
    hang_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; choose from {KINDS}")
        if not (0.0 <= self.probability <= 1.0):
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")

    def as_dict(self) -> dict:
        doc: dict = {"task": self.task, "kind": self.kind, "times": self.times}
        if self.probability != 1.0:
            doc["p"] = self.probability
        if self.kind == "hang" and self.hang_seconds != 3600.0:
            doc["hang_seconds"] = self.hang_seconds
        return doc


@dataclass(frozen=True)
class FaultPlan:
    """An ordered rule list plus the seed for its deterministic coins."""

    specs: tuple[FaultSpec, ...] = ()
    seed: int = 0

    # -- construction ---------------------------------------------------------

    @classmethod
    def from_mapping(cls, doc: Mapping | Sequence) -> "FaultPlan":
        """Build from a parsed JSON document (object with ``faults`` or bare list)."""
        if isinstance(doc, Mapping):
            seed = int(doc.get("seed", 0))
            raw = doc.get("faults", [])
        else:
            seed, raw = 0, doc
        specs = []
        for item in raw:
            item = dict(item)
            if "p" in item:
                item["probability"] = item.pop("p")
            unknown = set(item) - {"task", "kind", "times", "probability", "hang_seconds"}
            if unknown:
                raise ValueError(f"unknown fault spec fields {sorted(unknown)}")
            specs.append(FaultSpec(**item))
        return cls(specs=tuple(specs), seed=seed)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_mapping(json.loads(text))

    @classmethod
    def from_arg(cls, arg: "str | Path | FaultPlan") -> "FaultPlan":
        """Accept inline JSON, a path to a JSON file, or an existing plan.

        This is the entry point behind ``repro serve --inject-faults``.
        """
        if isinstance(arg, FaultPlan):
            return arg
        text = str(arg).strip()
        if text.startswith("{") or text.startswith("["):
            return cls.from_json(text)
        return cls.from_json(Path(text).read_text())

    # -- serialization --------------------------------------------------------

    def to_json(self) -> str:
        """Canonical JSON — what the server ships to shard workers."""
        doc = {"seed": self.seed, "faults": [s.as_dict() for s in self.specs]}
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    # -- the decision ---------------------------------------------------------

    def decide(self, label: str, attempt: int = 0) -> FaultSpec | None:
        """First matching spec that fires for ``(label, attempt)``, else None.

        Pure function of ``(plan, label, attempt)``: the probabilistic coin
        is :func:`derive_unit` over the plan seed and the decision path, so
        workers, retries, and re-runs all agree without coordination.
        """
        for spec in self.specs:
            if not fnmatchcase(label, spec.task):
                continue
            if spec.times >= 0 and attempt >= spec.times:
                continue
            if spec.probability < 1.0:
                coin = derive_unit(self.seed, "fault", spec.kind, label, attempt)
                if coin >= spec.probability:
                    continue
            return spec
        return None
