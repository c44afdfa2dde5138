"""Shared experiment infrastructure."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.analysis.reporting import Table


@dataclass(frozen=True)
class Check:
    """A named boolean outcome asserted by the integration tests."""

    description: str
    passed: bool


@dataclass
class ExperimentResult:
    """Outcome of one experiment."""

    experiment_id: str
    title: str
    claim: str
    table: Table
    checks: list[Check] = field(default_factory=list)
    data: dict = field(default_factory=dict)

    def check(self, description: str, passed: bool) -> None:
        self.checks.append(Check(description, bool(passed)))

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def payload(self) -> dict:
        """Canonical, JSON-serializable view of the whole result.

        Everything an experiment produced — table cells included — in one
        plain dict.  This is what the determinism suite compares across
        worker counts and what :meth:`fingerprint` hashes; anything
        non-JSON in ``data`` is rendered through ``repr`` so the encoding
        is still deterministic.
        """
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "claim": self.claim,
            "table": {
                "title": self.table.title,
                "columns": list(self.table.columns),
                "rows": [list(row) for row in self.table.rows],
            },
            "checks": [[c.description, c.passed] for c in self.checks],
            "data": self.data,
        }

    def fingerprint(self) -> str:
        """SHA-256 over the canonical payload — equal iff results match."""
        blob = json.dumps(self.payload(), sort_keys=True, default=repr)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def render(self) -> str:
        lines = [
            f"## {self.experiment_id}: {self.title}",
            "",
            f"Claim: {self.claim}",
            "",
            self.table.render(),
            "",
        ]
        for c in self.checks:
            mark = "PASS" if c.passed else "FAIL"
            lines.append(f"- [{mark}] {c.description}")
        return "\n".join(lines)


ScaleParams = dict[str, dict]


def pick(scale: str, params: ScaleParams) -> dict:
    """Select the parameter set for a scale, defaulting to ``quick``."""
    if scale not in params:
        raise ValueError(f"unknown scale {scale!r}; choose from {sorted(params)}")
    return params[scale]
