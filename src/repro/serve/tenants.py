"""Multi-tenant admission for the scheduling service.

A *tenant* is a named set of colors with an exact-Fraction (rate,
delay-bound) contract.  Two mechanisms implement the contract:

* **Registration-time schedulability** (:class:`TenantDirectory`): each
  shard is modelled as a BDR parent interface — rate from the existing
  ``split_capacity`` apportionment scaled by machine speed, delay Delta —
  and each tenant contributes a child interface per shard whose rate is the
  tenant's contracted rate apportioned by where its colors hash
  (:func:`shard_shares`) and whose delay is the contracted delay bound.  A
  registration that violates the Theorem-1 composition check
  (:func:`repro.core.bdr.check_composition`) is rejected with a structured
  reason before any state changes.

* **Runtime token-bucket enforcement** (:class:`ShardTenantMeter`): each
  shard keeps one bucket per tenant (capacity = burst, refill = rate per
  round, exact Fractions).  Inside two-phase admission the *plan* step is
  pure — it decides which jobs of a batch would be shed without touching the
  buckets — so a batch that another shard rejects leaves no trace.  Debits
  happen at commit, refills at tick, which makes the bucket trajectory a
  pure fold over the journal (:func:`~repro.serve.journal.replay_session`
  rebuilds it exactly).  The meters live in the frontend's admission
  gate in both serve modes; shard workers never see a shed job.

Shedding is per tenant and deterministic: an over-rate tenant loses its own
excess submissions (batch order decides which), while jobs of other tenants
— and unmetered colors — are never touched.  Because sheds are decided
before any admission rule runs and shed jobs never reach the live sequences,
a compliant tenant's admission decisions and digests are identical whether
or not an adversary floods its own contract.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from repro.core.bdr import BDRInterface, check_composition, exact_fraction
from repro.core.job import Color, Job
from repro.core.request import decode_color, encode_color

__all__ = [
    "TenantError",
    "TenantContract",
    "TenantDirectory",
    "ShardTenantMeter",
    "load_plan",
    "shard_shares",
]


class TenantError(ValueError):
    """A tenant registration the directory refuses, with a machine-readable
    reason (``bad_contract``, ``duplicate_tenant``, ``color_conflict``,
    ``rate_overflow``, ``delay_too_tight``)."""

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason
        self.message = message


@dataclass(frozen=True)
class TenantContract:
    """A named color set with an exact (rate, delay-bound) contract.

    ``rate`` is jobs per round across the whole tenant (exact Fraction);
    ``delay_bound`` is the delay bound the tenant's jobs carry, in rounds;
    ``burst`` is the token-bucket capacity in jobs (how far above the
    sustained rate a single round may spike).
    """

    name: str
    colors: tuple[Color, ...]
    rate: Fraction
    delay_bound: int
    burst: int

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise TenantError("bad_contract", "tenant name must be a non-empty string")
        if not self.colors:
            raise TenantError(
                "bad_contract", f"tenant {self.name!r} must name at least one color"
            )
        if len(set(self.colors)) != len(self.colors):
            raise TenantError(
                "bad_contract", f"tenant {self.name!r} repeats a color"
            )
        object.__setattr__(self, "rate", exact_fraction(self.rate))
        if self.rate <= 0:
            raise TenantError(
                "bad_contract", f"tenant {self.name!r} rate must be positive"
            )
        if not isinstance(self.delay_bound, int) or isinstance(self.delay_bound, bool):
            raise TenantError(
                "bad_contract", f"tenant {self.name!r} delay_bound must be an int"
            )
        if self.delay_bound < 1:
            raise TenantError(
                "bad_contract", f"tenant {self.name!r} delay_bound must be >= 1"
            )
        if not isinstance(self.burst, int) or isinstance(self.burst, bool):
            raise TenantError(
                "bad_contract", f"tenant {self.name!r} burst must be an int"
            )
        if self.burst < 1:
            raise TenantError(
                "bad_contract", f"tenant {self.name!r} burst must be >= 1"
            )

    @classmethod
    def from_dict(cls, payload: Mapping) -> "TenantContract":
        """Build a contract from its wire/plan form.

        ``rate`` accepts int, float, or string ("0.25" / "1/4"); ``burst``
        defaults to ceil(rate) so a tenant can always submit at least one
        round's worth at once.
        """
        if not isinstance(payload, Mapping):
            raise TenantError("bad_contract", "tenant entry must be an object")
        unknown = set(payload) - {"name", "colors", "rate", "delay_bound", "burst"}
        if unknown:
            raise TenantError(
                "bad_contract", f"unknown tenant fields: {sorted(unknown)}"
            )
        try:
            name = payload["name"]
            colors_raw = payload["colors"]
            rate_raw = payload["rate"]
            delay_bound = payload["delay_bound"]
        except KeyError as exc:
            raise TenantError("bad_contract", f"tenant entry missing {exc}") from None
        if not isinstance(colors_raw, (list, tuple)):
            raise TenantError("bad_contract", "tenant colors must be a list")
        colors = tuple(decode_color(c) for c in colors_raw)
        try:
            rate = exact_fraction(rate_raw)
        except (ValueError, TypeError, ZeroDivisionError) as exc:
            raise TenantError("bad_contract", f"bad tenant rate: {exc}") from None
        burst = payload.get("burst")
        if burst is None:
            burst = max(1, -(-rate.numerator // rate.denominator))  # ceil(rate)
        return cls(
            name=name,
            colors=colors,
            rate=rate,
            delay_bound=delay_bound,
            burst=burst,
        )

    def to_dict(self) -> dict:
        """Wire/journal form; inverse of :meth:`from_dict`."""
        return {
            "name": self.name,
            "colors": [encode_color(c) for c in self.colors],
            "rate": str(self.rate),
            "delay_bound": self.delay_bound,
            "burst": self.burst,
        }


def load_plan(path: str | pathlib.Path) -> list[TenantContract]:
    """Read a tenant plan file: ``{"tenants": [contract, ...]}``."""
    payload = json.loads(pathlib.Path(path).read_text())
    if not isinstance(payload, Mapping) or "tenants" not in payload:
        raise TenantError("bad_contract", f"{path}: expected {{'tenants': [...]}}")
    entries = payload["tenants"]
    if not isinstance(entries, list):
        raise TenantError("bad_contract", f"{path}: 'tenants' must be a list")
    return [TenantContract.from_dict(entry) for entry in entries]


def shard_shares(
    contract: TenantContract, shards: int
) -> dict[int, tuple[Fraction, int]]:
    """Apportion a contract over shards by where its colors hash.

    Returns ``{shard_id: (rate_share, burst_share)}`` for every shard that
    hosts at least one of the tenant's colors.  Rate shares are exact
    (``rate * colors_on_shard / total_colors``); burst shares use the same
    largest-remainder rule as ``split_capacity`` — every occupied shard gets
    at least one token of headroom, remainders go to lower shard ids first —
    so the apportionment is deterministic and hash-seed independent.
    """
    from repro.serve.session import shard_of  # session imports this module

    counts: dict[int, int] = {}
    for color in contract.colors:
        sid = shard_of(color, shards)
        counts[sid] = counts.get(sid, 0) + 1
    total = len(contract.colors)
    shares: dict[int, tuple[Fraction, int]] = {}
    # Largest-remainder apportionment of the burst, floor >= 1 per shard.
    exact = {sid: Fraction(contract.burst * count, total) for sid, count in counts.items()}
    floors = {sid: max(1, int(value)) for sid, value in exact.items()}
    spare = contract.burst - sum(floors.values())
    order = sorted(
        counts,
        key=lambda sid: (-(exact[sid] - int(exact[sid])), sid),
    )
    idx = 0
    while spare > 0 and order:
        sid = order[idx % len(order)]
        floors[sid] += 1
        spare -= 1
        idx += 1
    for sid, count in counts.items():
        shares[sid] = (contract.rate * Fraction(count, total), floors[sid])
    return shares


class ShardTenantMeter:
    """Per-shard token buckets, one per tenant with colors on this shard.

    The meter is deliberately split into a pure *plan* step (used during
    validation — decides sheds without mutating anything) and the mutating
    *debit*/*refill* steps (commit and tick).  Tokens are exact Fractions;
    a bucket starts full (= burst) and refills by the shard's rate share
    once per round, capped at burst.
    """

    def __init__(self) -> None:
        self._rates: dict[str, Fraction] = {}
        self._bursts: dict[str, int] = {}
        self._tokens: dict[str, Fraction] = {}
        self._color_tenant: dict[Color, str] = {}

    @property
    def empty(self) -> bool:
        return not self._rates

    def register(
        self,
        name: str,
        colors: Iterable[Color],
        rate: Fraction,
        burst: int,
    ) -> None:
        self._rates[name] = exact_fraction(rate)
        self._bursts[name] = burst
        self._tokens[name] = Fraction(burst)
        for color in colors:
            self._color_tenant[color] = name

    def tenant_of(self, color: Color) -> str | None:
        return self._color_tenant.get(color)

    def tokens(self) -> dict[str, Fraction]:
        return dict(self._tokens)

    def plan(
        self, indexed_jobs: Sequence[tuple[int, Job]]
    ) -> tuple[list[tuple[int, Job]], list[dict]]:
        """Pure shed decision for one batch (this shard's slice, in batch
        order).  Returns ``(kept, shed)`` where ``kept`` preserves the
        original batch indices and ``shed`` entries are
        ``{"index", "uid", "tenant"}``.  Buckets are not touched."""
        if self.empty:
            return list(indexed_jobs), []
        virtual = dict(self._tokens)
        kept: list[tuple[int, Job]] = []
        shed: list[dict] = []
        for index, job in indexed_jobs:
            tenant = self._color_tenant.get(job.color)
            if tenant is None:
                kept.append((index, job))
                continue
            if virtual[tenant] >= 1:
                virtual[tenant] -= 1
                kept.append((index, job))
            else:
                shed.append({"index": index, "uid": job.uid, "tenant": tenant})
        return kept, shed

    def debit(self, jobs: Iterable[Job]) -> None:
        """Commit-side bucket debit for admitted jobs (one token each)."""
        if self.empty:
            return
        for job in jobs:
            tenant = self._color_tenant.get(job.color)
            if tenant is not None:
                self._tokens[tenant] -= 1

    def refill(self) -> None:
        """Tick-side refill: each bucket gains its rate share, capped at
        burst.  Called exactly once per round, after the shard steps."""
        for name, rate in self._rates.items():
            self._tokens[name] = min(
                Fraction(self._bursts[name]), self._tokens[name] + rate
            )


@dataclass
class _TenantCounters:
    submitted: int = 0
    admitted: int = 0
    shed: int = 0


class TenantDirectory:
    """Registration-time admission and per-tenant accounting.

    Holds the contracts the service has accepted, maps colors to tenants,
    and answers the BDR schedulability question for a candidate contract
    against the shard capacities it was constructed with.  The directory is
    the frontend-side source of truth; the admission gate's per-shard
    meters enforce the rates it admitted.
    """

    def __init__(
        self,
        shards: int,
        capacities: Sequence[int],
        speed: int = 1,
        delta: int | Fraction = 1,
    ) -> None:
        if shards != len(capacities):
            raise ValueError("one capacity per shard required")
        self.shards = shards
        self.capacities = list(capacities)
        self.speed = speed
        self.delta = delta
        self.contracts: dict[str, TenantContract] = {}
        self._color_tenant: dict[Color, str] = {}
        self._shard_children: dict[int, list[BDRInterface]] = {
            sid: [] for sid in range(shards)
        }
        self._counters: dict[str, _TenantCounters] = {}

    @property
    def empty(self) -> bool:
        return not self.contracts

    def tenant_of(self, color: Color) -> str | None:
        return self._color_tenant.get(color)

    def _parent(self, sid: int) -> BDRInterface:
        return BDRInterface(
            rate=Fraction(self.capacities[sid] * self.speed),
            delay=Fraction(self.delta),
        )

    def check(self, contract: TenantContract) -> list[dict]:
        """Pure schedulability check; raises :class:`TenantError` or returns
        the per-shard placement (shard, rate share, burst share, and the
        supply guaranteed inside one delay-bound window)."""
        if contract.name in self.contracts:
            raise TenantError(
                "duplicate_tenant", f"tenant {contract.name!r} already registered"
            )
        for color in contract.colors:
            owner = self._color_tenant.get(color)
            if owner is not None:
                raise TenantError(
                    "color_conflict",
                    f"color {color!r} already belongs to tenant {owner!r}",
                )
        placement: list[dict] = []
        for sid, (rate, burst) in sorted(shard_shares(contract, self.shards).items()):
            child = BDRInterface(rate=rate, delay=Fraction(contract.delay_bound))
            parent = self._parent(sid)
            verdict = check_composition(
                parent, self._shard_children[sid] + [child]
            )
            if not verdict.schedulable:
                raise TenantError(
                    verdict.reason or "rate_overflow",
                    f"tenant {contract.name!r} unschedulable on shard {sid}: "
                    f"{verdict.detail}",
                )
            placement.append(
                {
                    "shard": sid,
                    "rate": str(rate),
                    "burst": burst,
                    # Service the child is guaranteed within one contracted
                    # delay-bound window, given the shard's startup delay.
                    "window_supply": str(
                        BDRInterface(rate=rate, delay=parent.delay).sbf(
                            contract.delay_bound
                        )
                    ),
                }
            )
        return placement

    def admit(self, contract: TenantContract) -> list[dict]:
        """Check + install.  After a successful :meth:`check` this cannot
        fail, which is what lets the server journal the registration between
        the two steps."""
        placement = self.check(contract)
        self.contracts[contract.name] = contract
        for color in contract.colors:
            self._color_tenant[color] = contract.name
        for entry in placement:
            self._shard_children[entry["shard"]].append(
                BDRInterface(
                    rate=Fraction(entry["rate"]),
                    delay=Fraction(contract.delay_bound),
                )
            )
        self._counters[contract.name] = _TenantCounters()
        return placement

    def note(self, name: str, submitted: int = 0, admitted: int = 0, shed: int = 0) -> None:
        counters = self._counters.get(name)
        if counters is None:
            return
        counters.submitted += submitted
        counters.admitted += admitted
        counters.shed += shed

    def stats(self) -> list[dict]:
        """Per-tenant contract + counters, in registration order."""
        out = []
        for name, contract in self.contracts.items():
            counters = self._counters[name]
            out.append(
                {
                    "name": name,
                    "colors": [encode_color(c) for c in contract.colors],
                    "rate": str(contract.rate),
                    "delay_bound": contract.delay_bound,
                    "burst": contract.burst,
                    "submitted": counters.submitted,
                    "admitted": counters.admitted,
                    "shed": counters.shed,
                }
            )
        return out
