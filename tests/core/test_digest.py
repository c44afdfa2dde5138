"""The streamed run digests and what a live session retains.

:func:`repro.core.digest.component_digests` hashes the event stream in
one pass, batch by batch, without building the payload.  Its digests
must equal digest v1 as first written, which :func:`v1_digests` keeps
as the oracle: SHA-256 over ``json.dumps(payload, sort_keys=True,
default=str)`` of one payload holding every component.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import tracemalloc

import pytest

from repro.core.digest import component_digests, schedule_digests
from repro.core.engine import ENGINES, make_simulator
from repro.core.events import (
    ArrivalEvent,
    DropEvent,
    EventLog,
    ExecutionEvent,
    ReconfigEvent,
)
from repro.core.job import BLACK, Job
from repro.core.ledger import CostLedger
from repro.core.request import Instance, RequestSequence
from repro.core.schedule import Schedule
from repro.policies import make_policy
from repro.serve.session import ShardedSession
from tests.core.test_events import derived_instance
from tests.core.test_pinned_digests import PALETTES, heavy_load, pinned_instance


def _sha(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, default=str).encode()
    ).hexdigest()


def _per_color(counter) -> dict[str, int]:
    return {
        str(k): v
        for k, v in sorted(counter.items(), key=lambda kv: str(kv[0]))
    }


def v1_digests(ledger, schedule, events, executed_uids, dropped_uids) -> dict:
    """Digest v1 from one payload blob (the oracle)."""
    payload = {
        "ledger": ledger.summary(),
        "reconfigs_per_color": _per_color(ledger.reconfigs_per_color),
        "drops_per_color": _per_color(ledger.drops_per_color),
        "schedule": schedule.to_json(),
        "events": [repr(e) for e in events],
        "executed": sorted(executed_uids),
        "dropped": sorted(dropped_uids),
    }
    return {
        "ledger": _sha({
            "ledger": payload["ledger"],
            "reconfigs_per_color": payload["reconfigs_per_color"],
            "drops_per_color": payload["drops_per_color"],
        }),
        "schedule": _sha(payload["schedule"]),
        "events": _sha(payload["events"]),
        "run": _sha(payload),
    }


def run_parts(instance, engine="incremental", speed=1, policy="dlru-edf", n=4):
    sim = make_simulator(
        instance,
        make_policy(policy, instance.delta),
        n,
        engine=engine,
        speed=speed,
    )
    result = sim.run()
    return (
        result.ledger, result.schedule, result.events,
        result.executed_uids, result.dropped_uids,
    )


def colored_instance(colors, rounds=16, seed=3) -> Instance:
    rng = random.Random(seed)
    bounds = {color: 1 + i % 3 for i, color in enumerate(colors)}
    jobs = []
    for rnd in range(rounds):
        for _ in range(rng.randint(0, 6)):
            color = rng.choice(colors)
            jobs.append(Job(color, rnd, bounds[color], uid=10 + len(jobs)))
    return Instance(RequestSequence(jobs, horizon=rounds + 4), 2)


class TestStreamedDigestEqualsV1:
    @pytest.mark.parametrize("speed", [1, 2])
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("palette", [*PALETTES, "derived"])
    def test_simulator_runs(self, palette, engine, speed):
        instance = (
            derived_instance() if palette == "derived" else pinned_instance(palette)
        )
        parts = run_parts(instance, engine, speed)
        assert len(parts[2]) > 0
        assert component_digests(*parts) == v1_digests(*parts)

    @pytest.mark.parametrize("colors", [
        ["café", "δ", "日本", "été", "emoji \U0001F600"],
        ['a"b', "back\\slash", "it's", '"', "\\", "\\u0000", 'q"\\"'],
        ["tab\there", "new\nline", ("nested", '"', "ü")],
    ], ids=["non-ascii", "quotes-backslashes", "control-and-tuples"])
    def test_string_colors_that_need_escaping(self, colors):
        parts = run_parts(colored_instance(colors))
        assert len(parts[2]) > 0
        assert component_digests(*parts) == v1_digests(*parts)

    @pytest.mark.parametrize("events", [(), [], EventLog(), EventLog(enabled=False)])
    def test_empty_event_stream(self, events):
        ledger = CostLedger(2)
        ledger.charge_drops(0, ["x", 1])
        parts = (ledger, Schedule(n=2), events, {3}, [2, 1])
        assert component_digests(*parts) == v1_digests(*parts)

    @pytest.mark.parametrize("event", [
        ArrivalEvent(0, 0, Job("é\"\\", 0, 2, uid=5)),
        DropEvent(2, 0, Job((1, "x"), 0, 2, uid=6, origin=4)),
        ReconfigEvent(1, 1, 3, BLACK, -0.0),
        ExecutionEvent(1, 0, 0, Job(True, 1, 1, uid=7)),
    ])
    def test_single_event(self, event):
        schedule = Schedule(n=4)
        schedule.add_reconfig(1, 3, -0.0, 1)
        log = EventLog()
        log.append(event)
        for events in ([event], log):
            parts = (CostLedger(1), schedule, events, [], [])
            assert component_digests(*parts) == v1_digests(*parts)

    def test_schedule_digests_hash_an_empty_stream(self):
        instance = pinned_instance("str")
        schedule = run_parts(instance)[1]
        executed = schedule.executed_uids()
        dropped = [j.uid for j in instance.sequence.jobs() if j.uid not in executed]
        expected = v1_digests(
            schedule.ledger(instance.sequence, instance.delta), schedule, (),
            executed, dropped,
        )
        assert schedule_digests(schedule, instance.sequence, instance.delta) == expected


def _heavy_jobs(rnd: int, first_uid: int, rng: random.Random) -> list[Job]:
    """One round of the serve-heavy load shape (64 int colors, about
    eight jobs per color, delay bounds 1 to 4)."""
    jobs = []
    for color in range(64):
        for _ in range(rng.randint(4, 12)):
            jobs.append(Job(color, rnd, 1 + color % 4, uid=first_uid + len(jobs)))
    return jobs


def held_by_drained_session(rounds: int) -> tuple[int, int]:
    """GC-tracked objects a one-shard session holds once it has taken
    ``rounds`` rounds of the serve-heavy shape and drained, and the
    number of jobs it was submitted."""
    gc.collect()
    before = len(gc.get_objects())
    session = ShardedSession(
        n=16, delta=4, policy_factory=lambda: make_policy("dlru-edf", 4),
        max_pending=100_000,
    )
    rng = random.Random(rounds)
    submitted = 0
    for rnd in range(rounds):
        jobs = _heavy_jobs(rnd, submitted, rng)
        submitted += len(jobs)
        session.submit(jobs)
        session.tick()
    del jobs
    while session.round < session.drain_horizon():
        session.tick()
    assert len(session.shards[0].sim.events) > 2 * submitted
    gc.collect()
    return len(gc.get_objects()) - before, submitted


class TestRetention:
    @pytest.mark.parametrize("rounds", [20, 80])  # about 10k and 40k jobs
    def test_session_holds_few_gc_tracked_objects_per_job(self, rounds):
        # A one-round session holds the per-color policy and pool state;
        # what a longer session holds beyond that, per extra job, is the
        # retention.
        base_held, base_jobs = held_by_drained_session(1)
        held, submitted = held_by_drained_session(rounds)
        assert held - base_held < 0.1 * (submitted - base_jobs), (held, submitted)

    def test_digest_peak_memory_is_below_half_the_events_json(self):
        instance = heavy_load(rounds=50)
        parts = run_parts(instance, n=16)
        events = parts[2]
        assert 45_000 <= len(events) <= 60_000
        size = len(json.dumps([repr(e) for e in events]))
        was_tracing = tracemalloc.is_tracing()
        if not was_tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            component_digests(*parts)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            if not was_tracing:
                tracemalloc.stop()
        assert peak < size / 2, (peak, size)
