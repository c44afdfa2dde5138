"""Sharding, capacity splits, and atomic admission control."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.pending as pending_module
import repro.serve.session as session_module
from repro.core.job import Job
from repro.core.live import LiveSequence
from repro.policies import make_policy
from repro.serve.protocol import decode_frame, encode_frame, job_from_wire, job_to_wire
from repro.serve.session import (
    AdmissionError,
    ShardedSession,
    shard_of,
    split_capacity,
)
from repro.serve.tenants import TenantContract
from repro.workloads import poisson_workload


def J(color, arrival, bound, **kw):
    return Job(color=color, arrival=arrival, delay_bound=bound, **kw)


def session(**kw):
    # delta=1 keeps EDF's eligibility gate open from the first arrival, so
    # admission tests can reason about executions without counter wrapping.
    defaults = dict(
        n=8,
        delta=1,
        policy_factory=lambda: make_policy("edf", 1),
        shards=2,
    )
    defaults.update(kw)
    return ShardedSession(**defaults)


class TestShardOf:
    def test_deterministic(self):
        assert shard_of("video", 4) == shard_of("video", 4)

    def test_single_shard_is_zero(self):
        assert shard_of("anything", 1) == 0

    def test_distinguishes_types(self):
        # "1" and 1 are different colors and may land on different shards;
        # the hash must at least frame them differently.
        labels = {f"{type(c).__name__}:{c!r}" for c in (1, "1")}
        assert len(labels) == 2

    def test_spreads_colors(self):
        owners = {shard_of(c, 4) for c in range(64)}
        assert owners == {0, 1, 2, 3}

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            shard_of("x", 0)


class TestSplitCapacity:
    def test_uniform_split_is_exact(self):
        assert split_capacity(16, 4) == [4, 4, 4, 4]

    def test_remainder_goes_to_low_ids(self):
        assert split_capacity(10, 3) == [4, 3, 3]

    def test_every_shard_gets_at_least_one(self):
        with pytest.raises(ValueError):
            split_capacity(2, 3)

    def test_total_is_preserved(self):
        for n in (7, 16, 33):
            for shards in (1, 2, 3, 5):
                if n >= shards:
                    assert sum(split_capacity(n, shards)) == n

    def test_structural_policy_requirements_reported(self):
        with pytest.raises(ValueError, match="shard 0 got capacity 6"):
            session(
                n=17, shards=3,
                policy_factory=lambda: make_policy("dlru-edf", 4),
            )


class TestAtomicAdmission:
    def test_accepts_and_routes_by_color(self):
        s = session()
        s.submit([J("a", 0, 2), J("b", 0, 2), J("a", 0, 2)])
        owner = s.shard_for("a")
        assert owner.live.num_jobs >= 2

    def test_duplicate_uid_rejected(self):
        s = session()
        job = J("a", 0, 2)
        s.submit([job])
        with pytest.raises(AdmissionError) as err:
            s.submit([J("b", 0, 2, uid=job.uid)])
        assert err.value.reason == "duplicate_uid"

    def test_duplicate_uid_within_batch_rejected(self):
        s = session()
        with pytest.raises(AdmissionError):
            s.submit([J("a", 0, 2, uid=1), J("b", 0, 2, uid=1)])

    def test_inconsistent_bound_within_batch_rejected(self):
        s = session()
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 2), J("a", 1, 4)])
        assert err.value.reason == "inconsistent_delay_bound"
        assert err.value.index == 1

    def test_rejected_batch_leaves_no_trace(self):
        s = session()
        good = J("a", 0, 2)
        with pytest.raises(AdmissionError):
            # Last job reuses the first one's uid, poisoning the whole batch.
            s.submit([good, J("b", 0, 2), J("c", 0, 2, uid=good.uid)])
        assert s.pending == 0
        # The good job from the failed batch is still admissible.
        s.submit([good])
        assert s.pending == 1

    def test_stale_round_rejected_after_tick(self):
        s = session()
        s.tick()
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 2)])
        assert err.value.reason == "stale_round"

    def test_backpressure_bounds_in_flight_jobs(self):
        s = session(shards=1, max_pending=3)
        s.submit([J("a", 0, 8), J("a", 0, 8), J("a", 0, 8)])
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 8)])
        assert err.value.reason == "backpressure"

    def test_backpressure_releases_as_rounds_drain(self):
        s = session(shards=1, max_pending=2, n=2)
        s.submit([J("a", 0, 1), J("a", 0, 1)])
        with pytest.raises(AdmissionError):
            s.submit([J("a", 1, 1)])
        s.tick()  # both execute (n=2 covers them)
        s.submit([J("a", 1, 1)])

    def test_closed_session_rejects(self):
        s = session()
        s.close()
        with pytest.raises(AdmissionError) as err:
            s.submit([J("a", 0, 2)])
        assert err.value.reason == "closed"


class TestLockstepTick:
    def test_jobs_never_cross_shards(self):
        s = session(shards=2)
        jobs = [J(c, 0, 4) for c in range(12)]
        s.submit(jobs)
        for _ in range(5):  # rounds 0..4; round 4 is the drop round
            s.tick()
        stats = s.stats()
        done = [
            sh["ledger"]["drop_count"] + len(self.executed_of(s, i))
            for i, sh in enumerate(stats["shards"])
        ]
        assert sum(done) == 12

    @staticmethod
    def executed_of(s, shard_id):
        return s.shards[shard_id].sim.executed_uids

    def test_result_frame_shape(self):
        s = session(shards=2, n=8)
        s.submit([J(c, 0, 1) for c in range(10)])
        result = s.tick()
        assert result["round"] == 0
        assert result["executed"] == sorted(result["executed"])
        assert len(result["executed"]) + len(result["dropped"]) <= 10
        assert result["recolored"] >= 1
        assert result["cost"] > 0

    def test_stats_carry_per_shard_digests(self):
        s = session()
        s.submit([J("a", 0, 2)])
        s.tick()
        stats = s.stats()
        assert len(stats["shards"]) == 2
        for shard in stats["shards"]:
            assert set(shard["digests"]) == {
                "ledger", "schedule", "events", "run",
            }


class TestEngineDeterminism:
    """Per-shard live digests must be byte-identical to offline runs and
    across engines — the serve-side leg of the engine oracle."""

    @staticmethod
    def _live_shard_digests(instance, engine, shards=2, n=8):
        s = ShardedSession(
            n=n,
            delta=instance.delta,
            policy_factory=lambda: make_policy("dlru-edf", instance.delta),
            shards=shards,
            engine=engine,
        )
        assert s.engine == engine
        for rnd in range(instance.horizon):
            jobs = list(instance.sequence.request(rnd))
            if jobs:
                s.submit(jobs)
            s.tick()
        while s.round < s.drain_horizon():
            s.tick()
        return [shard.digests() for shard in s.shards]

    @staticmethod
    def _offline_shard_digests(instance, engine, capacities, rounds):
        from repro.core.digest import component_digests
        from repro.core.engine import make_simulator
        from repro.core.request import Instance, RequestSequence

        per_shard = [[] for _ in capacities]
        for rnd in range(instance.horizon):
            for job in instance.sequence.request(rnd):
                per_shard[shard_of(job.color, len(capacities))].append(job)
        out = []
        for shard_id, jobs in enumerate(per_shard):
            shard_instance = Instance(
                RequestSequence(jobs, horizon=rounds),
                instance.delta,
                name=f"offline/shard{shard_id}",
            )
            policy = make_policy("dlru-edf", instance.delta)
            result = make_simulator(
                shard_instance,
                policy,
                capacities[shard_id],
                engine=engine,
            ).run(horizon=rounds)
            out.append(component_digests(
                result.ledger,
                result.schedule,
                result.events,
                result.executed_uids,
                result.dropped_uids,
            ))
        return out

    @pytest.mark.parametrize("engine", ["reference", "incremental"])
    def test_live_matches_offline(self, engine):
        from repro.workloads import poisson_workload

        instance = poisson_workload(delta=4, seed=17, horizon=64)
        live = self._live_shard_digests(instance, engine)
        rounds = self._rounds(instance)
        offline = self._offline_shard_digests(
            instance, engine, capacities=[4, 4], rounds=rounds
        )
        assert live == offline

    @staticmethod
    def _rounds(instance):
        # Mirror the session: tick through the drain horizon so both the
        # live and the offline runs cover every deadline.
        last = max(j.deadline for j in instance.sequence.jobs())
        return max(instance.horizon, last + 1)

    def test_engines_agree_live(self):
        from repro.workloads import poisson_workload

        instance = poisson_workload(delta=4, seed=29, horizon=64)
        per_engine = {
            engine: self._live_shard_digests(instance, engine)
            for engine in ("reference", "incremental")
        }
        assert per_engine["incremental"] == per_engine["reference"]


# -- admission against a plain per-job model ----------------------------------


def model_admission(s: ShardedSession, batch: list[Job]):
    """What admitting ``batch`` must give, decided one job at a time.

    Routes every job with :func:`shard_of`, lets each shard's tenant meter
    plan its slice, then applies each rule to each kept job in batch
    order against the session's state: each shard's live sequence and
    pending count, and the seen uids.
    Returns ``("reject", reason, index, message)`` or ``("ok", kept uids,
    shed entries, {shard: kept uids}, {tenant: (submitted, shed)})``.
    """
    if s.closed:
        return ("reject", "closed", None, "session is closed")
    sids = [shard_of(job.color, s.num_shards) for job in batch]
    indexed = list(enumerate(batch))
    shed: list[dict] = []
    if not s.tenants.empty:
        kept = []
        for sid in range(s.num_shards):
            part = [(i, job) for i, job in indexed if sids[i] == sid]
            part_kept, part_shed = s._meters[sid].plan(part)
            kept += part_kept
            shed += part_shed
        indexed = sorted(kept, key=lambda pair: pair[0])
        shed.sort(key=lambda entry: entry["index"])
    bounds: dict = {}
    uids: set = set()
    slices: dict[int, list[int]] = {}
    for index, job in indexed:
        sid = sids[index]
        live = s.shards[sid].live
        registered = live.delay_bound_of(job.color)
        if live.closed:
            return ("reject", "closed", index, f"job {job.uid}: live sequence is closed")
        if job.arrival < live.next_round:
            return ("reject", "stale_round", index,
                    f"job {job.uid}: arrival round {job.arrival} already consumed "
                    f"(next round is {live.next_round})")
        if registered is not None and registered != job.delay_bound:
            return ("reject", "inconsistent_delay_bound", index,
                    f"job {job.uid}: color {job.color!r} is registered with delay "
                    f"bound {registered}, got {job.delay_bound}")
        first = bounds.setdefault(job.color, job.delay_bound)
        if first != job.delay_bound:
            return ("reject", "inconsistent_delay_bound", index,
                    f"job {job.uid}: color {job.color!r} appears in this batch "
                    f"with delay bounds {first} and {job.delay_bound}")
        if job.uid in s._seen_uids or job.uid in uids:
            return ("reject", "duplicate_uid", index,
                    f"job uid {job.uid} was already submitted")
        uids.add(job.uid)
        slices.setdefault(sid, []).append(job.uid)
    for sid, part in slices.items():
        held = s.shards[sid].pending + len(part)
        if held > s.max_pending:
            return ("reject", "backpressure", None,
                    f"shard {sid} would hold {held} in-flight jobs "
                    f"(limit {s.max_pending}); retry after ticking")
    submitted = Counter(
        tenant for tenant in map(s.tenants.tenant_of, (job.color for job in batch))
        if tenant is not None
    )
    lost = Counter(entry["tenant"] for entry in shed)
    tallies = {tenant: (submitted[tenant], lost[tenant]) for tenant in sorted(submitted)}
    return ("ok", [job.uid for _, job in indexed], shed, slices, tallies)


#: 1, 1.0 and True are one color to a dict but route as three labels; on
#: two shards 4 and 4.0 live on different shards (4, "c" and 2 on shard 1).
PARITY_COLORS = [1, 1.0, True, 4, 4.0, "a", "c", (1, 2), 2]
#: the delay bound each color usually carries (equal colors share one).
USUAL_BOUND = {1: 2, 4: 3, "a": 1, "c": 2, (1, 2): 3, 2: 1}


@st.composite
def admission_cases(draw):
    """A session (1 or 2 shards, maybe tenants, maybe closed) with
    history, and a next batch that may break any rule.  Jobs mostly
    follow the rules, so that each batch breaks few of them and clean
    batches are common."""
    s = session(shards=draw(st.sampled_from([1, 2])),
                max_pending=draw(st.integers(2, 24)))
    if draw(st.booleans()):
        s.register_tenant(TenantContract(
            name="t", colors=("a", 4.0), rate=Fraction(1), delay_bound=3,
            burst=draw(st.integers(1, 3)),
        ))
    used: list[int] = []

    def job():
        color = draw(st.sampled_from(PARITY_COLORS))
        if draw(st.integers(0, 9)) == 0:
            bound = draw(st.integers(1, 3))
        else:
            bound = USUAL_BOUND[color]
        if used and draw(st.integers(0, 14)) == 0:
            uid = draw(st.sampled_from(used))
        else:
            uid = len(used)
        used.append(uid)
        shift = draw(st.sampled_from([0, 0, 0, 0, 0, 0, 0, -1, 1, 2]))
        return Job(color, max(0, s.round + shift), bound, uid)

    for _ in range(draw(st.integers(0, 4))):
        try:
            s.submit([job() for _ in range(draw(st.integers(0, 6)))])
        except AdmissionError:
            pass
        for _ in range(draw(st.integers(0, 2))):
            s.tick()
    if draw(st.integers(0, 19)) == 0:
        s.close()
    return s, [job() for _ in range(draw(st.integers(0, 10)))]


def tenant_counts(s: ShardedSession) -> dict[str, tuple[int, int, int]]:
    return {t["name"]: (t["submitted"], t["admitted"], t["shed"]) for t in s.tenant_stats()}


def _admit(s: ShardedSession, batch: list[Job]):
    try:
        admission = s.validate(batch)
    except AdmissionError as exc:
        return ("reject", exc.reason, exc.index, str(exc))
    s.commit(admission)
    assert admission.uids == {job.uid for job in admission.kept}
    return ("ok", [job.uid for job in admission.kept], admission.shed,
            {sid: [job.uid for job in part] for sid, part in admission.slices.items()},
            admission.tallies)


class TestAdmissionMatchesPerJobModel:
    @settings(max_examples=400, deadline=None)
    @given(case=admission_cases())
    def test_same_verdict_and_same_commit(self, case):
        s, batch = case
        expected = model_admission(s, batch)
        before = [shard.pending for shard in s.shards]
        noted = tenant_counts(s)
        assert _admit(s, batch) == expected
        if expected[0] == "ok":
            for sid, shard in enumerate(s.shards):
                assert shard.pending == before[sid] + len(expected[3].get(sid, []))
                assert s._in_flight[sid] == shard.pending
            assert set(expected[1]) <= s._seen_uids
            for tenant, (submitted, shed) in expected[4].items():
                noted[tenant] = tuple(
                    a + b for a, b in zip(noted[tenant], (submitted, submitted - shed, shed))
                )
        assert tenant_counts(s) == noted

    @pytest.mark.parametrize("shards", [1, 2])
    @pytest.mark.parametrize("reason, index, batch", [
        ("stale_round", 1, [J("a", 2, 2, uid=1), J("b", 1, 2, uid=2)]),
        ("inconsistent_delay_bound", 0, [J(1, 2, 3, uid=3)]),     # vs history
        ("inconsistent_delay_bound", 1, [J("a", 2, 2, uid=3), J("c", 2, 3, uid=4)]),
        ("inconsistent_delay_bound", 1, [J(1, 2, 2, uid=3), J(True, 2, 3, uid=4)]),
        ("duplicate_uid", 0, [J("a", 2, 2, uid=10)]),             # vs history
        ("duplicate_uid", 1, [J("a", 2, 2, uid=7), J("b", 2, 2, uid=7)]),
        ("backpressure", None, [J("a", 2, 2, uid=100 + i) for i in range(9)]),
    ])
    def test_every_reason(self, shards, reason, index, batch):
        s = session(shards=shards, max_pending=8)
        # "c" lives on shard 1 of 2, the other colors on shard 0.
        s.submit([J(1, 0, 2, uid=10), J("a", 1, 2, uid=11), J("c", 1, 2, uid=12)])
        s.tick()
        s.tick()
        expected = model_admission(s, batch)
        assert expected[:3] == ("reject", reason, index)
        assert _admit(s, batch) == expected

    def test_equal_colors_on_different_shards(self):
        # 4.0 holds bound 3 on its shard; 4 lives on the other one, where
        # bound 2 is new.  The batch-wide test sees one color with a
        # registered bound 3 and cannot clear it; the per-job loop admits it.
        s = session(shards=2)
        assert shard_of(4, 2) != shard_of(4.0, 2)
        s.submit([J(4.0, 0, 3, uid=1)])
        batch = [J(4, 0, 2, uid=2)]
        expected = model_admission(s, batch)
        assert expected == ("ok", [2], [], {shard_of(4, 2): [2]}, {})
        assert _admit(s, batch) == expected


# -- per-job work on the submit path ------------------------------------------


def _heavy_session_rounds(rounds: int):
    """The serve-heavy load (poisson, 64 colors, rate 8, dlru-edf, n = 16,
    delta = 4, one shard), submitted through the wire codec."""
    instance = poisson_workload(num_colors=64, rate=8.0, delta=4, seed=3, horizon=rounds)
    s = ShardedSession(n=16, delta=4, policy_factory=lambda: make_policy("dlru-edf", 4),
                       max_pending=10**5)
    frames = [
        encode_frame({"type": "submit", "jobs": [
            job_to_wire(job) for job in instance.sequence.request(rnd)
        ]})
        for rnd in range(rounds)
    ]
    return s, frames


def _run(s: ShardedSession, frames) -> int:
    jobs = 0
    for line in frames:
        batch = [job_from_wire(w, s.round) for w in decode_frame(line)["jobs"]]
        s.submit(batch)
        s.tick()
        jobs += len(batch)
    return jobs


class TestPerJobWork:
    def test_pools_key_each_color_once(self, monkeypatch):
        calls = []
        key = pending_module.color_sort_key

        def counted(color):
            calls.append(color)
            return key(color)

        monkeypatch.setattr(pending_module, "color_sort_key", counted)
        s, frames = _heavy_session_rounds(24)
        jobs = _run(s, frames)
        pools = len(list(s.shards[0].sim.pending.colors()))
        assert jobs > 100 * pools
        assert len(calls) == pools

    @pytest.mark.parametrize("tenants", [False, True])
    def test_one_shard_never_routes(self, monkeypatch, tenants):
        s, frames = _heavy_session_rounds(8)
        if tenants:
            s.register_tenant(TenantContract(
                name="t", colors=(0, 1), rate=Fraction(1), delay_bound=8, burst=2,
            ))
        calls = []
        monkeypatch.setattr(
            session_module, "shard_of", lambda *args: calls.append(args) or 0
        )
        assert _run(s, frames) > 0
        assert calls == []

    def test_a_clean_batch_is_never_checked_job_by_job(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            LiveSequence, "check", lambda live, *args: calls.append(args)
        )
        s, frames = _heavy_session_rounds(8)
        assert _run(s, frames) > 0
        assert calls == []
