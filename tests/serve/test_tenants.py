"""Multi-tenant BDR admission: contracts, meters, directory, wire frames.

The two invariants this suite pins down:

* *Schedulability is decided at registration time* — a contract the
  Theorem-1 composition check rejects never installs any state, and the
  rejection carries a machine-readable reason.
* *Enforcement is isolated* — an over-rate tenant loses exactly its own
  excess, and with no tenants registered the serve layer's wire frames
  and digests are byte-identical to a tenant-free build.
"""

import json
from fractions import Fraction

import pytest

from repro.core.job import Job
from repro.serve.session import ShardedSession, shard_of
from repro.serve.tenants import (
    ShardTenantMeter,
    TenantContract,
    TenantDirectory,
    TenantError,
    load_plan,
    shard_shares,
)

from tests.serve.test_server import wire_job, with_server


def contract(**kw):
    base = dict(name="t", colors=("a",), rate=Fraction(1), delay_bound=4, burst=2)
    base.update(kw)
    return TenantContract(**base)


class TestContract:
    def test_rate_parsing_forms(self):
        for raw, want in ((1, 1), ("1/4", Fraction(1, 4)), ("0.5", Fraction(1, 2)), (0.25, Fraction(1, 4))):
            c = TenantContract.from_dict(
                {"name": "x", "colors": ["a"], "rate": raw, "delay_bound": 3}
            )
            assert c.rate == want

    def test_burst_defaults_to_ceil_rate(self):
        c = TenantContract.from_dict(
            {"name": "x", "colors": ["a"], "rate": "5/2", "delay_bound": 3}
        )
        assert c.burst == 3
        tiny = TenantContract.from_dict(
            {"name": "x", "colors": ["a"], "rate": "1/8", "delay_bound": 3}
        )
        assert tiny.burst == 1  # never below one token

    def test_unknown_fields_rejected(self):
        with pytest.raises(TenantError) as exc:
            TenantContract.from_dict(
                {"name": "x", "colors": ["a"], "rate": 1, "delay_bound": 3, "qos": 9}
            )
        assert exc.value.reason == "bad_contract"

    @pytest.mark.parametrize("patch", [
        {"name": ""}, {"colors": ()}, {"colors": ("a", "a")},
        {"rate": Fraction(0)}, {"delay_bound": 0}, {"burst": 0},
        {"delay_bound": True},
    ])
    def test_invalid_contracts(self, patch):
        with pytest.raises(TenantError):
            contract(**patch)

    def test_round_trip(self):
        c = contract(rate=Fraction(3, 7), colors=("a", 5))
        assert TenantContract.from_dict(c.to_dict()) == c

    def test_load_plan(self, tmp_path):
        path = tmp_path / "plan.json"
        path.write_text(json.dumps({"tenants": [
            {"name": "v", "colors": ["a"], "rate": 1, "delay_bound": 4},
        ]}))
        (c,) = load_plan(path)
        assert c.name == "v" and c.rate == 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"nope": []}))
        with pytest.raises(TenantError):
            load_plan(bad)


class TestShardShares:
    def test_single_shard_gets_everything(self):
        shares = shard_shares(contract(colors=("a", "b"), burst=5), shards=1)
        assert shares == {0: (Fraction(1), 5)}

    def test_rate_split_is_exact_and_burst_conserved(self):
        colors = tuple(range(12))
        c = contract(colors=colors, rate=Fraction(7, 3), burst=6)
        shares = shard_shares(c, shards=4)
        assert sum(r for r, _ in shares.values()) == Fraction(7, 3)
        # Burst is conserved when every occupied shard's floor is >= 1.
        assert sum(b for _, b in shares.values()) >= 6
        assert all(b >= 1 for _, b in shares.values())

    def test_only_occupied_shards_listed(self):
        c = contract(colors=("a",))
        shares = shard_shares(c, shards=4)
        assert set(shares) == {shard_of("a", 4)}


class TestMeter:
    def fresh(self):
        m = ShardTenantMeter()
        m.register("t", ["a"], Fraction(1), burst=2)
        return m

    def test_plan_is_pure(self):
        m = self.fresh()
        jobs = [(i, Job(color="a", arrival=0, delay_bound=4)) for i in range(5)]
        kept, shed = m.plan(jobs)
        assert [i for i, _ in kept] == [0, 1]
        assert [s["index"] for s in shed] == [2, 3, 4]
        assert all(s["tenant"] == "t" for s in shed)
        # Planning again gives the same answer: no state was touched.
        kept2, shed2 = m.plan(jobs)
        assert ([i for i, _ in kept2], shed2) == ([0, 1], shed)
        assert m.tokens() == {"t": Fraction(2)}

    def test_unmetered_colors_never_shed(self):
        m = self.fresh()
        jobs = [(i, Job(color="z", arrival=0, delay_bound=4)) for i in range(50)]
        kept, shed = m.plan(jobs)
        assert len(kept) == 50 and shed == []

    def test_debit_refill_cycle_sustains_rate(self):
        m = self.fresh()
        job = Job(color="a", arrival=0, delay_bound=4)
        for _ in range(10):  # 1 job/round at rate 1: never sheds
            kept, shed = m.plan([(0, job)])
            assert shed == []
            m.debit(j for _, j in kept)
            m.refill()
        assert m.tokens()["t"] == Fraction(2)  # back at burst

    def test_refill_caps_at_burst(self):
        m = self.fresh()
        for _ in range(5):
            m.refill()
        assert m.tokens()["t"] == Fraction(2)

    def test_fractional_rate_accumulates(self):
        m = ShardTenantMeter()
        m.register("slow", ["a"], Fraction(1, 3), burst=1)
        job = Job(color="a", arrival=0, delay_bound=9)
        admitted = 0
        for _ in range(9):
            kept, _ = m.plan([(0, job)])
            m.debit(j for _, j in kept)
            admitted += len(kept)
            m.refill()
        assert admitted == 3  # exactly rate * rounds, no float drift


class TestDirectory:
    def directory(self, shards=1, capacity=8, delta=2):
        return TenantDirectory(
            shards=shards, capacities=[capacity] * shards, delta=delta
        )

    def test_admit_then_duplicate_rejected(self):
        d = self.directory()
        d.admit(contract(name="a", delay_bound=4))
        with pytest.raises(TenantError) as exc:
            d.admit(contract(name="a", colors=("zz",), delay_bound=4))
        assert exc.value.reason == "duplicate_tenant"

    def test_color_conflict_rejected(self):
        d = self.directory()
        d.admit(contract(name="a", delay_bound=4))
        with pytest.raises(TenantError) as exc:
            d.admit(contract(name="b", colors=("a",), delay_bound=4))
        assert exc.value.reason == "color_conflict"

    def test_delay_bound_must_exceed_delta(self):
        d = self.directory(delta=4)
        with pytest.raises(TenantError) as exc:
            d.admit(contract(delay_bound=4))  # == delta: too tight
        assert exc.value.reason == "delay_too_tight"

    def test_rate_overflow_accumulates_across_tenants(self):
        d = self.directory(capacity=2)  # shard parent rate 2
        d.admit(contract(name="a", colors=("a",), rate=Fraction(3, 2), delay_bound=8))
        with pytest.raises(TenantError) as exc:
            d.admit(contract(name="b", colors=("b",), rate=1, delay_bound=8))
        assert exc.value.reason == "rate_overflow"
        # The failed admit left no residue: a fitting tenant still lands.
        d.admit(contract(name="c", colors=("c",), rate=Fraction(1, 2), delay_bound=8))

    def test_check_is_pure(self):
        d = self.directory()
        placement = d.check(contract(delay_bound=4))
        assert d.empty and placement[0]["shard"] == 0
        assert Fraction(placement[0]["window_supply"]) > 0


class TestSessionShedding:
    def session(self, shards=2):
        from repro.policies import make_policy

        return ShardedSession(
            n=8, delta=1, policy_factory=lambda: make_policy("edf", 1),
            shards=shards,
        )

    def job(self, color, bound=8):
        return Job(color=color, arrival=0, delay_bound=bound)

    def test_over_rate_tenant_shed_compliant_untouched(self):
        s = self.session()
        s.register_tenant(contract(name="t", colors=("a",), rate=1, burst=1, delay_bound=8))
        batch = [self.job("a") for _ in range(4)] + [self.job("z")]
        admission = s.validate(batch)
        s.commit(admission)
        assert [e["tenant"] for e in admission.shed] == ["t"] * 3
        assert len(admission.kept) == 2  # one metered + the unmetered color
        assert admission.tallies == {"t": (4, 3)}

    def test_each_job_is_routed_to_its_shard_once(self, monkeypatch):
        import repro.serve.session as session_module

        s = self.session()
        s.register_tenant(contract(name="t", colors=("a",), rate=1, burst=1, delay_bound=8))
        calls = []

        def counting_shard_of(color, shards):
            calls.append(color)
            return shard_of(color, shards)

        monkeypatch.setattr(session_module, "shard_of", counting_shard_of)
        batch = [self.job("a") for _ in range(4)] + [
            self.job(c) for c in "wxyz"
        ]
        shed = s.submit(batch)
        assert len(calls) == len(batch) == 8
        assert [e["index"] for e in shed] == [1, 2, 3]
        assert s.pending == 5

    def test_shed_uids_never_poison_duplicate_tracking(self):
        s = self.session()
        s.register_tenant(contract(name="t", colors=("a",), rate=1, burst=1, delay_bound=8))
        first, second = self.job("a"), self.job("a")
        shed = s.submit([first, second])
        assert [e["uid"] for e in shed] == [second.uid]
        s.tick()
        # The shed job resubmits cleanly after a refill (same uid, next
        # round): it never entered duplicate tracking.
        retry = Job(color="a", arrival=1, delay_bound=8, uid=second.uid)
        assert s.submit([retry]) == []

    def test_digests_unchanged_without_tenants(self):
        jobs = [self.job(c % 5, bound=4) for c in range(20)]
        plain, metered = self.session(), self.session()
        metered.register_tenant(
            contract(name="t", colors=(0, 1, 2, 3, 4), rate=4, burst=20, delay_bound=8)
        )
        for s in (plain, metered):
            s.submit(list(jobs))
            for _ in range(6):
                s.tick()
        assert [sh.digests() for sh in plain.shards] == [
            sh.digests() for sh in metered.shards
        ]

    def test_fractional_delta_is_exact_in_both_session_classes(self, tmp_path):
        # With Delta = 5/2 the shard's supply within the tenant's window
        # of 3 rounds is 1 * (3 - 5/2); truncating Delta to 2 said 1.
        from repro.policies import make_policy
        from repro.serve.workers import WorkerShardedSession

        tenant = contract(colors=(1, 2), rate=1, burst=1, delay_bound=3)
        expected = [
            {"shard": 0, "rate": "1", "burst": 1, "window_supply": "1/2"}
        ]
        in_process = ShardedSession(
            n=8, delta=2.5, policy_factory=lambda: make_policy("edf", 2.5),
        )
        assert in_process.register_tenant(tenant) == expected
        with WorkerShardedSession(
            n=8, delta=2.5, policy="edf",
            journal_path=str(tmp_path / "j.jsonl"), timeout=10.0,
        ) as workers:
            assert workers.register_tenant(tenant) == expected


class TestWireFrames:
    def wire_contract(self, **kw):
        base = {"name": "t", "colors": ["a"], "rate": 1, "delay_bound": 4}
        base.update(kw)
        return base

    def test_register_and_stats_over_wire(self):
        async def test(server, conn):
            ok = await conn.call({
                "type": "tenant_register", "id": 7,
                "tenant": self.wire_contract(),
            })
            assert ok["type"] == "tenant_ok" and ok["id"] == 7
            assert ok["name"] == "t" and ok["placement"][0]["shard"] == 0
            dup = await conn.call({
                "type": "tenant_register",
                "tenant": self.wire_contract(),
            })
            assert dup["type"] == "reject" and dup["reason"] == "duplicate_tenant"
            stats = await conn.call({"type": "tenant_stats"})
            assert stats["type"] == "tenant_stats"
            assert [t["name"] for t in stats["tenants"]] == ["t"]

        with_server(test, delta=2)

    def test_submit_reports_sheds_and_kept_count(self):
        async def test(server, conn):
            await conn.call({
                "type": "tenant_register",
                "tenant": self.wire_contract(rate=1, burst=1),
            })
            reply = await conn.call({
                "type": "submit", "id": 1,
                "jobs": [wire_job("a", 4) for _ in range(3)],
            })
            assert reply["type"] == "accept"
            assert reply["count"] == 1
            assert reply["shed"] == 2
            assert len(reply["shed_uids"]) == 2
            stats = await conn.call({"type": "tenant_stats"})
            (t,) = stats["tenants"]
            assert (t["submitted"], t["admitted"], t["shed"]) == (3, 1, 2)

        with_server(test, delta=2)

    def test_tenant_free_accept_has_no_shed_fields(self):
        async def test(server, conn):
            reply = await conn.call({
                "type": "submit", "jobs": [wire_job("a", 2)],
            })
            assert reply["type"] == "accept"
            assert "shed" not in reply and "shed_uids" not in reply

        with_server(test)

    def test_unschedulable_plan_rejected_with_reason(self):
        async def test(server, conn):
            reply = await conn.call({
                "type": "tenant_register",
                "tenant": self.wire_contract(rate=10**6),
            })
            assert reply["type"] == "reject"
            assert reply["reason"] == "rate_overflow"

        with_server(test, delta=2)
