"""Adversarial-tenant isolation, end to end.

The contract under test (ISSUE 9's acceptance proof): with two tenants
on disjoint shards and one of them flooding at a multiple of its
contracted rate, the compliant tenant's per-shard digests are
*byte-identical* to a run in which the adversary never shows up — the
flood is absorbed entirely by deterministic shedding of the adversary's
own excess.  Checked for both engines in-process, over the wire
against the asyncio server, and in ``--workers`` mode against the
in-process oracle.
"""

import asyncio
import os
import signal

import pytest

from repro.core.job import Job
from repro.policies import make_policy
from repro.serve.journal import commit_record, round_record, submit_record, tenant_record
from repro.utils.jsonl import JsonlJournal
from repro.serve.loadgen import _replay
from repro.serve.server import SchedulingServer, ServeConfig
from repro.serve.session import ShardedSession
from repro.serve.tenants import TenantContract
from repro.serve.workers import WorkerShardedSession
from repro.workloads import tenant_flood_instance, tenant_flood_plan

DELTA = 2
SHARDS = 2
HORIZON = 48
FLOOD = 8


def flood_fixtures(seed=3):
    """(plan, contracts, flood instance, victim-only instance)."""
    plan = tenant_flood_plan(shards=SHARDS, delta=DELTA)
    contracts = [TenantContract.from_dict(e) for e in plan["tenants"]]
    flood = tenant_flood_instance(
        plan, horizon=HORIZON, flood_factor=FLOOD, seed=seed, delta=DELTA
    )
    victim_colors = set(plan["tenants"][0]["colors"])
    return plan, contracts, flood, victim_colors


def rounds_of(instance):
    """Per-round batches, preserving batch order within each round."""
    by_round = {}
    for job in instance.sequence.jobs():
        by_round.setdefault(job.arrival, []).append(job)
    return [by_round.get(r, []) for r in range(instance.sequence.horizon)]


def clone(job):
    """Same identity, fresh object (sessions may not share Job instances)."""
    return Job(
        color=job.color, arrival=job.arrival,
        delay_bound=job.delay_bound, uid=job.uid,
    )


def run_session(engine, contracts, batches, only_colors=None):
    session = ShardedSession(
        n=16,
        delta=DELTA,
        policy_factory=lambda: make_policy("dlru-edf", DELTA),
        shards=SHARDS,
        engine=engine,
    )
    for contract in contracts:
        session.register_tenant(contract)
    shed_total = 0
    for batch in batches:
        jobs = [
            clone(j) for j in batch
            if only_colors is None or j.color in only_colors
        ]
        shed_total += len(session.submit(jobs))
        session.tick()
    digests = [shard.digests() for shard in session.shards]
    executed = sum(
        s.live.num_jobs - s.sim.ledger.drop_count - s.pending
        for s in session.shards
    )
    return digests, shed_total, executed


class TestEngineIsolation:
    @pytest.mark.parametrize("engine", ["reference", "incremental"])
    def test_victim_digests_unchanged_by_flood(self, engine):
        plan, contracts, flood, victim_colors = flood_fixtures()
        batches = rounds_of(flood)
        with_adv, shed, executed = run_session(engine, contracts, batches)
        alone, shed_alone, _ = run_session(
            engine, contracts, batches, only_colors=victim_colors
        )
        # The adversary floods at FLOOD x rate with burst == rate: all but
        # 1/FLOOD of its jobs are shed, none of the victim's are.
        per_round = plan["tenants"][1]["rate"] * (FLOOD - 1)
        assert shed == per_round * (flood.metadata["last_arrival"] + 1)
        assert shed_alone == 0
        # The isolation proof: victim shard 0 digests are byte-identical
        # whether or not the adversary exists at all.
        assert with_adv[0] == alone[0]
        # And the run is not vacuous: the victim's jobs actually execute.
        assert executed > 0

    def test_seed_sweep_incremental(self):
        for seed in (0, 1, 2):
            plan, contracts, flood, victim_colors = flood_fixtures(seed=seed)
            batches = rounds_of(flood)
            with_adv, _, _ = run_session("incremental", contracts, batches)
            alone, _, _ = run_session(
                "incremental", contracts, batches, only_colors=victim_colors
            )
            assert with_adv[0] == alone[0]


class TestServerIsolation:
    """The same proof through the wire protocol and the server WAL path."""

    def run_server(self, tmp_path, tag, instance, plan):
        async def runner():
            config = ServeConfig(
                n=16, delta=DELTA, shards=SHARDS, policy="dlru-edf",
                metrics_port=None,
                journal=str(tmp_path / f"journal-{tag}.jsonl"),
            )
            server = SchedulingServer(config)
            await server.start()
            try:
                report = await _replay(
                    "127.0.0.1", server.port, instance, verify=False,
                    tenants=plan["tenants"],
                )
                stats = server.session.stats()
                tenant_stats = server.session.tenant_stats()
                return report, stats, tenant_stats
            finally:
                await server.stop()

        return asyncio.run(runner())

    def test_wire_isolation_and_accounting(self, tmp_path):
        plan, contracts, flood, victim_colors = flood_fixtures()
        # The victim-only run replays the *same* instance minus the
        # adversary's jobs — same uids, same arrival rounds — so shard-0
        # digests must match byte for byte.
        from repro.core.request import Instance, RequestSequence

        vic_jobs = [
            clone(j) for j in flood.sequence.jobs()
            if j.color in victim_colors
        ]
        vic_instance = Instance(
            RequestSequence(vic_jobs, horizon=HORIZON), DELTA, name="vic"
        )

        flooded, fstats, ftenants = self.run_server(tmp_path, "flood", flood, plan)
        alone, astats, _ = self.run_server(tmp_path, "alone", vic_instance, plan)

        victim_row = next(t for t in ftenants if t["name"] == "victim")
        adversary_row = next(t for t in ftenants if t["name"] == "adversary")
        assert victim_row["shed"] == 0
        assert adversary_row["shed"] == flooded.shed > 0
        assert adversary_row["submitted"] == adversary_row["admitted"] + adversary_row["shed"]
        # Victim shard digests identical with and without the flood.
        assert fstats["shards"][0]["digests"] == astats["shards"][0]["digests"]


class TestWorkersParity:
    """Tenant metering in worker processes matches the in-process session."""

    def test_flood_parity_and_failover_replay(self, tmp_path):
        plan, contracts, flood, _ = flood_fixtures()
        path = str(tmp_path / "journal.jsonl")
        journal = JsonlJournal(path, truncate=True)
        ws = WorkerShardedSession(
            n=16, delta=DELTA, policy="dlru-edf", journal_path=path,
            shards=SHARDS,
        )
        oracle = ShardedSession(
            n=16, delta=DELTA,
            policy_factory=lambda: make_policy("dlru-edf", DELTA),
            shards=SHARDS,
        )
        try:
            for contract in contracts:
                journal.append(tenant_record(contract.to_dict()), sync=True)
                ws.register_tenant(contract)
                oracle.register_tenant(contract)
            seq = 0
            for rnd, batch in enumerate(rounds_of(flood)):
                jobs = [clone(j) for j in batch]
                ws.validate(jobs)
                oracle.validate([clone(j) for j in jobs])
                assert ws.last_shed == oracle.last_shed
                kept = ws.last_kept
                seq += 1
                journal.append(submit_record(seq, ws.round, kept), sync=True)
                journal.append(commit_record(seq), sync=False)
                ws.commit(kept)
                oracle.commit(oracle.last_kept)
                if rnd == 20:
                    # Kill a worker mid-run: replay must rebuild the shard
                    # *and its token buckets* from the journal.
                    os.kill(ws._workers[1].worker.process.pid, signal.SIGKILL)
                live = ws.tick()
                control = oracle.tick()
                journal.append(round_record(live), sync=False)
                assert live == control
            live, control = ws.stats(), oracle.stats()
            assert [s["digests"] for s in live["shards"]] == [
                s["digests"] for s in control["shards"]
            ]
        finally:
            ws.close()
            oracle.close()
            journal.close()
