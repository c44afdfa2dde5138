"""E12 — engine throughput micro-benchmarks.

Unlike the experiment benches (one pedantic round each), these measure the
hot paths statistically: the full round loop under each policy, the Par-EDF
oracle, the reduction transforms, and the exact solver on a small instance.
"""

from repro.core.simulator import simulate
from repro.experiments.scenario import run_e12
from repro.opt import solve_opt
from repro.policies.dlru_edf import DeltaLRUEDFPolicy
from repro.policies.edf import EDFPolicy
from repro.policies.par_edf import par_edf_run
from repro.reductions.distribute import distribute_sequence
from repro.reductions.pipeline import solve_online
from repro.reductions.varbatch import varbatch_sequence
from repro.workloads.generators import (
    batched_workload,
    poisson_workload,
    rate_limited_workload,
    uniform_workload,
)
from repro.workloads.scenarios import datacenter_workload

from conftest import run_experiment_benchmark


def test_e12_throughput(benchmark, save_report):
    run_experiment_benchmark(benchmark, save_report, run_e12)


def test_round_loop_dlru_edf(benchmark):
    instance = datacenter_workload(num_services=8, horizon=1024, delta=8, seed=0)

    def run():
        return simulate(
            instance, DeltaLRUEDFPolicy(8), n=16, record_events=False
        ).total_cost

    benchmark(run)


def test_round_loop_edf(benchmark):
    instance = rate_limited_workload(num_colors=8, horizon=512, delta=4, seed=0)

    def run():
        return simulate(instance, EDFPolicy(4), n=16, record_events=False).total_cost

    benchmark(run)


def test_par_edf_oracle(benchmark):
    instance = poisson_workload(num_colors=8, horizon=1024, delta=4, seed=0, rate=1.0)
    benchmark(lambda: par_edf_run(instance.sequence, 8).drop_count)


def test_distribute_transform(benchmark):
    instance = batched_workload(num_colors=8, horizon=512, delta=4, seed=0)
    benchmark(lambda: distribute_sequence(instance.sequence).num_jobs)


def test_varbatch_transform(benchmark):
    instance = poisson_workload(num_colors=8, horizon=512, delta=4, seed=0)
    benchmark(lambda: varbatch_sequence(instance.sequence).num_jobs)


def test_full_pipeline(benchmark):
    instance = poisson_workload(num_colors=6, horizon=256, delta=4, seed=0)
    benchmark(lambda: solve_online(instance, n=16, record_events=False).total_cost)


def test_exact_solver_small(benchmark):
    instance = uniform_workload(
        num_colors=3, horizon=12, delta=2, seed=0, jobs_per_round=1, max_exp=2
    )
    benchmark(lambda: solve_opt(instance, 1).cost)
