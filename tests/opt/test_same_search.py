"""The exact-OPT DP runs the same search as the reference DP.

``tests/opt/reference_dp.py`` keeps the earlier search verbatim.  The
current :func:`repro.opt.solve_brute` must visit the same memo states,
choose the same per-round configurations, publish the same cost when
``Delta`` is an integer, and raise :class:`SearchBudgetExceeded` at the
same ``max_states``.  Hypothesis draws small instances with int, str and
mixed colors, ``m`` in {1, 2, 3} and integer or float ``Delta``.

``PINNED`` records what the reference computed for the six full-scale
dashboard cells and the E3/E11 quick instances: ``(cost, states,
reconfig count, configs)``, the configs run-length encoded as
``[(rounds, config), ...]``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.job import Job
from repro.core.request import Instance, RequestSequence
from repro.opt import SearchBudgetExceeded, compile_model, solve_brute, solve_opt
from repro.opt.ratios import ratio_cases
from repro.workloads.generators import rate_limited_workload

from tests.opt import reference_dp

PALETTES = ((0, 1, 2), ("a", "b", "c"), (0, "a", 1))
DELTAS = st.one_of(
    st.integers(1, 3), st.sampled_from([0.1, 0.3, 0.7, 1.5, 2.5])
)


@st.composite
def instances(draw):
    palette = draw(st.sampled_from(PALETTES))
    colors = palette[: draw(st.integers(1, len(palette)))]
    bounds = {color: draw(st.integers(1, 4)) for color in colors}
    jobs = [
        Job(color=color, arrival=draw(st.integers(0, 5)),
            delay_bound=bounds[color])
        for color in draw(st.lists(st.sampled_from(colors), max_size=8))
    ]
    return Instance(RequestSequence(jobs), draw(DELTAS))


@given(instance=instances(), m=st.integers(1, 3))
@settings(max_examples=120, deadline=None)
def test_same_states_configs_and_integer_costs(instance, m):
    model = compile_model(instance, m)
    reference = reference_dp.solve_brute(model)
    solution = solve_brute(model)
    assert solution.states == reference.states
    assert solution.configs == reference.configs
    if isinstance(instance.delta, int):
        assert solution.cost == reference.cost
    else:
        assert solution.cost == pytest.approx(reference.cost)


@given(instance=instances(), m=st.integers(1, 3), data=st.data())
@settings(max_examples=80, deadline=None)
def test_budget_exceeded_at_the_same_max_states(instance, m, data):
    model = compile_model(instance, m)
    states = reference_dp.solve_brute(model).states
    budget = data.draw(st.integers(0, states), label="max_states")
    outcomes = []
    for solve in (reference_dp.solve_brute, solve_brute):
        try:
            outcomes.append(solve(model, max_states=budget).states)
        except SearchBudgetExceeded:
            outcomes.append("exceeded")
    assert outcomes[0] == outcomes[1]


def _e3(seed):
    return rate_limited_workload(
        num_colors=4, horizon=32, delta=2, seed=seed, load=0.3, max_exp=3
    )


def _e11():
    return rate_limited_workload(
        num_colors=5, horizon=32, delta=2, seed=0, load=0.7
    )


CASES = {case.name: (case.build, case.m) for case in ratio_cases("full")}
CASES.update(
    {f"e3-seed{seed}": (lambda seed=seed: _e3(seed), 1) for seed in range(4)}
)
CASES["e11"] = (_e11, 1)

PINNED = {
    "uniform-small": (4, 122, 1, [(3, ()), (7, (0,))]),
    "poisson-small": (6, 322, 2, [(1, ()), (4, (1,)), (7, (1, 2))]),
    "lb-adversary-dlru": (6, 14794, 3, [(9, (0, 1, 10000))]),
    "lb-adversary-edf": (6, 3010, 3, [(9, (0, 1, 10000))]),
    "uniform-mid": (
        6, 123, 3, [(1, ()), (1, (1,)), (1, (1, 2)), (12, (0, 1, 2))]
    ),
    "lb-adversary-edf-long": (6, 7021, 3, [(13, (0, 1, 10000))]),
    "e3-seed0": (24, 494, 3, [(1, ()), (12, (3,)), (7, (1,)), (13, (0,))]),
    "e3-seed1": (
        26, 2258, 4, [(2, ()), (3, (1,)), (16, (3,)), (5, (2,)), (7, (3,))]
    ),
    "e3-seed2": (
        29, 509, 4, [(1, ()), (4, (0,)), (10, (3,)), (4, (0,)), (14, (2,))]
    ),
    "e3-seed3": (26, 472, 2, [(5, ()), (6, (0,)), (22, (1,))]),
    "e11": (81, 47708, 2, [(1, ()), (24, (0,)), (8, (3,))]),
}


def test_pinned_cases_cover_the_dashboard():
    assert set(PINNED) == set(CASES)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_optimum(name):
    build, m = CASES[name]
    result = solve_opt(build(), m)
    cost, states, reconfigs, runs = PINNED[name]
    configs = tuple(config for rounds, config in runs for _ in range(rounds))
    assert (result.cost, result.states, result.reconfig_count) == (
        cost, states, reconfigs,
    )
    assert result.configs == configs
