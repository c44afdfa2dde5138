"""Exact offline optimum and the empirical competitive-ratio dashboard.

The rest of the repo measures what the paper's *online* policies cost;
this package computes what an omniscient offline scheduler would have
paid on the same ``[Delta | 1 | D_l | 1]`` instance, so competitive
ratios become measurements instead of citations.

Layers (each importable on its own):

- :mod:`repro.opt.model` — compiles an instance over a bounded horizon
  into an :class:`~repro.opt.model.OptModel`;
- :mod:`repro.opt.brute` — the exact search (exhaustive memoized DP);
- :mod:`repro.opt.backends` — the registry (`solve_opt` is the one
  entry point callers should use);
- :mod:`repro.opt.decode` — replays every solution through a real
  engine, the independent schedule checker, and the digest authority
  before any cost is published;
- :mod:`repro.opt.ratios` — the ``policy_cost / OPT`` dashboard behind
  ``repro opt`` and the ``BENCH_opt.json`` artifact.
"""

from repro.opt.backends import (
    BACKENDS,
    resolve_backend,
    solve_opt,
)
from repro.opt.brute import SearchBudgetExceeded, solve_brute
from repro.opt.decode import (
    OptResult,
    OptValidationError,
    ScriptedPolicy,
    decode_solution,
)
from repro.opt.model import OptModel, Solution, compile_model
from repro.opt.ratios import (
    BENCH_FORMAT,
    RATIO_POLICIES,
    RatioCase,
    ratio_cases,
    ratio_dashboard,
    render_dashboard,
    write_bench,
)

__all__ = [
    "BACKENDS",
    "BENCH_FORMAT",
    "OptModel",
    "OptResult",
    "OptValidationError",
    "RATIO_POLICIES",
    "RatioCase",
    "ScriptedPolicy",
    "SearchBudgetExceeded",
    "Solution",
    "compile_model",
    "decode_solution",
    "ratio_cases",
    "ratio_dashboard",
    "render_dashboard",
    "resolve_backend",
    "solve_brute",
    "solve_opt",
    "write_bench",
]
