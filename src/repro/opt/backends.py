"""Backend registry: name the exact solver and run it end to end.

There is one backend, ``brute`` — the exhaustive memoized DP of
:mod:`repro.opt.brute`.  ``backend="auto"`` (or ``None``) resolves to
it.  Callers (the ratio dashboard, the CLI and the tests) name the
backend through :func:`resolve_backend`, and the name is recorded in
every :class:`~repro.opt.decode.OptResult` and dashboard cell.  Every
solution is decoded and validated by :mod:`repro.opt.decode` before
anyone sees a cost.

Telemetry (never affects results, like every recorder in this repo):

- ``repro_opt_solves_total{backend=}`` / ``repro_opt_solve_seconds{backend=}``
- ``repro_opt_states_total{backend=}`` (brute's memo size)
- ``repro_opt_validations_total{backend=,outcome=ok|failed}``
"""

from __future__ import annotations

import time

from repro.core.request import Instance
from repro.core.schedule import ScheduleError
from repro.opt.brute import solve_brute
from repro.opt.decode import OptResult, OptValidationError, decode_solution
from repro.opt.model import compile_model
from repro.telemetry.recorder import Recorder, get_recorder

__all__ = [
    "BACKENDS",
    "resolve_backend",
    "solve_opt",
]

#: Every selectable backend.
BACKENDS: tuple[str, ...] = ("brute",)


def resolve_backend(backend: str | None = None) -> str:
    """Normalize a backend selection to a registry name.

    ``None`` and ``"auto"`` resolve to ``brute``.
    """
    if backend is None or backend == "auto":
        return "brute"
    if backend not in BACKENDS:
        raise ValueError(
            f"unknown opt backend {backend!r}; expected one of "
            f"{list(BACKENDS)} (or 'auto')"
        )
    return backend


def solve_opt(
    instance: Instance,
    m: int,
    *,
    backend: str | None = None,
    horizon: int | None = None,
    max_states: int = 2_000_000,
    engine: str = "reference",
    telemetry: "Recorder | None" = None,
) -> OptResult:
    """Exact offline optimum of ``instance`` with ``m`` resources, validated.

    Compiles the instance (:func:`repro.opt.model.compile_model`), runs
    the DP, then decodes and validates the solution through the
    independent checker and digest authority
    (:func:`repro.opt.decode.decode_solution`).  ``engine`` selects the
    replay engine for the validation pass only.
    """
    telem = telemetry if telemetry is not None else get_recorder()
    name = resolve_backend(backend)
    model = compile_model(instance, m, horizon=horizon)

    start = time.perf_counter()
    solution = solve_brute(model, max_states=max_states)
    telem.observe(
        "repro_opt_solve_seconds", time.perf_counter() - start, backend=name
    )
    telem.count("repro_opt_solves_total", backend=name)
    telem.count("repro_opt_states_total", solution.states, backend=name)

    try:
        result = decode_solution(model, solution, engine=engine)
    except (OptValidationError, ScheduleError):
        telem.count(
            "repro_opt_validations_total", backend=name, outcome="failed"
        )
        raise
    telem.count("repro_opt_validations_total", backend=name, outcome="ok")
    return result
