"""Shared plumbing for the benchmark: paths, host facts, stats, processes.

Every workload module imports this first.  It locates the checkout the
benchmark runs in (the parent of this directory), puts its ``src`` on
``sys.path`` so ``repro`` imports from source, and refuses to go on when
the checkout has no ``src/repro`` package.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
#: working files (journals, port files, caches and span dumps); one
#: fresh subdirectory per run, removed when the run ends.
WORK_ROOT = ROOT / ".perfbench"

#: a traced run's per-layer self times must sum to its end-to-end time
#: within this share of the end-to-end time.
SUM_TOLERANCE = 0.05

#: ``PERFBENCH_SMOKE=1`` shrinks every workload to a few seconds, for the
#: benchmark's own smoke test; the figures then mean nothing.
SMOKE = os.environ.get("PERFBENCH_SMOKE") == "1"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a child failed)."""


def require_sources() -> None:
    """Put ``src`` on ``sys.path``; raise when the package is absent."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(
            f"no repro sources under {SRC}; run from a full checkout"
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env(work: Path) -> dict:
    """Environment for every process the benchmark starts."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    # A fresh, empty result cache per run: no run may time a cache hit.
    env["REPRO_CACHE_DIR"] = str(work / "cache")
    env.pop("REPRO_FAULT_PLAN", None)
    return env


def make_workdir(workload: str) -> Path:
    work = WORK_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)
    os.environ["REPRO_CACHE_DIR"] = str(work / "cache")
    return work


def remove_workdir(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    try:
        WORK_ROOT.rmdir()  # only when no other run is using it
    except OSError:
        pass


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host() -> dict:
    return {
        "cpus": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": git_sha(),
    }


# -- statistics ---------------------------------------------------------------


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def quantile(values, q: float) -> float:
    """Nearest-rank quantile (0 < q <= 1), the repo's latency convention."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("quantile of no samples")
    rank = max(1, -(-len(ordered) * q // 1))
    return ordered[int(rank) - 1]


def latency_stats(samples: list[float]) -> dict:
    """p50/p90 in milliseconds plus the sample count behind them."""
    p90 = quantile(samples, 0.90)
    return {
        "p50_ms": quantile(samples, 0.50) * 1e3,
        "p90_ms": p90 * 1e3,
        "samples": len(samples),
        "beyond_p90": sum(1 for s in samples if s > p90),
    }


# -- calibration ----------------------------------------------------------------

#: what one :func:`probe` takes, in seconds, on the reference CPU: the
#: median on the 2-CPU Xeon host the benchmark was written on.  Every
#: reported time is scaled to that CPU: raw seconds × PROBE_REFERENCE_S /
#: the probe time measured on the same CPU next to the work.
PROBE_REFERENCE_S = 0.003


def probe(iterations: int = 20_000) -> float:
    """Seconds a fixed pure-Python kernel takes on this CPU right now,
    expressed for the full 20 000 iterations.

    The host's CPU speed drifts by tens of percent over seconds to
    minutes (shared hardware); timing this kernel next to the measured
    work tells how fast the CPU was while the work ran.  The kernel uses
    no repository code, so no change to the program moves it.
    """
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for i in range(iterations):
        key = i % 257
        table[key] = table.get(key, 0) + i
        acc += (i * 31) % 17
    sorted(table.values())
    return (time.perf_counter() - start) * 20_000 / iterations


class Calibrator:
    """Scales raw timings measured between two probes to the reference CPU.

    Call :meth:`scale` right after each measured segment (a few hundred
    milliseconds at most, so the CPU speed cannot drift far within it);
    it probes again and returns the factor for that segment.
    """

    def __init__(self) -> None:
        self.last = probe()
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def rebase(self) -> None:
        """Probe now: the next segment starts here."""
        self.last = probe()

    @property
    def mean_factor(self) -> float:
        return ratio(self.scaled_s, self.raw_s)

    def scale(self, raw_s: float = 0.0) -> float:
        current = probe()
        factor = PROBE_REFERENCE_S / ((self.last + current) / 2)
        self.last = current
        self.raw_s += raw_s
        self.scaled_s += raw_s * factor
        return factor


def pin_to_one_cpu() -> int:
    """Pin this process, and every process it starts, to one CPU.

    The probe must run on the CPU the measured code runs on; the host's
    CPUs drift independently of each other.
    """
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class Sampler:
    """Probes the CPU from a timer signal while one long call runs.

    For work that cannot be split into short segments (one exact solve
    can take seconds), a short probe (a fifth of :func:`probe`) runs
    every 50 ms on the main thread, interrupting the work;
    :meth:`scaled` removes the probes' own time from an interval and
    scales the rest by the probes taken inside it.
    """

    PERIOD_S = 0.05

    def __init__(self) -> None:
        self.probes: list[tuple[float, float, float]] = []  # start, spent, probe

    def _on_alarm(self, signum, frame) -> None:
        start = time.perf_counter()
        value = probe(4_000)
        self.probes.append((start, time.perf_counter() - start, value))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD_S, self.PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scaled(self, start: float, end: float) -> float:
        """Reference-CPU seconds of the work done in ``[start, end]``."""
        if not self.probes:  # shorter than one period: probe after it
            self._on_alarm(None, None)
        inside = [p for p in self.probes if start <= p[0] < end]
        if not inside:
            before = [p for p in self.probes if p[0] < end]
            inside = before[-1:] or self.probes[:1]
        spent = sum(p[1] for p in inside if start <= p[0] < end)
        speed = sum(p[2] for p in inside) / len(inside)
        return (end - start - spent) * PROBE_REFERENCE_S / speed


# -- processes and memory -----------------------------------------------------


def peak_rss_mib(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of one process, MiB; 0 if gone."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return 0.0


def children_of(pid: int) -> list[int]:
    """Direct child pids of ``pid`` (scans ``/proc``)."""
    kids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        # The command name may hold spaces; fields resume after ")".
        fields = stat[stat.rfind(")") + 2 :].split()
        if len(fields) > 1 and int(fields[1]) == pid:
            kids.append(int(entry.name))
    return kids


def tree_peak_rss_mib(pid: int) -> float:
    """Summed peak RSS of ``pid`` and its direct children, MiB."""
    return peak_rss_mib(pid) + sum(peak_rss_mib(k) for k in children_of(pid))


def run_child(args: list[str], work: Path, timeout: float) -> dict:
    """Run ``python3 <args>`` and parse the JSON object it prints last."""
    proc = subprocess.run(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(work),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise BenchError(
            f"child {' '.join(args)} exited {proc.returncode}:\n"
            + proc.stderr[-4000:]
        )
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"child {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def emit(payload: dict) -> None:
    """A child's only output: one JSON line on stdout."""
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


def fresh_heap() -> None:
    """Collect garbage before a timed phase so earlier work is not billed."""
    gc.collect()


now = time.perf_counter
