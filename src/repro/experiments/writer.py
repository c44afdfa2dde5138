"""Regenerate EXPERIMENTS.md from a full-scale run of the suite.

Usage::

    python -m repro.experiments.writer [output-path]

Takes about 25 s on a 2-CPU host.  Every table is a pure function of the
code, so CI regenerates the file and fails on any difference.
"""

from __future__ import annotations

import io
import sys
import time

from repro.experiments import EXPERIMENTS, run_experiment

PREAMBLE = """\
# EXPERIMENTS — paper vs. measured

**Substitution note.** The paper (Plaxton, Sun, Tiwari, Vin, IPPS 2007) is a
theory paper: it contains **no tables, no figures, and no experimental
evaluation** — its evaluation artifacts are 3 theorems, 17 lemmas/corollaries
and 2 appendix lower-bound constructions with closed-form cost ratios.  Per
the reproduction ground rules, each provable claim is therefore reproduced as
a measured experiment on synthetic workloads (the experiment suite plays the
role of the paper's tables; DESIGN.md §4 is the index).  The two appendices
define concrete adversarial input families — those we reproduce *exactly*,
including the offline opponent strategies, which are emitted as explicit
schedules and re-validated by the independent checker before their costs are
used.

Every table below is regenerated by `repro all --scale full` (or one
experiment at a time with `repro experiment E1 --scale full`).  This file
itself is regenerated by `python -m repro.experiments.writer`, and CI
regenerates it on every push and fails on any difference.

**Determinism guarantee.** The suite runs through the parallel engine
(`repro.experiments.runner`): every table is a pure function of
`(experiment, scale)` — `repro all --jobs N` is byte-identical to `--jobs 1`
at any worker count, pinned by `tests/experiments/test_runner_determinism.py`.

## Claim-by-claim summary

| Exp | Paper claim | Expected shape | Measured (full scale) |
|---|---|---|---|
| E1 | Appendix A: DeltaLRU not resource competitive; ratio Omega(2^(j+1)/(n Delta)) | ratio doubles per unit j | ratio 2.22 -> 228.0 over j=2..9, within 12% of the closed form at every j |
| E2 | Appendix B: EDF not resource competitive; ratio 2^(k-j-1)/(n/2+1) | ratio doubles per unit k | ratio 2.0 -> 44.0 over k=4..10, 1.67x per step converging to the 2x asymptote |
| E3 | Theorem 1: DeltaLRU-EDF constant competitive at n=8m (rate-limited batched) | bounded ratio vs exact OPT | max ratio 1.30, mean 1.02, across 12 seeds (far below the analysis constant) |
| E4 | The EDF+LRU combination survives both adversaries | flat ratio where each pure policy blows up | dlru-edf <= 2.0 on both families while dlru hits 228.0 and edf 44.0 |
| E5 | Lemma 3.2: eligible drops <= OFF drop cost | inequality holds on every run | holds on all 20 runs (witnessed via the Par-EDF floor on the eligible subsequence) |
| E6 | Lemmas 3.3/3.4 + Corollary 3.2: the epoch-amortized bounds | inequalities hold on every run | all three hold on all 20 runs (epoch/super-epoch overlap observed: 2, bound 3) |
| E7 | Lemma 3.10 + Cor 3.1 drop-cost chain (m = n/8) | chain holds on every run | holds on all 20 runs |
| E8 | Theorem 2: Distribute resource competitive (batched) | bounded ratio bracket | ratio_high 0.85-1.68 across 8 seeds |
| E9 | Theorem 3: VarBatch resource competitive (general) | bounded ratio bracket | ratio_high 0.75-10.8 across 16 runs (the 10.8 is bursty seed 7, whose lower bound is loosest) |
| E10 | Intro scenario: naive policies thrash or underutilize | combination dominates both failure modes | dlru-edf (760) beats static (1120), greedy (6224) and dlru (1640); on this benign rotation EDF (728) and classic LRU (660) edge ahead (E2 shows EDF's collapse) |
| E11 | Resource augmentation helps then flattens | ratio non-increasing in n | ratio 1.37 -> 1.31 -> 0.11, flat from n/m = 16 on |
| E13 | (panorama) every policy on every workload family | no policy dominates benign traces | static wins 4 of 5 families and classic LRU wins bursty; dlru-edf stays within 2.8x of every winner, while its pure halves lose 44x+ on their adversarial families (E4) |
| E14 | (figure-shape) online cumulative cost vs offline floor over time | bounded prefix ratio throughout | prefix ratio 0.57-0.78 at every checkpoint after round 0 on a bursty trace (online n=16 stays under the m=2 floor) |
| A1 | Design choice: the half/half LRU/EDF split | balanced split competitive with best extreme | half/half (1439) within 1.8x of the best extreme (pure LRU, 803) |
| A2 | Design choice: two-location replication | analysis-required, capacity-costly | unreplicated never worse here (capacity binds); replication is load-bearing in the proof, not the average case |
| A3 | Design choice: VarBatch layer cost | bounded constant-factor overhead | overhead 0.96-1.33x on batched input across 8 seeds |
| A4 | Extension: direct unbatched heuristic vs the pipeline | each wins its regime | the heuristic wins every bursty trace (direct/pipeline 0.19-0.40, it keeps the jobs' full slack); on steady poisson traffic the pipeline wins 6 of 8 seeds (direct/pipeline up to 2.45) |
| A5 | Extension: per-color drop costs (the companion variant's c_l field) | value-at-stake eligibility wins under skew, coincides at skew 0 | identical at uniform weights; wins on every seed at the strongest skew, advantage growing with skew |

Notes on fidelity:

- The appendix ratios match the closed forms almost exactly because both the
  adversarial inputs and the offline opponents are implemented verbatim
  (E1's measured/theory gap is the additive `n*Delta + 2^k` vs `2^k`
  numerator term and vanishes as j grows).
- Theorem-level ratios sit far below the (large, unoptimized) constants of
  the paper's analysis — expected: the analysis charges worst-case credit.
- Lemma 3.10 is stated in the paper with "n = 4m, i.e., 2m = n/4", which is
  internally inconsistent; we verify the reading consistent with Theorem 1
  (m = n/8), under which the chain holds on every run and under hypothesis
  property testing (see tests/properties/test_policy_properties.py).
- Corollary 3.1 (DS-Seq-EDF vs Par-EDF) requires the *rate-limited* setting
  and ungated eligibility, both confirmed by falsifying examples hypothesis
  finds when either precondition is dropped.

## Full measured tables

"""


def write_experiments_md(path: str = "EXPERIMENTS.md", scale: str = "full") -> None:
    out = io.StringIO()
    out.write(PREAMBLE)
    for eid in EXPERIMENTS:
        started = time.time()
        result = run_experiment(eid, scale)
        out.write(result.render())
        out.write("\n\n")
        status = "ok" if result.all_passed else "FAIL"
        print(f"{eid}: {status} ({time.time() - started:.1f}s)", flush=True)
    with open(path, "w") as fh:
        fh.write(out.getvalue())


if __name__ == "__main__":
    write_experiments_md(sys.argv[1] if len(sys.argv) > 1 else "EXPERIMENTS.md")
