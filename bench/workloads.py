"""Benchmark workloads: experiment configs run through ``run_experiment``.

Each workload is an ``ExperimentConfig`` (given here as keyword
arguments) plus the accuracy gate its repetitions must pass. The seed
argument of the benchmark is the only source of variation: it becomes
``base_seed`` (noise and minibatch streams) and ``spec_seed`` (the problem
instance), except for workloads that fix their instance for the reasons
given next to the constants below.

This module imports nothing from the package, so the orchestrator can
read it without paying the package's import time.
"""

from dataclasses import dataclass
from typing import Optional

# Candidate percentiles for the UL-iteration tail: the tail is the highest
# of these that keeps at least TAIL_MIN_ABOVE samples above it.
TAIL_PERCENTILES = (99, 95, 90, 80, 75)
TAIL_MIN_ABOVE = 10

# Fewest workload processes in a run of the benchmark; it also sets the
# smallest sample count the tail percentile is chosen for.
MIN_PROCS = 4

# The criterion-03 instance (spec seed 42, initial point seed 43). The
# adaptive J/K rule makes the work depend on the instance (spec seed 7
# does 17% more lower-level steps than seed 42 at 160 iterations), so a
# seed-driven instance would move every timing with the seed; the
# workload is deterministic, so the seed changes nothing.
CRITERION_03_SPEC_SEED = 42

# Fixed quartic instance. Under Decaying(0.3, 0.2, 0.1) with J=2, K=5 some
# 150-dim quartic instances miss the 1e-2 gap gate after 20 iterations
# (spec seeds 2, 3, 8) and one diverges (spec seed 10: non-finite
# lower-level gradient), so a seed-driven instance would make the
# benchmark fail on seeds that say nothing about speed. Instance 42 passes
# with margin; the workload is deterministic, so the seed changes nothing.
QUARTIC_SPEC_SEED = 42

# Fixed adv-hpt split seed. The split decides whether the AD engine's
# guarded Neumann series truncates: on splits where it does (e.g. seeds 0,
# 5, 42, 99) an upper-level iteration costs ~20 ms instead of ~160 ms, so
# a split that followed the benchmark seed would make the workload bimodal
# across seeds. Split 7 never truncated over the minibatch seeds tried, so
# the nested Neumann cost the workload exists to measure stays in view.
ADVHPT_SPLIT_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # gates: each repetition must meet every one that is set
    gap_max: Optional[float] = None  # |f(x_I) - f*| / |f(x_0) - f*| <= gap_max
    gap_below: Optional[float] = None  # same ratio, strictly below
    f2_drop_min: Optional[float] = None  # (f2[0] - f2[-1]) / |f2[0]| >= f2_drop_min
    test_rows: Optional[int] = None  # finite noisy_test.csv rows per repetition
    fixed_spec_seed: Optional[int] = None

    def experiment_kwargs(self, seed: int) -> dict:
        spec_seed = seed if self.fixed_spec_seed is None else self.fixed_spec_seed
        return dict(self.config, spec_seed=spec_seed, base_seed=seed)

    @property
    def samples_per_proc(self) -> int:
        return self.config["ul_iters"] * self.config["repetitions"]

    @property
    def tail_percentile(self) -> int:
        """Highest listed percentile that keeps TAIL_MIN_ABOVE samples above
        it at the fewest samples a run can have."""
        n = MIN_PROCS * self.samples_per_proc
        for pct in TAIL_PERCENTILES:
            if n * (100 - pct) >= 100 * TAIL_MIN_ABOVE:
                return pct
        raise ValueError(f"{self.name}: {n} samples are too few for a tail percentile")


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            name="quad-adaptive-H",
            why="criterion-03 quadratic 10/10/10 with adaptive J/K on the dense H engine: "
                "the lower-level SG loop dominates, LU is cached, no noise, CG or Neumann",
            config=dict(
                problem="quadratic", n=10, m=10, t=10, engine="H", mode="deterministic",
                schedule="decaying", alpha_bar=0.3, beta_bar=0.2, gamma_bar=0.1,
                ul_iters=160, adaptive=True, repetitions=1,
            ),
            gap_max=1e-2,
            fixed_spec_seed=CRITERION_03_SPEC_SEED,
        ),
        Workload(
            name="quad-noisy-NFD",
            why="stochastic quadratic 10/10/10 on the NFD engine: the only run through the "
                "Gaussian-noise oracle and CG, whose solves nearly all end at the cap under noise",
            # CG capped at the dimension: at the default cap of 10*dim the
            # solves end on curvature exits at random iterations, and the
            # run time follows the seed 2-3x (see README.md). So no workload
            # runs the default cap.
            config=dict(
                problem="quadratic", n=10, m=10, t=10, engine="NFD", mode="stochastic",
                std_grad=0.1, std_hess=0.01, cg_max_iters=10,
                schedule="decaying", alpha_bar=0.3, beta_bar=0.2, gamma_bar=0.1,
                ul_iters=25, j0=2, k0=5, adaptive=False, repetitions=1,
            ),
            gap_below=1.0,
        ),
        Workload(
            name="advhpt-minibatch-AD",
            why="adv-hpt on the bundled CSV with minibatch 64 on the AD engine: nested Neumann "
                "series over a 700-dim lower level, minibatch draws and the noisy-test pass",
            config=dict(
                problem="adv-hpt", engine="AD", neumann_q=30, mode="stochastic", minibatch=64,
                schedule="decaying", alpha_bar=0.1, beta_bar=0.01, gamma_bar=0.1,
                ul_iters=10, j0=2, k0=5, adaptive=False, repetitions=2,
                noise_test_realizations=100,
            ),
            f2_drop_min=0.2,
            test_rows=100,
            fixed_spec_seed=ADVHPT_SPLIT_SEED,
        ),
        Workload(
            name="quartic-wide-H",
            why="quartic 150/150/150 on the H engine: Python-loop LU on fresh Hessians "
                "(cache always misses), third-order contractions and a large spec.json echo",
            config=dict(
                problem="quartic", n=150, m=150, t=150, engine="H", mode="deterministic",
                schedule="decaying", alpha_bar=0.3, beta_bar=0.2, gamma_bar=0.1,
                ul_iters=20, j0=2, k0=5, adaptive=False, repetitions=2,
            ),
            gap_max=1e-2,
            fixed_spec_seed=QUARTIC_SPEC_SEED,
        ),
    ]
}

# Header of run_<r>.csv as documented in README.md.
RUN_CSV_HEADER = "run_id,i,cum_ml,cum_ll,wall_s,f1,f2,f3,gnorm,J,K,alpha,beta,gamma"
