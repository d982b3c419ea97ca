"""Design-choice ablations (``repro.experiments.ablations``).

* distribution gap — the measurable price of the discovery problem;
* centralized-solver choice inside ``ASeparator`` terminations;
* online-extension competitive ratios vs the [BW20] benchmark constant.

The gap and solver ablations run their simulations through the sweep
harness (:func:`repro.experiments.run_requests`); pass ``workers`` to the
underlying functions to parallelise larger configs.
"""

from repro.centralized.online import BW20_COMPETITIVE_RATIO
from repro.experiments import print_table
from repro.experiments.ablations import (
    distribution_gap,
    online_competitiveness,
    solver_choice,
)


def test_bench_distribution_gap(once):
    rows = once(distribution_gap)
    print_table(rows, "\nABLATION: clairvoyant vs distributed makespan")
    for row in rows:
        assert row["woke_all"]
        # Discovery costs: the distributed run is strictly slower, but by
        # a bounded factor at these scales (the ell^2 log term).
        assert row["gap"] > 1.0
        assert row["gap"] < 200.0


def test_bench_solver_choice(once):
    rows = once(solver_choice)
    print_table(rows, "\nABLATION: ASeparator termination solver (Lemma 2 role)")
    for row in rows:
        # Both solvers complete; greedy usually wins on constants, but
        # must stay in the same ballpark (it has no worst-case guarantee).
        assert 0.5 <= row["greedy/quadtree"] <= 1.5


def test_bench_online_ratio(once):
    rows = once(online_competitiveness)
    print_table(rows, "\nEXTENSION: online Freeze Tag competitive ratios")
    print(f"[BW20] optimal online ratio: {BW20_COMPETITIVE_RATIO:.3f}")
    for row in rows:
        assert row["mean_ratio"] >= 1.0
        assert row["max_ratio"] <= 6.0
