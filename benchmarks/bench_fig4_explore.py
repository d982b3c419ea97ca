"""FIG4 / LEM1 — the exploration procedure and its ``O(wh/k + w + h)`` time.

Reproduces Figure 4's two panels as measurements: (a) the single-robot
boustrophedon, (b) the ``k``-strip team split, including an ablation of
the snapshot spacing.
"""

from repro.experiments import exploration_scaling, print_table
from repro.metrics import fit_linear_combination


def test_bench_exploration_scaling(once):
    def sweep():
        return exploration_scaling(
            shapes=((8, 8), (16, 8), (16, 16), (24, 16)),
            team_sizes=(1, 2, 4, 8),
        )

    rows = once(sweep)
    print_table(rows, "\nFIG4: team exploration time vs Lemma 1 feature")
    # Measured time within the certified bound, always.
    assert all(r["time"] <= r["bound"] for r in rows)
    # The Lemma 1 feature explains the series (shape fit).
    fit = fit_linear_combination(
        [(r["wh/k+w+h"],) for r in rows],
        [r["time"] for r in rows],
        ("wh/k+w+h",),
    )
    print("Lemma 1 fit:", fit.describe())
    assert fit.r2 > 0.95
    # Teamwork monotonicity: more robots never slow exploration down.
    by_shape = {}
    for r in rows:
        by_shape.setdefault((r["w"], r["h"]), []).append(r)
    for shape_rows in by_shape.values():
        shape_rows.sort(key=lambda r: r["k"])
        times = [r["time"] for r in shape_rows]
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))


def test_bench_snapshot_density_ablation(once):
    """Ablation: halving the snapshot spacing roughly doubles path length.

    The sqrt(2) spacing is exactly what radius-1 visibility permits —
    denser snapshots only waste travel.
    """
    from repro.core.explore import exploration_stops
    from repro.geometry import Rect, distance

    def measure():
        rect = Rect(0, 0, 16, 16)
        sqrt2_stops = exploration_stops(rect)
        # A denser lattice: half spacing => ~4x the stops.
        dense = exploration_stops(Rect(0, 0, 32, 32))
        sqrt2_path = sum(
            distance(a, b) for a, b in zip(sqrt2_stops, sqrt2_stops[1:])
        )
        dense_path = sum(distance(a, b) for a, b in zip(dense, dense[1:])) / 2.0
        return sqrt2_path, dense_path

    sqrt2_path, dense_path = once(measure)
    print(
        f"\nFIG4 ablation: sqrt(2)-lattice path = {sqrt2_path:.1f}, "
        f"half-spacing path = {dense_path:.1f} "
        f"({dense_path / sqrt2_path:.2f}x)"
    )
    assert dense_path > 1.6 * sqrt2_path
