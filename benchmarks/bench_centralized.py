"""LEM2 + solver ablation — centralized wake-up schedules.

Lemma 2 needs a centralized schedule with makespan ``O(R)``; this
implementation replaces [BCGH24]'s ``5*sqrt(2)*R'`` by the quadtree
strategy of ``repro.centralized.quadtree`` (certified ``8*sqrt(2)*R``).  This bench measures the actual
constant and compares the shipped solvers (ablation: quadtree vs greedy vs
chain vs exact-on-micro-instances).
"""

import random

from repro.centralized import (
    QUADTREE_MAKESPAN_FACTOR,
    chain_schedule,
    exact_makespan,
    greedy_schedule,
    quadtree_schedule,
)
from repro.experiments import print_table
from repro.geometry import Point, Rect


def _cloud(n, width, seed):
    rng = random.Random(seed)
    return [
        Point(rng.uniform(0, width), rng.uniform(0, width)) for _ in range(n)
    ]


def test_bench_quadtree_constant(once):
    width = 100.0
    region = Rect(0, 0, width, width)

    def sweep():
        rows = []
        for n, seed in ((50, 1), (200, 2), (800, 3)):
            pts = _cloud(n, width, seed)
            root = region.center
            q = quadtree_schedule(root, pts, region=region)
            g = greedy_schedule(root, pts) if n <= 200 else None
            c = chain_schedule(root, pts)
            rows.append(
                {
                    "n": n,
                    "quadtree/R": q.makespan() / width,
                    "greedy/R": g.makespan() / width if g else float("nan"),
                    "chain/R": c.makespan() / width,
                    "certified": QUADTREE_MAKESPAN_FACTOR,
                }
            )
        return rows

    rows = once(sweep)
    print_table(rows, "\nLEM2: centralized makespan / square width")
    for row in rows:
        # Certified O(R) bound holds with a large margin.
        assert row["quadtree/R"] <= QUADTREE_MAKESPAN_FACTOR
        # Who wins: branching beats the no-branching chain, and the gap
        # widens with n (chain is Θ(n R), quadtree O(R)).
        assert row["quadtree/R"] < row["chain/R"]
    assert rows[-1]["chain/R"] / rows[-1]["quadtree/R"] > 4.0


def test_bench_approximation_ratio(once):
    """Quadtree and greedy vs the exact optimum on micro-instances."""

    def sweep():
        rng = random.Random(0)
        worst_q, worst_g = 1.0, 1.0
        for _ in range(30):
            n = rng.randint(2, 6)
            pts = [
                Point(rng.uniform(-10, 10), rng.uniform(-10, 10))
                for _ in range(n)
            ]
            opt = exact_makespan(Point(0, 0), pts)
            if opt <= 1e-9:
                continue
            worst_q = max(
                worst_q, quadtree_schedule(Point(0, 0), pts).makespan() / opt
            )
            worst_g = max(
                worst_g, greedy_schedule(Point(0, 0), pts).makespan() / opt
            )
        return worst_q, worst_g

    worst_q, worst_g = once(sweep)
    print(
        f"\nLEM2 ablation: worst approx ratio vs exact — "
        f"quadtree {worst_q:.2f}, greedy {worst_g:.2f}"
    )
    assert worst_q < 4.0
    assert worst_g < 3.0
