"""T1-row4 — ``AWave`` vs ``AGrid``: the energy/makespan trade-off.

Reproduces the last row of Table 1 plus the Thm 6 construction:

* on a multi-cell corridor both algorithms wake everyone; each stays
  within its energy budget (``Θ(ell^2 log ell)`` vs ``Θ(ell^2)``);
* the Thm 5 vs Thm 4 shapes: ``AWave``'s makespan is ``O(xi + ell^2
  log(xi/ell))`` while ``AGrid`` pays ``Θ(ell * xi)`` — we report the
  measured per-xi rates, whose ratio must beat ``1/ell`` asymptotically
  (who-wins: AWave for large ``xi``);
* the Thm 6 rectilinear instance: measured makespans dominate the
  ``Ω(xi)`` prediction.
"""

from repro.core.awave import awave_cell_width
from repro.core.registry import get_algorithm
from repro.core.runner import RunRequest, run_agrid
from repro.experiments import print_table, run_requests
from repro.instances import beaded_path, rectilinear_path


def test_bench_awave_vs_agrid(once):
    ell = 4
    # Corridor spanning >1 wave cell (cell width 256 for ell=4).
    inst = beaded_path(n=110, spacing=3.5)
    assert inst.rho_star > awave_cell_width(ell) / 2.0
    specs = [get_algorithm(name) for name in ("awave", "agrid")]
    requests = [
        RunRequest(
            algorithm=spec.name,
            family="beaded_path",
            family_kwargs={"n": 110, "spacing": 3.5},
            params={"ell": ell},
        )
        for spec in specs
    ]

    wave, grid = once(run_requests, requests)
    xi = inst.xi(ell)
    rows = [
        {
            "algorithm": spec.label,
            "xi": xi,
            "makespan": record["makespan"],
            "makespan/xi": record["makespan"] / xi,
            "max_energy": record["max_energy"],
            "energy_budget": spec.energy_budget(ell),
            "woke_all": record["woke_all"],
        }
        for spec, record in zip(specs, (wave, grid))
    ]
    print_table(rows, "\nT1-row4: AWave vs AGrid on a multi-cell corridor (ell=4)")
    assert wave["woke_all"] and grid["woke_all"]
    # Both registered budgets (Θ(ell^2 log ell) vs Θ(ell^2)) are honoured.
    for row in rows:
        assert row["max_energy"] <= row["energy_budget"]
    # Energy trade-off from Table 1: AWave spends more energy per robot
    # (Θ(ell^2 log ell) > Θ(ell^2)) to buy a better makespan rate.
    print(
        f"measured energy ratio awave/agrid = "
        f"{wave['max_energy'] / grid['max_energy']:.2f}"
    )
    # And the registry flags agree: both are budget-capable distributed
    # algorithms (what lets `enforce_budget` sweeps enumerate them).
    assert all(s.kind == "distributed" and s.supports_budget for s in specs)


def test_bench_theorem6_construction(once):
    """Thm 6: prescribed-xi instances; makespan >= Omega(xi)."""

    def run_construction():
        rows = []
        for xi in (30.0, 60.0):
            path = rectilinear_path(ell=1.0, rho=25.0, budget=4.0, xi=xi)
            inst = path.instance()
            run = run_agrid(inst, ell=1)
            rows.append(
                {
                    "xi_prescribed": xi,
                    "xi_measured": inst.xi(1.0),
                    "makespan": run.makespan,
                    "omega(xi)/4": path.makespan_lower_bound(),
                    "woke_all": run.woke_all,
                }
            )
        return rows

    rows = once(run_construction)
    print_table(rows, "\nT1-row4(b): Thm 6 rectilinear construction under AGrid")
    for row in rows:
        assert row["woke_all"]
        assert row["makespan"] >= row["omega(xi)/4"]
        assert row["xi_measured"] >= 0.8 * row["xi_prescribed"]
    # Makespan grows with the prescribed xi.
    assert rows[1]["makespan"] > rows[0]["makespan"]
