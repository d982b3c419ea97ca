"""T1-row3 — ``AGrid``: makespan ``O(ell * xi_ell)``, energy ``Θ(ell^2)``.

Reproduces the optimal-energy row of Table 1 on corridor instances where
``xi_ell`` is controlled directly:

* ``makespan / xi`` stays flat while ``xi`` grows 8x (the ``ell * xi``
  shape);
* max per-robot energy is independent of ``xi`` and below the enforceable
  ``Θ(ell^2)`` budget.
"""

from repro.core.registry import get_algorithm
from repro.core.runner import RunRequest
from repro.experiments import agrid_xi_sweep, print_table, run_requests
from repro.metrics import fit_power_law


def test_bench_agrid_xi_scaling(once):
    def sweep():
        return agrid_xi_sweep(lengths=(10, 20, 40, 80), spacing=1.0)

    rows = once(sweep)
    print_table(rows, "\nT1-row3: AGrid makespan vs xi (ell = 1 corridors)")
    assert all(r["woke_all"] for r in rows)
    # Shape: makespan linear in xi.
    _, slope, r2 = fit_power_law(
        [r["xi"] for r in rows], [r["makespan"] for r in rows]
    )
    print(f"log-log slope = {slope:.3f} (expect ~1), r2 = {r2:.4f}")
    assert 0.85 <= slope <= 1.15
    # Energy: flat in xi and within the Theorem 4 budget.
    energies = [r["max_energy"] for r in rows]
    assert max(energies) <= get_algorithm("agrid").energy_budget(rows[0]["ell"])
    assert max(energies) <= 2.0 * min(energies) + 10.0


def test_bench_agrid_ell_energy(once):
    """Max energy grows with ell (Θ(ell^2) budget) but not with xi."""

    requests = [
        RunRequest(
            algorithm="agrid",
            family="beaded_path",
            family_kwargs={"n": 24, "spacing": float(ell)},
            params={"ell": ell},
        )
        for ell in (1, 2, 3)
    ]

    def sweep():
        return [
            {
                "ell": r["ell"],
                "xi": r["xi_ell"],
                "makespan": r["makespan"],
                "max_energy": r["max_energy"],
                "energy_budget": get_algorithm("agrid").energy_budget(r["ell"]),
                "woke_all": r["woke_all"],
            }
            for r in run_requests(requests)
        ]

    rows = once(sweep)
    print_table(rows, "\nT1-row3(b): AGrid max energy vs ell")
    for row in rows:
        assert row["max_energy"] <= row["energy_budget"]
    assert rows[-1]["energy_budget"] > rows[0]["energy_budget"]
