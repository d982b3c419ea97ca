"""T1-row1 — ``ASeparator``: makespan ``O(rho + ell^2 log(rho/ell))``.

Reproduces the unconstrained-energy row of Table 1:

* sweep makespan vs ``rho`` at pinned ``ell`` (beaded paths) — expect a
  near-flat ``makespan/rho`` column (the ``rho`` term dominates);
* sweep makespan vs ``ell`` at fixed ``rho`` — expect growth tracking
  ``ell^2 log(rho/ell)``;
* fit the Thm 1 template over the union and report the coefficients.
"""

from repro.core.registry import get_algorithm
from repro.core.runner import RunRequest
from repro.experiments import (
    aseparator_ell_sweep,
    print_table,
    run_requests,
)
from repro.metrics import fit_linear_combination, fit_power_law


def test_bench_rho_scaling(once):
    requests = [
        RunRequest(
            algorithm="aseparator",
            family="beaded_path",
            family_kwargs={"n": n, "spacing": 1.0},
        )
        for n in (8, 16, 32, 64)
    ]

    def sweep():
        records = run_requests(requests)
        return [
            {
                "rho": r["rho_star"],
                "ell": r["ell"],
                "makespan": r["makespan"],
                "makespan/rho": r["makespan"] / r["rho_star"],
                "woke_all": r["woke_all"],
            }
            for r in records
        ]

    rows = once(sweep)
    print_table(rows, "\nT1-row1(a): ASeparator makespan vs rho (ell pinned = 1)")
    assert all(r["woke_all"] for r in rows)
    # Shape: linear in rho — power-law exponent ~1.
    _, slope, r2 = fit_power_law(
        [r["rho"] for r in rows], [r["makespan"] for r in rows]
    )
    print(f"log-log slope = {slope:.3f} (expect ~1), r2 = {r2:.4f}")
    assert 0.8 <= slope <= 1.2
    assert r2 > 0.98


def test_bench_ell_scaling(once):
    def sweep():
        return aseparator_ell_sweep(ells=(1, 2, 3, 4, 6))

    rows = once(sweep)
    print_table(rows, "\nT1-row1(b): ASeparator makespan vs ell (lattice, rho ∝ ell)")
    assert all(r["woke_all"] for r in rows)
    # Shape: Thm 1 predicts a*ell + b*ell^2*log — a log-log slope strictly
    # between linear and quadratic, and an excellent two-term fit.
    _, slope, r2_slope = fit_power_law(
        [r["ell"] for r in rows], [r["makespan"] for r in rows]
    )
    print(f"log-log slope = {slope:.3f} (expect 1 < slope < 2), r2 = {r2_slope:.4f}")
    assert 1.1 < slope < 2.1
    fit = fit_linear_combination(
        [(r["rho"], r["ell2log"]) for r in rows],
        [r["makespan"] for r in rows],
        ("rho", "ell^2*log(rho/ell)"),
    )
    print("Thm 1 template fit:", fit.describe())
    assert fit.r2 > 0.95


def test_bench_solver_variants(once):
    """Every registered termination solver (the Lemma 2 ablation knob).

    The variant list comes from the registry schema — a newly registered
    solver choice joins this row with no benchmark edit.
    """
    choices = get_algorithm("aseparator").param("solver").choices
    requests = [
        RunRequest(
            algorithm="aseparator",
            family="uniform_disk",
            family_kwargs={"n": 40, "rho": 8.0, "seed": 0},
            params={"solver": solver},
        )
        for solver in choices
    ]

    records = once(run_requests, requests)
    rows = [
        {
            "variant": r["algorithm"],
            "makespan": r["makespan"],
            "max_energy": r["max_energy"],
            "woke_all": r["woke_all"],
        }
        for r in records
    ]
    print_table(rows, "\nT1-row1(c): ASeparator termination-solver variants")
    assert all(r["woke_all"] for r in rows)
    # Lemma 2 only needs *a* valid wake tree; constants differ but every
    # variant stays within a small factor of the best.
    makespans = [r["makespan"] for r in rows]
    assert max(makespans) <= 2.0 * min(makespans)
