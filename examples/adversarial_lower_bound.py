#!/usr/bin/env python3
"""Playing the adversary: the Theorem 2 lower-bound construction, live.

The paper's ``Ω(rho + ell^2 log(rho/ell))`` lower bound hides one robot in
each disk ``D_c`` of an ``ell/2``-grid, at the *last* spot the algorithm
looks.  This example realizes that adversary against our own ``ASeparator``
with the two-pass trick of ``repro.instances.adversary``: probe the
algorithm on a decoy, find each disk's latest-covered point, pin the
robots there, re-run.

It prints the construction's certified properties (Lemma 12 cardinality,
Lemma 13 connectivity), then decoy vs adversarial makespans against the
telescoped prediction.

Run:  python examples/adversarial_lower_bound.py
"""

from repro import grid_of_disks, run_aseparator
from repro.core.aseparator import aseparator_program
from repro.experiments import print_table
from repro.geometry import connectivity_threshold
from repro.instances import adversarial_grid_instance
from repro.viz import render_instance


def main() -> None:
    ell, rho = 2, 10.0
    construction = grid_of_disks(ell=ell, rho=rho, n=10_000)
    decoy = construction.instance()

    print(
        f"construction: m={construction.m} disks of radius "
        f"{construction.disk_radius} on the ell/2-grid "
        f"(Lemma 12 floor: {1 + (rho / ell) ** 2:.0f})"
    )
    ell_star = connectivity_threshold(decoy.source, decoy.positions)
    print(f"Lemma 13 check: ell* = {ell_star:.3f} <= ell = {ell}")
    print(render_instance(decoy, width=60, height=20))

    def factory(instance):
        return aseparator_program(ell=ell, rho=rho)

    print("\nprobing the algorithm on the decoy (pass 1)...")
    pinned = adversarial_grid_instance(construction, factory, resolution=3)

    decoy_run = run_aseparator(decoy, ell=ell, rho=int(rho))
    pinned_run = run_aseparator(pinned, ell=ell, rho=int(rho))
    prediction = construction.makespan_lower_bound()

    rows = [
        {
            "placement": "disk centers (decoy)",
            "makespan": decoy_run.makespan,
            "woke_all": decoy_run.woke_all,
        },
        {
            "placement": "latest-covered (adversarial)",
            "makespan": pinned_run.makespan,
            "woke_all": pinned_run.woke_all,
        },
        {
            "placement": "Omega prediction (telescoped)",
            "makespan": prediction,
            "woke_all": True,
        },
    ]
    print_table(rows, "\nTheorem 2 in action")
    assert decoy_run.woke_all and pinned_run.woke_all
    assert pinned_run.makespan >= prediction


if __name__ == "__main__":
    main()
