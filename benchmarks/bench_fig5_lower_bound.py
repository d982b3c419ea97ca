"""FIG5 / THM2 — the grid-of-disks lower-bound construction.

Reproduces Figure 5: build the ``C``/``D_c`` structure, verify Lemma 12's
cardinality floor and Lemma 13's connectivity, pin robots with the
two-pass adversary and measure ``ASeparator`` against the telescoped
``Ω(ell^2 log m + rho)`` prediction.
"""

from repro.experiments import lower_bound_experiment, print_table


def test_bench_lower_bound(once):
    def sweep():
        return lower_bound_experiment(ells=(2, 3), rho_factor=4.0, resolution=2)

    rows = once(sweep)
    print_table(rows, "\nFIG5/THM2: adversarial grid-of-disks vs Omega prediction")
    for row in rows:
        # Construction validity (Lemma 12 + Lemma 13).
        assert row["connected"], "construction must be ell-connected"
        assert row["m"] >= row["m_floor(1+rho^2/ell^2)"] - 1
        # The algorithm still wakes everyone on the pinned instance.
        assert row["woke_all"]
        # Measured makespan dominates the telescoped lower bound.
        assert row["adversarial_makespan"] >= row["omega_prediction"]
    # The Omega prediction grows with ell (the ell^2 log m term).
    assert rows[1]["omega_prediction"] > rows[0]["omega_prediction"]
