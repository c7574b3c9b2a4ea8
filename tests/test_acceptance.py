"""Acceptance gate: every release criterion at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. The shared sweeps (all odd N in [3, 43], S in {0, 1, 2}, both
walk types at dt = 0.01) are computed once per session; the classical leg
dominates the runtime at a few minutes.

Criterion 6 checks the full odd-N range at offset 0 and every offset in
[-2, 2] on N in {5, 9, 43}; the remaining (N, offset) combinations run the
identical code path.
"""

import numpy as np
import pytest

from ctwalk import (
    LindbladConfig,
    SideChainConfig,
    TimeGrid,
    bipartite_coloring,
    build_rate_matrix,
    build_side_chain_graph,
    complement_flux,
    deconvolve,
    entropy_study,
    evolve_lindblad,
    evolve_master,
    evolve_schrodinger,
    gillespie_first_passage,
    histogram_density_l1,
    mfpt_linear_solve,
    overlay_l2_error,
    reduce_density,
    ring_first_passage,
    run_case,
    speedup_fit,
    sweep,
    transition_probabilities,
)
from ctwalk.experiments import group_by_n, run_pipeline
from ctwalk.quantum import spectrum

DT = 0.01
EPS = 1e-6
ODD_N = list(range(3, 44, 2))


def report(criterion: str, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    return ok


def chain(n, s=0, offset=0):
    return build_side_chain_graph(SideChainConfig(N=n, S=s, offset=offset))


@pytest.fixture(scope="session")
def quantum_records():
    return sweep(ODD_N, [0, 1, 2], 0, "quantum", dt=DT, eps=EPS)


@pytest.fixture(scope="session")
def classical_records():
    return sweep(ODD_N, [0, 1, 2], 0, "classical", dt=DT, eps=EPS)


@pytest.fixture(scope="session")
def reference_f():
    """Deconvolved quantum F for N = 9 and N = 43, shared by the overlays."""
    out = {}
    for n in (9, 43):
        result, grid = run_pipeline(spectrum(chain(n)), n, DT, EPS)
        out[n] = (result, grid)
    return out


# ---------------------------------------------------------------------------
# criterion 1: power-law reproduction
# ---------------------------------------------------------------------------

def test_criterion_1_power_law(quantum_records):
    fit = speedup_fit([r for r in quantum_records if r.S in (0, 1)])
    ok_exp = abs(fit.exponent - (-0.714)) <= 0.05
    ok_pre = abs(fit.prefactor - (-0.4574)) <= 0.10 * 0.4574
    assert report(
        "criterion 1 (speed-up power law)",
        ok_exp and ok_pre,
        f"fit {fit.prefactor:.4f} * N^{fit.exponent:.4f} "
        f"vs -0.4574 * N^-0.714 (residual {fit.residual:.3g})",
    )


# ---------------------------------------------------------------------------
# criterion 2: quantum speed-up and suppression signs
# ---------------------------------------------------------------------------

def test_criterion_2_quantum_signs(quantum_records):
    table = group_by_n(quantum_records)
    d1 = {n: table[n][1].tau - table[n][0].tau for n in ODD_N}
    d2p = {n: table[n][2].tau - table[n][1].tau for n in ODD_N}
    ok = all(d1[n] < 0.0 for n in ODD_N) and all(d2p[n] > 0.0 for n in ODD_N)
    assert report(
        "criterion 2 (quantum speed-up / suppression signs)",
        ok,
        f"d1 < 0 and d2' > 0 for all odd N in [3, 43]; "
        f"d1 range [{min(d1.values()):.3f}, {max(d1.values()):.3f}], "
        f"min d2' {min(d2p.values()):.3f}",
    )


def test_speedup_ratio_shrinks_with_n(quantum_records):
    """|d1/tau| decreasing in N, as a negative-exponent power law requires."""
    table = group_by_n(quantum_records)
    ratios = [
        abs(table[n][1].tau - table[n][0].tau) / table[n][0].tau for n in ODD_N
    ]
    assert all(a > b for a, b in zip(ratios, ratios[1:]))


# ---------------------------------------------------------------------------
# criterion 3: classical retardation ordering
# ---------------------------------------------------------------------------

def test_criterion_3_classical_ordering(classical_records):
    table = group_by_n(classical_records)
    ok = all(
        table[n][2].tau > table[n][1].tau > table[n][0].tau for n in ODD_N
    )
    n9 = table[9]
    assert report(
        "criterion 3 (classical retardation)",
        ok,
        f"tau''_c > tau'_c > tau_c for all odd N in [3, 43]; "
        f"N=9 example: {n9[2].tau:.2f} > {n9[1].tau:.2f} > {n9[0].tau:.2f}",
    )


# ---------------------------------------------------------------------------
# criterion 4: analytic two- and three-vertex oracles
# ---------------------------------------------------------------------------

def test_criterion_4_analytic_oracles():
    classical2 = run_case(2, 0, 0, "classical", dt=DT, eps=EPS)
    ok_c = abs(classical2.tau - 1.0) <= 1e-4

    g2 = chain(2)
    h2 = spectrum(g2)
    grid = TimeGrid.from_span(5.0, DT)
    p12 = transition_probabilities(h2, 1, (2,), grid)[0]
    p22 = transition_probabilities(h2, 2, (2,), grid)[0]
    f = deconvolve(p12, p22, grid, 0.0)
    f_exact = np.sqrt(2.0) * np.sin(np.sqrt(2.0) * grid.times)
    ok_f = np.max(np.abs(f - f_exact)) <= 5e-4

    quantum2 = run_case(2, 0, 0, "quantum", dt=DT, eps=EPS)
    fine = run_case(2, 0, 0, "quantum", dt=DT / 2, eps=EPS)
    richardson = (4.0 * fine.tau - quantum2.tau) / 3.0
    ok_q = (
        abs(quantum2.tau0 - np.pi / np.sqrt(2.0)) <= 1e-4
        and abs(quantum2.tau - np.pi * np.sqrt(2.0) / 4.0) <= 1e-4
        and abs(richardson - np.pi * np.sqrt(2.0) / 4.0) <= 1e-5
    )

    grid3 = TimeGrid.from_span(10.0, DT)
    p13 = transition_probabilities(spectrum(chain(3)), 1, (3,), grid3)[0]
    ok_3 = np.max(np.abs(p13 - np.sin(grid3.times / np.sqrt(2.0)) ** 4)) <= 1e-6

    assert report(
        "criterion 4 (analytic oracles)",
        ok_c and ok_f and ok_q and ok_3,
        f"2-chain classical tau {classical2.tau:.6f} (target 1 +- 1e-4); "
        f"2-chain quantum tau {quantum2.tau:.6f} (target {np.pi*np.sqrt(2)/4:.6f}), "
        f"Richardson {richardson:.7f}; 3-chain max |P13 - sin^4| "
        f"{np.max(np.abs(p13 - np.sin(grid3.times/np.sqrt(2.0))**4)):.2e}",
    )


# ---------------------------------------------------------------------------
# criterion 5: deconvolution self-consistency
# ---------------------------------------------------------------------------

def test_criterion_5_round_trip(quantum_records, classical_records):
    worst_q = max(r.reconstruction_error for r in quantum_records)
    worst_c = max(r.reconstruction_error for r in classical_records)
    coarse_c = next(r for r in classical_records if r.N == 9 and r.S == 0)
    coarse_q = next(r for r in quantum_records if r.N == 9 and r.S == 0)
    fine_c = run_case(9, 0, 0, "classical", dt=DT / 2, eps=EPS)
    fine_q = run_case(9, 0, 0, "quantum", dt=DT / 2, eps=EPS)
    drift_c = abs(fine_c.tau - coarse_c.tau) / coarse_c.tau
    drift_q = abs(fine_q.tau - coarse_q.tau) / coarse_q.tau
    ok = (
        worst_q <= 1e-4
        and worst_c <= 1e-5
        and drift_c <= 1e-3
        and drift_q <= 1e-3
    )
    assert report(
        "criterion 5 (deconvolution self-consistency)",
        ok,
        f"max residual quantum {worst_q:.2e} (<= 1e-4), classical {worst_c:.2e} "
        f"(<= 1e-5); dt-halving tau drift classical {drift_c:.2e}, "
        f"quantum {drift_q:.2e} (<= 1e-3)",
    )


# ---------------------------------------------------------------------------
# criterion 6: classical pipeline equals the linear-solve value
# ---------------------------------------------------------------------------

def test_criterion_6_oracle_equivalence(classical_records):
    worst = 0.0
    worst_case = None
    for rec in classical_records:
        oracle = mfpt_linear_solve(chain(rec.N, rec.S, rec.offset), 1, rec.N)
        rel = abs(rec.tau - oracle) / oracle
        if rel > worst:
            worst, worst_case = rel, (rec.N, rec.S, rec.offset)
    for n in (5, 9, 43):
        for s in (0, 1, 2):
            for offset in (-2, -1, 1, 2):
                rec = run_case(n, s, offset, "classical", dt=DT, eps=EPS)
                oracle = mfpt_linear_solve(chain(n, s, offset), 1, n)
                rel = abs(rec.tau - oracle) / oracle
                if rel > worst:
                    worst, worst_case = rel, (n, s, offset)
    assert report(
        "criterion 6 (classical oracle equivalence)",
        worst < 0.01,
        f"worst relative gap {worst:.2e} at (N, S, offset) = {worst_case} "
        "over odd N in [3, 43] at offset 0 plus offsets +-1, +-2 on N in {5, 9, 43}",
    )


# ---------------------------------------------------------------------------
# criterion 7: ensemble simulation agrees with the deconvolved density
# ---------------------------------------------------------------------------

def test_criterion_7_monte_carlo():
    g = chain(9)
    hist = gillespie_first_passage(g, 1, 9, 1_000_000, seed=7, bin_width=1.0)
    result, grid = run_pipeline(build_rate_matrix(g), 9, DT, EPS)
    l1 = histogram_density_l1(hist, grid.times, result.F)
    assert report(
        "criterion 7 (Monte Carlo agreement)",
        l1 <= 0.02 and hist.n_capped == 0,
        f"L1 distance {l1:.4f} (<= 0.02) from 1e6 trajectories, "
        f"{hist.n_capped} capped",
    )


# ---------------------------------------------------------------------------
# criterion 8: absorber overlays
# ---------------------------------------------------------------------------

def _sticky_overlays(n, rate, potential, reference):
    result, ref_grid = reference
    g = chain(n)
    grid = TimeGrid.from_span(result.tau0 + 6.0, DT)
    out = {}
    for direction in ("as-printed", "reversed"):
        cfg = LindbladConfig(rate=rate, potential=potential, direction=direction)
        pops, _ = evolve_lindblad(g, n, cfg, 1, grid)  # once for both sigma conventions
        for sigma_tag, k in (("excl-target", n - 1), ("incl-target", n)):
            est = complement_flux(pops[:, :k].sum(axis=1), grid)
            err = overlay_l2_error(est, result.F, ref_grid, result.tau0)
            out[f"{direction}/{sigma_tag}"] = err
    return out


def _ring_overlays(n, m, reference):
    result, ref_grid = reference
    g = chain(n)
    grid = TimeGrid.from_span(result.tau0 + 6.0, DT)
    out = {}
    for sigma_tag, k in (("excl-target", n - 1), ("incl-target", n)):
        est = ring_first_passage(
            g, n, m, 1, grid, sigma_vertices=tuple(range(1, k + 1))
        )
        err = overlay_l2_error(est, result.F, ref_grid, result.tau0)
        out[sigma_tag] = err
    return out


def test_criterion_8_absorber_overlays(reference_f):
    sticky9 = _sticky_overlays(9, 5.0, -2.5, reference_f[9])
    sticky43 = _sticky_overlays(43, 4.6, -2.3, reference_f[43])
    ring9 = _ring_overlays(9, 10, reference_f[9])
    ring43 = _ring_overlays(43, 44, reference_f[43])
    ok = True
    details = []
    for name, table in (
        ("sticky N=9", sticky9),
        ("sticky N=43", sticky43),
        ("ring N=9 M=10", ring9),
        ("ring N=43 M=44", ring43),
    ):
        best = min(table, key=table.get)
        ok = ok and table[best] <= 0.10
        details.append(f"{name}: best {table[best]:.3f} via {best}")
    assert report(
        "criterion 8 (absorber overlays <= 10%)", ok, "; ".join(details)
    )
    print("    full overlay table:")
    for name, table in (
        ("sticky N=9", sticky9),
        ("sticky N=43", sticky43),
        ("ring N=9", ring9),
        ("ring N=43", ring43),
    ):
        for combo, err in sorted(table.items()):
            print(f"      {name} {combo}: L2 = {err:.4f}")


# ---------------------------------------------------------------------------
# criterion 9: conservation suite
# ---------------------------------------------------------------------------

def test_criterion_9_conservation(reference_f):
    g = chain(9, 2)
    rm = build_rate_matrix(g)
    grid = TimeGrid.from_span(60.0, 0.02)
    classical_dev = np.max(
        np.abs(evolve_master(rm, 1, grid).span(0, grid.n).sum(axis=0) - 1.0)
    )
    amp = evolve_schrodinger(spectrum(g), 1, grid).span(0, grid.n).T
    quantum_dev = np.max(np.abs((np.abs(amp) ** 2).sum(axis=1) - 1.0))

    result9, _ = reference_f[9]
    lgrid = TimeGrid.from_span(result9.tau0 + 6.0, DT)
    cfg = LindbladConfig(rate=5.0, potential=-2.5, direction="reversed")
    trace_dev = evolve_lindblad(chain(9), 9, cfg, 1, lgrid)[1]["trace_drift"]

    coloring = bipartite_coloring(g)
    reduced_dev = 0.0
    eig_floor = 0.0
    entropy_lo, entropy_hi = np.inf, -np.inf
    for state in amp[:: max(1, grid.n // 60)]:
        red = reduce_density(state, coloring)
        reduced_dev = max(
            reduced_dev,
            float(np.max(np.abs(red - red.conj().T))),
            abs(float(np.trace(red).real) - 1.0),
        )
        lam = np.linalg.eigvalsh(red)
        eig_floor = min(eig_floor, float(lam.min()))
    for case in entropy_study(9, dt=DT, eps=EPS).values():
        entropy_lo = min(entropy_lo, float(case.entropy.min()))
        entropy_hi = max(entropy_hi, float(case.entropy.max()))

    ok = (
        classical_dev <= 1e-9
        and quantum_dev <= 1e-9
        and trace_dev <= 1e-8
        and reduced_dev <= 1e-9
        and eig_floor >= -1e-9
        and entropy_lo >= 0.0
        and entropy_hi <= 1.0
    )
    assert report(
        "criterion 9 (conservation suite)",
        ok,
        f"probability sum dev {classical_dev:.1e} (<= 1e-9), norm dev "
        f"{quantum_dev:.1e} (<= 1e-9), trace dev {trace_dev:.1e} (<= 1e-8), "
        f"reduced-density dev {reduced_dev:.1e}, eigenvalue floor {eig_floor:.1e}, "
        f"entropy range [{entropy_lo:.3f}, {entropy_hi:.3f}]",
    )


# ---------------------------------------------------------------------------
# criterion 10: off-center speed-up persists
# ---------------------------------------------------------------------------

def test_criterion_10_off_center_speedup():
    details = []
    ok = True
    for offset in (-2, -1, 1, 2):
        tau0 = run_case(9, 0, offset, "quantum", dt=DT, eps=EPS).tau
        tau1 = run_case(9, 1, offset, "quantum", dt=DT, eps=EPS).tau
        d1 = tau1 - tau0
        ok = ok and d1 < 0.0
        details.append(f"offset {offset:+d}: d1 = {d1:.4f}")
    assert report(
        "criterion 10 (off-center speed-up persists)", ok, "; ".join(details)
    )
