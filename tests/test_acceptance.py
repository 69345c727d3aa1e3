"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion report.
"""

import math
import time

import numpy as np
import pytest

from cavent import (
    SqueezedParams,
    assemble_rho,
    concurrence,
    eof_from_concurrence,
    gamma_coefficients,
    solve_alpha_for_mean,
    squeezed_distribution,
    trace_out_field,
    tripartite_state,
)
from cavent.cli import SweepConfig, main, run_compare, run_sweep
from quartic_oracle import quartic_eigenvalues, spin_flipped
from reference import poisson_reference

# mean photon numbers under test, with a feasible squeezing for each
MEANS_AND_R = [(0.01, 0.05), (0.3, 0.5), (1.0, 0.75), (5.0, 1.0), (50.0, 1.0)]

GT_GRID = np.linspace(0.0, 10.0, 21)


def _report(number, ok, detail):
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def _grid_distributions(tail_tol):
    """Coherent and squeezed fields at every target mean (10 configurations)."""
    fields = []
    for mean, r in MEANS_AND_R:
        fields.append(
            ("coherent", mean, 0.0,
             squeezed_distribution(SqueezedParams(math.sqrt(mean), 0.0), tail_tol))
        )
        alpha = solve_alpha_for_mean(mean, r)
        fields.append(
            ("squeezed", mean, r,
             squeezed_distribution(SqueezedParams(alpha, r), tail_tol))
        )
    return fields


def test_criterion_1_oracle_equivalence():
    start = time.monotonic()
    worst_rho = 0.0
    worst_conc = 0.0
    points = 0
    for _, _, _, dist in _grid_distributions(1e-14):
        for gt in GT_GRID:
            gt = float(gt)
            rho_sum = assemble_rho(gamma_coefficients(dist, gt))
            rho_oracle = trace_out_field(tripartite_state(dist, gt))
            worst_rho = max(worst_rho, float(np.max(np.abs(rho_sum - rho_oracle))))
            worst_conc = max(
                worst_conc, abs(concurrence(rho_sum) - concurrence(rho_oracle))
            )
            points += 1
    elapsed = time.monotonic() - start
    ok = points >= 200 and worst_rho < 1e-10 and worst_conc < 1e-8 and elapsed < 30.0
    _report(
        1,
        ok,
        f"{points} points, max|drho|={worst_rho:.3e} (<1e-10), "
        f"max|dC|={worst_conc:.3e} (<1e-8), {elapsed:.1f}s (<30s)",
    )


def test_criterion_2_normalization_suite():
    worst_sum_low = 1.0
    worst_sum_high = 0.0
    worst_trace = 0.0
    worst_eig = 0.0
    for _, _, _, dist in _grid_distributions(1e-14):
        total = math.fsum(dist.probs)
        worst_sum_low = min(worst_sum_low, total)
        worst_sum_high = max(worst_sum_high, total)
        for gt in GT_GRID:
            rho = assemble_rho(gamma_coefficients(dist, float(gt)))
            worst_trace = max(worst_trace, abs(float(np.trace(rho)) - 1.0))
            values = np.linalg.eigvalsh(rho)
            worst_eig = min(worst_eig, float(values.min()))
    ok = (
        worst_sum_low >= 1.0 - 1e-12
        and worst_sum_high <= 1.0
        and worst_trace <= 1e-10
        and worst_eig >= -1e-10
    )
    _report(
        2,
        ok,
        f"sum(P) in [{worst_sum_low:.15f}, {worst_sum_high:.15f}] (within [1-1e-12, 1]), "
        f"max|tr-1|={worst_trace:.3e} (<=1e-10), min eig={worst_eig:.3e} (>=-1e-10)",
    )


def test_criterion_3_squeezed_to_coherent_reduction():
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 3.0, math.sqrt(50.0)):
        squeezed = squeezed_distribution(SqueezedParams(alpha, 0.0))
        poisson = poisson_reference(alpha * alpha, squeezed.n_max)
        worst = max(worst, float(np.max(np.abs(squeezed.probs - poisson))))
    _report(3, worst < 1e-12, f"max pointwise |P_squeezed(r=0) - P_poisson| = {worst:.3e} (<1e-12)")


def test_criterion_4_moment_identity():
    worst = 0.0
    for alpha in (0.0, 0.5, 1.0, 3.0, 7.0):
        for r in (0.0, 0.5, 1.0):
            dist = squeezed_distribution(SqueezedParams(alpha, r))
            expected = alpha * alpha + math.sinh(r) ** 2
            mean = math.fsum(np.arange(len(dist.probs)) * dist.probs)
            worst = max(worst, abs(mean - expected))
    _report(4, worst < 1e-6, f"max |mean - (alpha^2 + sinh^2 r)| = {worst:.3e} (<1e-6)")


def test_criterion_5_squeezing_raises_the_peak_at_fixed_mean():
    shared = dict(gt_start=0.0, gt_end=10.0, gt_steps=512)
    result = run_compare(
        SweepConfig("squeezed", target_mean=0.3, r=0.5, **shared),
        SweepConfig("coherent", target_mean=0.3, **shared),
    )
    margin = result.peak_eof_a - result.peak_eof_b
    _report(
        5,
        margin > 1e-3,
        f"peak E_F squeezed={result.peak_eof_a:.6f} (gt={result.peak_gt_a:.3f}) vs "
        f"coherent={result.peak_eof_b:.6f} (gt={result.peak_gt_b:.3f}), "
        f"margin={margin:.6f} (>1e-3)",
    )


def test_criterion_6_trivial_anchors():
    # E_F at gt = 0 vanishes identically for any field
    exact_zero = True
    for _, _, _, dist in _grid_distributions(1e-12):
        rho = assemble_rho(gamma_coefficients(dist, 0.0))
        c = concurrence(rho)
        exact_zero = exact_zero and c == 0.0 and eof_from_concurrence(c) == 0.0

    # single-photon-free cavity: closed trigonometric forms
    vacuum = squeezed_distribution(SqueezedParams(0.0, 0.0))
    worst = 0.0
    for gt in (0.25, 1.0, 2.3, math.pi, 7.7):
        rho = assemble_rho(gamma_coefficients(vacuum, gt))
        c1, s1 = math.cos(gt), math.sin(gt)
        c2, s2 = math.cos(math.sqrt(2.0) * gt), math.sin(math.sqrt(2.0) * gt)
        expected = (c1**4, c1**2 * s1**2, c2**2 * s1**2, s1**2 * c1 * c2, s1**2 * s2**2)
        got = (rho[0, 0], rho[1, 1], rho[2, 2], rho[1, 2], rho[3, 3])
        for value, want in zip(got, expected):
            worst = max(worst, abs(value - want))
        # the coherences with ee and with gg
        worst = max(worst, *np.abs(rho[0, 1:]), *np.abs(rho[1:3, 3]))
    ok = exact_zero and worst < 1e-12
    _report(
        6,
        ok,
        f"gt=0 gives E_F=0 exactly: {exact_zero}; vacuum closed-form deviation "
        f"{worst:.3e} (<1e-12)",
    )


def test_criterion_7_entanglement_unit_suite(bell_state, product_state, make_werner):
    c_bell, c_prod = concurrence(bell_state), concurrence(product_state)
    eof_bell, eof_prod = eof_from_concurrence(c_bell), eof_from_concurrence(c_prod)
    c_werner = concurrence(make_werner(0.5))

    # independent cross-check of the Werner value through the quartic oracle
    rho = make_werner(0.5)
    lam = np.clip(quartic_eigenvalues(rho @ spin_flipped(rho)), 0.0, None)
    rt = np.sqrt(lam)
    c_werner_quartic = rt[0] - rt[1] - rt[2] - rt[3]

    ok = (
        abs(c_bell - 1.0) < 1e-10
        and abs(eof_bell - 1.0) < 1e-10
        and c_prod == 0.0
        and eof_prod == 0.0
        and abs(c_werner - 0.25) < 1e-10
        and abs(c_werner_quartic - 0.25) < 1e-10
    )
    _report(
        7,
        ok,
        f"Bell ({c_bell:.12f}, {eof_bell:.12f}); product ({c_prod}, {eof_prod}); "
        f"Werner C={c_werner:.12f}, quartic oracle C={c_werner_quartic:.12f} "
        f"(all within 1e-10)",
    )


def test_criterion_8_high_mean_stability_and_revival():
    tail_tol = 1e-12
    cfg = SweepConfig(
        "squeezed", target_mean=50.0, r=1.0,
        gt_start=0.0, gt_end=50.0, gt_steps=512, tail_tol=tail_tol,
    )
    result = run_sweep(cfg)
    finite = all(
        math.isfinite(c) and math.isfinite(eof) and 0.0 <= c <= 1.0 and 0.0 <= eof <= 1.0
        for c, eof in zip(result.concurrence.tolist(), result.eof.tolist())
    )

    dist = cfg.distribution()
    total = math.fsum(dist.probs)
    norm_ok = 1.0 - tail_tol <= total <= 1.0
    worst_trace = 0.0
    worst_eig = 0.0
    for gt in cfg.gt_grid():
        rho = assemble_rho(gamma_coefficients(dist, float(gt)))
        worst_trace = max(worst_trace, abs(float(np.trace(rho)) - 1.0))
        values = np.linalg.eigvalsh(rho)
        worst_eig = min(worst_eig, float(values.min()))

    eofs = result.eof.tolist()
    maxima = sum(
        1 for i in range(1, len(eofs) - 1) if eofs[i] > eofs[i - 1] and eofs[i] > eofs[i + 1]
    )
    ok = (
        finite and norm_ok and worst_trace <= 1e-10 and worst_eig >= -1e-10 and maxima >= 2
    )
    _report(
        8,
        ok,
        f"<n>=50, r=1 over [0,50]: finite/bounded rows={finite}, sum(P)={total:.15f}, "
        f"max|tr-1|={worst_trace:.3e}, min eig={worst_eig:.3e}, "
        f"local E_F maxima={maxima} (>=2), peak E_F={max(eofs):.4f}",
    )


def test_criterion_9_cli_determinism(tmp_path):
    runs = []
    for name in ("first.csv", "second.csv"):
        out = tmp_path / name
        code = main(
            ["sweep", "--field", "squeezed", "--mean", "0.3", "--r", "0.5",
             "--steps", "128", "--out", str(out)]
        )
        assert code == 0
        runs.append(out.read_bytes())
    sweep_ok = runs[0] == runs[1]

    compares = []
    for name in ("cmp1.csv", "cmp2.csv"):
        out = tmp_path / name
        code = main(
            ["compare", "--mean", "0.3", "--r", "0.5", "--steps", "64", "--out", str(out)]
        )
        assert code == 0
        compares.append(out.read_bytes())
    compare_ok = compares[0] == compares[1]
    _report(
        9,
        sweep_ok and compare_ok,
        f"byte-identical reruns: sweep={sweep_ok} ({len(runs[0])} bytes), "
        f"compare={compare_ok} ({len(compares[0])} bytes)",
    )
