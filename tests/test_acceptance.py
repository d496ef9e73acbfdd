"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, each
printing a single pass line (visible with ``pytest -v -s`` or in the
captured output block of a failure).  Derived expectations are recomputed
from independent closed forms or scans inside the test body.
"""

import math

import numpy as np
import pytest

from spiralmaps.construct import (
    catalog,
    decompose,
    random_signed_map,
    random_sufficient_map,
    recombine,
    spirallike_power_transform,
    transform_identity_defect,
)
from spiralmaps.criteria import (
    SpiralParams,
    growth_bounds,
    pointwise_spiral_check,
    silverman_check,
    spiral_inequality_sides,
    spiral_margin,
    sufficient_check,
    weight_table,
)
from spiralmaps.harmonic import (
    GridSpec,
    HarmonicMapSpec,
    d_operator,
    eval_f,
    grid_points,
    jacobian,
)
from spiralmaps.render import PlotSpec, circle_image

from conftest import polyline_self_intersects

DEFAULT_GRID = GridSpec()  # 40 x 256, r in [1e-3, 0.99], margin 1e-9


def report(n, text):
    print(f"criterion {n:02d} PASS: {text}")


def test_c01_angle_zero_reduction(rng):
    wt = weight_table(SpiralParams(0.0), 64)
    n = np.arange(1, 65)
    assert np.max(np.abs(wt.sufficient_ratios()[1:] - n)) <= 1e-12
    p0 = SpiralParams(0.0)
    for _ in range(100):
        m = random_sufficient_map(rng, p0, order=8)
        suff = sufficient_check(m, p0).value
        silv = silverman_check(m).value
        assert abs(suff - (silv - 1.0)) <= 1e-12
    report(1, "A_n/B = n at angle 0 and both coefficient tests coincide on 100 maps")


def test_c02_weight_floor():
    n = np.arange(1, 65)
    for lam in np.linspace(-1.57, 1.57, 101):
        wt = weight_table(SpiralParams(float(lam)), 64)
        assert np.all(wt.sufficient_ratios()[1:] >= n - 1e-12)
    report(2, "A_n/B >= n for n <= 64 across 101 angles")


def test_c03_growth_ratio_closed_form():
    for lam in np.linspace(-1.57, 1.57, 101):
        wt = weight_table(SpiralParams(float(lam)), 1)
        assert abs(wt.b_over_a1() - math.tan(math.pi / 4 - abs(lam) / 2)) <= 1e-12
    val = weight_table(SpiralParams(math.pi / 4), 1).b_over_a1()
    assert abs(val - math.tan(math.pi / 8)) <= 1e-12
    assert abs(val - 0.414214) <= 1e-6
    report(3, "B/A_1 = tan(pi/4 - |angle|/2), value tan(pi/8) at pi/4")


def test_c04_classical_counterexample_regression():
    m = catalog("f1", alpha=-0.5)
    lhs, rhs = spiral_inequality_sides(m, SpiralParams(math.pi / 4), (1 + 1j) / 2)
    assert abs(lhs - 0.75) <= 1e-12
    assert abs(rhs - 1.0) <= 1e-12
    report(4, "affine counterexample inequality sides are exactly (3/4, 1)")


def test_c05_sufficiency_not_necessary():
    wt = weight_table(SpiralParams(math.pi / 4), 2)
    val = math.sqrt(2) * wt.sufficient_ratios()[2]
    assert abs(val - 5.5811) <= 1e-3
    assert val > 2.0
    m = catalog("f4")
    outcomes = {
        s: pointwise_spiral_check(m, SpiralParams(s * math.pi / 4), DEFAULT_GRID).passed
        for s in (+1, -1)
    }
    assert outcomes[+1] != outcomes[-1]
    report(
        5,
        f"spiral slit map breaks the coefficient bound (value {val:.4f} > 2) "
        f"yet passes the sampled test for exactly one of the two angle signs",
    )


def test_c06_power_transform_coefficient_and_identity():
    koebe = catalog("koebe").h_series()
    p = SpiralParams(-math.pi / 4)  # |angle| = pi/4, default orientation
    h = spirallike_power_transform(koebe, p, probe=False)
    assert abs(h[2] - (1 - 1j)) <= 1e-10
    defect = transform_identity_defect(koebe, p, DEFAULT_GRID)
    assert defect < 1e-9
    report(6, f"transform of the Koebe series has a_2 = 1 - i; identity defect {defect:.2e}")


def test_c07_growth_sharpness_and_containment(rng):
    p = SpiralParams(math.pi / 4)
    c = weight_table(p, 1).b_over_a1()
    f6 = catalog("f6", p=p)
    f7 = catalog("f7", p=p)
    for r in (0.1, 0.5, 0.9):
        assert abs(abs(eval_f(f6, r)) - (1 - c) * r) <= 1e-12
        assert abs(abs(eval_f(f7, r)) - (1 + c) * r) <= 1e-12
    for _ in range(1000):
        lam = float(rng.uniform(-1.4, 1.4))
        pp = SpiralParams(lam)
        m = random_sufficient_map(rng, pp, order=6, n_terms=4)
        r = float(rng.uniform(0.05, 0.99))
        gb = growth_bounds(m, pp, r)
        z = r * np.exp(2j * np.pi * rng.random(100))
        vals = np.abs(eval_f(m, z))
        assert np.all(vals >= gb.lower - 1e-9)
        assert np.all(vals <= gb.upper + 1e-9)
    report(7, "modulus bounds sharp on the extremal pair and containing on 1000 random maps")


def test_c08_implication_chain(rng):
    pts = grid_points(DEFAULT_GRID)
    for _ in range(500):
        lam = float(rng.uniform(-1.4, 1.4))
        p = SpiralParams(lam)
        m = random_sufficient_map(rng, p, order=6, n_terms=4)
        assert sufficient_check(m, p).passed
        fv = eval_f(m, pts)
        margins = np.real(p.phase * d_operator(m, pts) / fv)
        assert margins.min() > 0
        assert jacobian(m, pts).min() > 0
    report(8, "500 random coefficient-test passes all pass the sampled pointwise and Jacobian tests")


def test_c09_sign_equivalence(rng):
    checked = 0
    while checked < 10_000:
        m = HarmonicMapSpec(
            a=0.4 * (rng.standard_normal(3) + 1j * rng.standard_normal(3)),
            b=0.4 * (rng.standard_normal(4) + 1j * rng.standard_normal(4)),
            truncation_order=4,
        )
        lam = float(rng.uniform(-1.5, 1.5))
        p = SpiralParams(lam)
        z = complex((0.05 + 0.93 * rng.random()) * np.exp(2j * np.pi * rng.random()))
        fv = eval_f(m, z)
        if abs(fv) <= 1e-6:
            continue
        ref = float(np.real(p.phase * d_operator(m, z) / fv))
        lhs, rhs = spiral_inequality_sides(m, p, z)
        mm = spiral_margin(m, p, z)
        assert np.sign(lhs - rhs) == np.sign(ref)
        assert np.sign(mm) == np.sign(ref)
        checked += 1
    report(9, "margin, quotient, and cleared-inequality signs agree at 10^4 random samples")


def test_c10_decompose_recombine_roundtrip(rng):
    for _ in range(200):
        lam = float(rng.uniform(-1.4, 1.4))
        p = SpiralParams(lam)
        m = random_signed_map(rng, p, order=8)
        m2 = recombine(decompose(m, p), p)
        err_a = np.max(np.abs(m.a - m2.a)) if m.a.size else 0.0
        err_b = np.max(np.abs(m.b - m2.b)) if m.b.size else 0.0
        assert max(err_a, err_b) <= 1e-12
    report(10, "decompose/recombine is the identity on 200 random sign-restricted maps")


def test_c11_harmonic_koebe_not_starlike_at_critical_radius():
    k = catalog("harmonic_koebe")
    r = math.sqrt(5) / 3
    theta = 2 * np.pi * np.arange(4096) / 4096
    z = r * np.exp(1j * theta)
    vals = np.real(d_operator(k, z) / eval_f(k, z))
    min_idx = int(np.argmin(vals))
    assert vals[min_idx] < 0
    report(
        11,
        f"harmonic Koebe has min Re(Df/f) = {vals[min_idx]:.4f} < 0 on |z| = sqrt(5)/3 "
        f"(witness angle {theta[min_idx]:.4f})",
    )


def test_c12_figure_parity(tmp_path):
    from spiralmaps.cli import main

    configs = [("f2", 0.95, lam) for lam in (0.0, math.pi / 8, math.pi / 5, math.pi / 3)]
    configs += [("f5", alpha, math.pi / 3) for alpha in (0.2, 0.5, 0.7, 0.9)]
    spec = PlotSpec(samples_per_circle=720)
    for k, (name, alpha, lam) in enumerate(configs):
        map_path = tmp_path / f"map{k}.json"
        assert main([
            "catalog", "emit", name, "--lambda", str(lam), "--alpha", str(alpha),
            "--out", str(map_path),
        ]) == 0
        out1, out2 = tmp_path / f"a{k}.svg", tmp_path / f"b{k}.svg"
        for out in (out1, out2):
            assert main(["plot", str(map_path), "--samples", "720", "--out", str(out)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # scan the same curves the plot command drew (file-precision map)
        from spiralmaps.mapfile import load_map_file

        m, _ = load_map_file(map_path)
        for r in spec.radii:
            curve = circle_image(m, r, spec.samples_per_circle)
            assert not polyline_self_intersects(curve), (name, alpha, lam, r)
    report(12, "all 8 plotted configurations give deterministic SVGs of simple closed curves")
