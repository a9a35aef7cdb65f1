"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one line on success; run with ``pytest -v`` (or ``-s``) to
see the per-criterion outcome.
"""

import json
import math
import subprocess
import sys

import numpy as np

from slantmap.catalog import catalog_ids, load_catalog
from slantmap.charts import ChartManifold
from slantmap.loader import load_map_spec
from slantmap.maps import (Sample, check_sff_range_perp, is_riemannian_map,
                           point_frame)
from slantmap.report import render_report, run_analysis, sample_points
from slantmap.slant import (adapted_frame, check_omega_defect_identity,
                            check_phwc, classify_slant, q_operator)
from oracles import fd_christoffel, fd_sff

EX4_THETA = math.acos(math.sqrt(2.0 / 3.0))

KERNEL_CATALOG = ("invariant", "example4", "compose_slant", "warped_fiber")


def _announce(number: int, text: str) -> None:
    print(f"acceptance criterion {number:2d}: PASS - {text}")


def _points(spec, count, seed=42):
    return sample_points(spec.box, count, seed)


def test_criterion_01_example4_reproduction(tmp_path):
    out = tmp_path / "example4.json"
    proc = subprocess.run(
        [sys.executable, "-m", "slantmap.cli", "analyze", "--map",
         "catalog:example4", "--out", str(out)], capture_output=True)
    assert proc.returncode == 0
    report = json.loads(out.read_text())
    riemannian = next(c for c in report["checks"]
                      if c["name"] == "riemannian_map")
    assert riemannian["detail"]["rank"] == 2
    assert riemannian["detail"]["rank_constant"]
    assert riemannian["residual"] <= 1e-10
    slant = report["slant"]
    assert slant["classification"] == "proper_slant"
    assert abs(slant["mean_angle"] - EX4_THETA) <= 1e-9
    assert abs(slant["lambda_estimate"] + 2.0 / 3.0) <= 1e-9
    assert abs(slant["mu_estimate"] + 2.0 / 3.0) <= 1e-9
    _announce(1, "example4 via the CLI: rank 2, Riemannian, proper slant at "
                 "arccos(sqrt(2/3)), lambda = mu = -2/3")


def test_criterion_02_extremal_classes():
    invariant = load_catalog("invariant")
    points = _points(invariant, 25)
    report = classify_slant(Sample(invariant, points))
    assert report.classification == "invariant"
    assert report.mean_angle <= 1e-9
    for p in points[:10]:
        q = q_operator(invariant, p)
        assert np.abs(q @ q + np.eye(q.shape[0])).max() <= 1e-9

    anti = load_catalog("anti_invariant")
    points = _points(anti, 25)
    report = classify_slant(Sample(anti, points))
    assert report.classification == "anti_invariant"
    assert abs(report.mean_angle - math.pi / 2) <= 1e-9
    for p in points[:10]:
        assert np.abs(q_operator(anti, p)).max() <= 1e-9
    _announce(2, "invariant: angle 0 with Q^2 = -I; anti-invariant: angle "
                 "pi/2 with Q = 0")


def test_criterion_03_composed_submersion_immersion():
    for alpha in (0.3, math.pi / 4, 1.2):
        spec = load_catalog(f"compose_slant(alpha={alpha!r})")
        points = _points(spec, 20)
        report = classify_slant(Sample(spec, points))
        assert report.classification == "proper_slant", alpha
        assert abs(report.mean_angle - alpha) <= 1e-8
        for p in points[:8]:
            frame = point_frame(spec, p)
            fmc = frame.fiber_mean_curvature
            assert frame.g_target.norm(fmc) <= 1e-8
    _announce(3, "submersion-then-slant-immersion composites: slant angle "
                 "alpha for alpha in {0.3, pi/4, 1.2}, minimal fibers")


def test_criterion_04_lambda_mu_angle_agreement():
    checked = 0
    for catalog_id in catalog_ids():
        spec = load_catalog(catalog_id)
        report = classify_slant(Sample(spec, _points(spec, 12)))
        if not report.is_slant:
            continue
        expected = -math.cos(report.mean_angle) ** 2
        assert abs(report.lambda_estimate - report.mu_estimate) <= 1e-8, catalog_id
        assert abs(report.lambda_estimate - expected) <= 1e-8, catalog_id
        assert abs(report.mu_estimate - expected) <= 1e-8, catalog_id
        checked += 1
    assert checked >= 7  # all slant catalog entries took part
    _announce(4, f"lambda and mu agree with -cos^2(mean angle) on "
                 f"{checked} slant catalog maps")


def test_criterion_05_adapted_frame_gram():
    for catalog_id in ("example4", "compose_slant"):
        spec = load_catalog(catalog_id)
        for p in _points(spec, 50):
            cols = adapted_frame(spec, p)
            g1 = point_frame(spec, p).g_source
            gram = cols.T @ g1.matrix @ cols
            assert np.abs(gram - np.eye(cols.shape[1])).max() <= 1e-10
    _announce(5, "adapted frames orthonormal to 1e-10 at 50 points on "
                 "example4 and compose_slant")


def test_criterion_06_harmonic_iff_minimal_fibers():
    for catalog_id in KERNEL_CATALOG:
        spec = load_catalog(catalog_id)
        points = _points(spec, 15)
        report = classify_slant(Sample(spec, points))
        assert report.omega_defect <= 1e-8, catalog_id
        tension_max = fiber_max = 0.0
        for p in points:
            frame = point_frame(spec, p)
            tension_max = max(tension_max,
                              frame.g_target.norm(frame.tension))
            fiber_max = max(fiber_max,
                            frame.g_target.norm(frame.fiber_mean_curvature))
        harmonic = tension_max <= 1e-8
        minimal = fiber_max <= 1e-8
        assert harmonic == minimal, catalog_id
        if catalog_id == "warped_fiber":
            assert not harmonic and not minimal
        else:
            assert harmonic and minimal
    _announce(6, "tension field and fiber mean curvature co-vanish on all "
                 "omega-parallel catalog maps; warped_fiber fails both")


def test_criterion_07_sff_against_finite_differences():
    hyperbolic = ChartManifold.from_strings(
        2, [["1/pow(x2,2)", "0"], ["0", "1/pow(x2,2)"]])
    conformal = ChartManifold.from_strings(
        2, [["exp(2*x1)", "0"], ["0", "exp(2*x1)"]])
    gen = np.random.default_rng(70)
    for chart, box in ((hyperbolic, [(-1.0, 1.0), (0.5, 2.0)]),
                       (conformal, [(-1.0, 1.0), (-1.0, 1.0)])):
        for _ in range(6):
            p = np.array([gen.uniform(lo, hi) for lo, hi in box])
            exact = chart.metric_at(p)[1]
            approx = fd_christoffel(chart, p)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() <= 1e-6 * scale

    curved = load_catalog("curved_target")
    for p in _points(curved, 6):
        frame = point_frame(curved, p)
        for _ in range(3):
            X = gen.standard_normal(2)
            Y = gen.standard_normal(2)
            exact = frame.sff_value(X, Y)
            approx = fd_sff(curved, p, X, Y)
            scale = max(1.0, np.abs(exact).max())
            assert np.abs(exact - approx).max() <= 1e-6 * scale

    for catalog_id in catalog_ids():
        spec = load_catalog(catalog_id)
        sample = Sample(spec, _points(spec, 10))
        if not is_riemannian_map(sample).passed:
            continue
        result = check_sff_range_perp(sample)
        assert result.residual <= 1e-8, catalog_id
    _announce(7, "connection and second fundamental form match the "
                 "finite-difference oracles; sff normal to the range on "
                 "every Riemannian catalog map")


def test_criterion_08_omega_defect_closed_form():
    spec = load_catalog("curved_target")
    result = check_omega_defect_identity(Sample(spec, _points(spec, 15)),
                                         tol=1e-7)
    assert result.passed
    assert result.residual <= 1e-7
    _announce(8, "exact omega defect equals C(sff(X,Y)) - sff(X,QY) "
                 "on curved_target")


def test_criterion_09_phwc_for_every_slant_map():
    checked = 0
    for catalog_id in catalog_ids():
        spec = load_catalog(catalog_id)
        sample = Sample(spec, _points(spec, 12))
        report = classify_slant(sample)
        if not report.sec_defined:
            continue
        result = check_phwc(sample, report, tol=1e-9)
        assert result.passed, catalog_id
        assert result.detail["square_residual"] <= 1e-9
        assert result.detail["hermitian_residual"] <= 1e-9
        checked += 1
    assert checked >= 6
    _announce(9, f"induced horizontal structure squares to -I and is "
                 f"Hermitian on {checked} slant catalog maps")


def test_criterion_10_determinism(tmp_path):
    argv = [sys.executable, "-m", "slantmap.cli", "analyze", "--map",
            "catalog:example4", "--samples", "12", "--seed", "42"]
    first = subprocess.run(argv, capture_output=True)
    second = subprocess.run(argv, capture_output=True)
    assert first.stdout == second.stdout and first.stdout

    for catalog_id in catalog_ids():
        loaded = load_map_spec(f"catalog:{catalog_id}")
        loaded.settings.points = 8
        verdicts = {c.name: c.status for c in run_analysis(loaded).checks}
        loaded.settings.seed = 20240808
        reseeded = {c.name: c.status for c in run_analysis(loaded).checks}
        assert verdicts == reseeded, catalog_id
    _announce(10, "byte-identical reports for identical flags; verdicts "
                  "unchanged under reseeding on every catalog map")
