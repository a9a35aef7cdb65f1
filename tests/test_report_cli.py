import gc
import json
import math
import os
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import pytest

import slantmap
from slantmap.catalog import CatalogError, catalog_ids, load_catalog
from slantmap.charts import ChartManifold
from slantmap.cli import main
from slantmap.loader import (AnalysisSettings, LoadedMap, MapSpecError,
                             load_map_spec, map_spec_from_json)
from slantmap.report import (CHECK_NAMES, Analysis, Report, render_report,
                             run_analysis, sample_points)
from test_slant import _rank4_into_c3

MINIMAL_SPEC = {
    "schema": "slantmap/1",
    "source": {"dim": 2},
    "target": {"dim": 4, "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                               ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "components": ["x1", "0", "x2", "0"],
}


def test_catalog_has_required_entries():
    ids = catalog_ids()
    for required in ("identity2", "invariant", "anti_invariant", "example4",
                     "slant_plane", "compose_slant", "curved_target",
                     "warped_fiber", "nonslant"):
        assert required in ids


def test_catalog_loads_example4():
    spec = load_catalog("example4")
    assert spec.source.dim == 4 and spec.target.dim == 4


def test_catalog_parameter_parsing():
    spec = load_catalog("compose_slant(alpha=0.3)")
    assert "0.3" in spec.name
    with pytest.raises(CatalogError, match="available"):
        load_catalog("no_such_map")
    with pytest.raises(CatalogError, match="parameter"):
        load_catalog("example4(alpha=0.3)")


def test_load_map_spec_catalog_prefix():
    loaded = load_map_spec("catalog:identity2")
    assert loaded.origin == "catalog:identity2"
    assert loaded.digest is None


def test_load_map_spec_missing_file():
    with pytest.raises(MapSpecError, match="no such file"):
        load_map_spec("/nonexistent/map.json")


def test_map_spec_from_json_minimal():
    loaded = map_spec_from_json(MINIMAL_SPEC, name="inline")
    assert loaded.spec.source.dim == 2
    assert loaded.spec.target.complex_structure is not None


def test_map_spec_component_count_error_has_pointer():
    bad = dict(MINIMAL_SPEC)
    bad["components"] = ["x1", "0"]
    with pytest.raises(MapSpecError) as err:
        map_spec_from_json(bad)
    assert err.value.pointer == "/components"


def test_map_spec_bad_expression_error():
    bad = dict(MINIMAL_SPEC)
    bad["components"] = ["x1", "x7", "x2", "0"]
    with pytest.raises(MapSpecError, match="components"):
        map_spec_from_json(bad)


def test_map_spec_rejects_odd_dimension_structure():
    bad = {
        "schema": "slantmap/1",
        "source": {"dim": 2},
        "target": {"dim": 3, "J": [["0"] * 3] * 3},
        "components": ["x1", "x2", "0"],
    }
    with pytest.raises(MapSpecError, match="even"):
        map_spec_from_json(bad)


def test_map_spec_bad_schema():
    bad = dict(MINIMAL_SPEC)
    bad["schema"] = "other/9"
    with pytest.raises(MapSpecError, match="unsupported schema"):
        map_spec_from_json(bad)


NOT_NUMBERS = {
    "box_string": ({"domain": {"box": [["a", 1], [-1, 1]]}}, "/domain/box/0"),
    "box_nan": ({"domain": {"box": [[-1, 1], [math.nan, 1]]}}, "/domain/box/1"),
    "box_infinity": ({"domain": {"box": [[-1, math.inf], [-1, 1]]}},
                     "/domain/box/0"),
    "box_true": ({"domain": {"box": [[-1, True], [-1, 1]]}}, "/domain/box/0"),
    "box_reversed": ({"domain": {"box": [[-1, 1], [1, -1]]}}, "/domain/box/1"),
    "dim_true": ({"source": {"dim": True}}, "/source/dim"),
    "points_true": ({"sampling": {"points": True}}, "/sampling/points"),
    "check_tol_true": ({"tolerances": {"check": True}}, "/tolerances/check"),
    "check_tol_infinity": ({"tolerances": {"check": math.inf}},
                           "/tolerances/check"),
    "rank_tol_nan": ({"tolerances": {"rank": math.nan}}, "/tolerances/rank"),
}


@pytest.mark.parametrize("case", sorted(NOT_NUMBERS))
def test_map_spec_rejects_non_numbers(case, tmp_path, capsys):
    # json reads NaN and Infinity, and bool is an int in Python: none of
    # them is a number here, and each names its JSON pointer (exit 2)
    overrides, pointer = NOT_NUMBERS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(dict(MINIMAL_SPEC, **overrides)))
    with pytest.raises(MapSpecError) as err:
        load_map_spec(str(path))
    assert err.value.pointer == pointer
    assert main(["analyze", "--map", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {pointer}: must be")


def test_map_spec_sampling_and_tolerances():
    doc = dict(MINIMAL_SPEC)
    doc["sampling"] = {"points": 7, "dirs": 3, "seed": 5}
    doc["tolerances"] = {"rank": 1e-9, "check": 1e-7, "angle": 1e-5}
    loaded = map_spec_from_json(doc)
    assert loaded.settings.points == 7
    assert loaded.settings.dirs == 3
    assert loaded.settings.seed == 5
    assert loaded.settings.check_tol == 1e-7


def test_file_round_trip_and_digest(tmp_path):
    path = tmp_path / "anti.json"
    path.write_text(json.dumps(MINIMAL_SPEC))
    loaded = load_map_spec(str(path))
    assert loaded.digest is not None
    report = run_analysis(loaded)
    assert report.metadata["sha256"] == loaded.digest
    assert report.slant.classification == "anti_invariant"


def test_run_analysis_example4_summary():
    loaded = load_map_spec("catalog:example4")
    loaded.settings.points = 10
    report = run_analysis(loaded)
    assert report.exit_code == 0
    assert report.check("riemannian_map").passed
    assert report.check("riemannian_map").detail["rank"] == 2
    assert report.slant.classification == "proper_slant"
    assert report.slant.mean_angle == pytest.approx(
        math.acos(math.sqrt(2 / 3)), abs=1e-9)
    for name in ("harmonic", "minimal_fibers", "totally_geodesic", "phwc",
                 "pseudo_homothetic", "sff_q_scaling",
                 "harmonic_minimal_equivalence"):
        assert report.check(name).passed, name


def test_run_analysis_skips_are_not_failures():
    loaded = load_map_spec("catalog:anti_invariant")
    loaded.settings.points = 6
    report = run_analysis(loaded)
    assert report.exit_code == 0
    assert report.check("phwc").status == "skipped"
    assert report.check("minimal_fibers").status == "skipped"


def test_run_analysis_collects_failures_without_raising():
    loaded = load_map_spec("catalog:nonslant")
    loaded.settings.points = 6
    report = run_analysis(loaded)
    assert report.exit_code == 1
    assert report.slant.classification == "not_slant"
    assert report.check("harmonic").status == "fail"
    assert report.check("harmonic").witness is not None


EXPECTED_CHECKS = {
    "almost_hermitian", "kahler", "riemannian_map", "sff_range_perp",
    "harmonic", "minimal_fibers", "totally_geodesic", "phi_squared_scaling",
    "q_squared_scaling", "lambda_mu_consistency", "adapted_frame",
    "omega_parallel", "phi_parallel", "omega_defect_identity",
    "sff_q_scaling", "harmonic_minimal_equivalence", "phwc",
    "pseudo_homothetic",
}


def test_every_report_lists_every_check():
    for catalog_id in ("example4", "nonslant", "curved_target"):
        loaded = load_map_spec(f"catalog:{catalog_id}")
        loaded.settings.points = 4
        names = {c.name for c in run_analysis(loaded).checks}
        assert EXPECTED_CHECKS <= names, catalog_id


def test_constant_map_fails_riemannian_cleanly():
    from slantmap.charts import ChartManifold
    from slantmap.loader import AnalysisSettings, LoadedMap
    from slantmap.maps import MapSpec
    const = MapSpec.create(
        ChartManifold.euclidean(2),
        ChartManifold.euclidean(4, MINIMAL_SPEC["target"]["J"]),
        ["0", "0", "0", "0"])
    loaded = LoadedMap(const, AnalysisSettings(points=4), origin="inline")
    report = run_analysis(loaded)
    assert report.check("riemannian_map").status == "fail"
    assert "rank is zero" in report.check("riemannian_map").reason
    assert report.slant.classification == "not_riemannian"
    assert {c.name for c in report.checks} >= EXPECTED_CHECKS


def test_run_analysis_survives_domain_errors():
    doc = dict(MINIMAL_SPEC)
    doc["components"] = ["log(x1 - 5)", "0", "x2", "0"]  # always out of domain
    loaded = map_spec_from_json(doc)
    loaded.settings.points = 4
    report = run_analysis(loaded)
    assert report.exit_code == 1
    assert report.check("almost_hermitian").status == "error"
    assert report.check("riemannian_map").status == "error"
    assert "log" in report.check("riemannian_map").reason


@pytest.fixture
def frame_builds(monkeypatch):
    """Points of every point_frame build, through both module bindings."""
    original = slantmap.maps.point_frame
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(slantmap.maps, "point_frame", counted)
    monkeypatch.setattr(slantmap.slant, "point_frame", counted)
    return builds


def test_frame_budget_per_point(frame_builds):
    # one frame per sample point, shared by every check; derivatives must not
    # rebuild frames off the sample points
    samples = 4
    run_analysis(load_map_spec("catalog:warped_fiber"),
                 AnalysisSettings(points=samples))
    assert len(frame_builds) == samples


def _budget_map(name):
    if name == "warped_fiber":
        return load_catalog(name)
    if name == "rank4_into_c3":  # not a Riemannian map: no derivatives
        return _rank4_into_c3()
    # an isometric immersion along which the rotating J still turns
    return _rank4_into_c3(("x1", "x2", "cos(x3)", "x4", "sin(x3)", "0"))


@pytest.mark.parametrize("name, derived", [("warped_fiber", True),
                                           ("rank4_into_c3", False),
                                           ("rank4_isometric_into_c3", True)])
def test_derivative_budget_per_frame(frame_builds, monkeypatch, name, derived):
    # the section derivatives along the whole horizontal frame, and the
    # adjoint and projector they read, are formed once per frame; J and its
    # gradient come from one jet per frame.  The target checks' own J
    # evaluations at the image points are not counted.
    calls = Counter()

    def count(owner, attribute, key):
        original = getattr(owner, attribute)

        def counted(*args, **kwargs):
            caller = sys._getframe(1).f_code.co_name
            if caller not in ("check_almost_hermitian", "check_kahler"):
                calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, counted)

    for module in (slantmap.linalg, slantmap.maps):
        count(module, "metric_adjoint", "adjoint")
        count(module, "range_projector", "projector")
    count(slantmap.maps, "section_derivatives", "derivatives")
    count(ChartManifold, "complex_structure_jet", "J")
    count(ChartManifold, "complex_structure_at", "J")
    samples = 4
    run_analysis(LoadedMap(_budget_map(name), AnalysisSettings(points=samples),
                           origin="inline"))
    frames = len(frame_builds)
    assert frames == samples
    per_frame = frames if derived else 0
    assert calls["derivatives"] == calls["adjoint"] == per_frame
    assert calls["projector"] == per_frame
    assert calls["J"] == frames


def test_frames_are_freed_by_reference_counting():
    # the cached derivatives and defects hold no reference back to their
    # frame: with the cyclic collector off, frames die with their Sample
    gc.disable()
    try:
        analysis = Analysis(load_map_spec("catalog:warped_fiber"),
                            AnalysisSettings(points=3))
        for name in CHECK_NAMES:
            analysis.entry(name)
        frames = [weakref.ref(frame) for frame in analysis.sample.frames()]
        assert all({"omega_defects", "phi_defects"} <= set(vars(ref()))
                   for ref in frames)
        del analysis
        assert [ref() for ref in frames] == [None] * 3
    finally:
        gc.enable()


TIGHTEN_ONLY = {"lambda_mu_consistency": 1e-8, "adapted_frame": 1e-10,
                "omega_defect_identity": 1e-10}


@pytest.mark.parametrize("tol", ["1e-12", "1e-3"])
def test_tol_reaches_every_check(tol, capsys):
    # --tol is the tolerance of all 18 checks; it may tighten lambda/mu and
    # the two exact identities below their fixed tolerance, never loosen them
    args = ["--map", "catalog:example4", "--samples", "5", "--tol", tol]
    main(["analyze"] + args)
    entries = json.loads(capsys.readouterr().out)["checks"]
    tols = {entry["name"]: entry["tol"] for entry in entries}
    assert len(tols) == 18
    assert tols == {name: min(float(tol), TIGHTEN_ONLY.get(name, math.inf))
                    for name in tols}
    for name in TIGHTEN_ONLY:
        main(["check", name] + args)
        (entry,) = json.loads(capsys.readouterr().out)["checks"]
        assert entry["tol"] == tols[name]


@pytest.mark.parametrize("name, frames", [("kahler", 0),
                                          ("riemannian_map", 5)])
def test_single_check_frame_budget(frame_builds, monkeypatch, capsys, name,
                                   frames):
    # kahler reads only the image points; riemannian_map one frame per point.
    # Each chart's metric is evaluated once per point it is needed at: once
    # per image for kahler, once per chart (source and target) per frame.
    metrics = []
    original = slantmap.linalg.InnerProduct.__init__

    def counted(self, *args, **kwargs):
        metrics.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(slantmap.linalg.InnerProduct, "__init__", counted)
    samples = 5
    assert main(["check", name, "--map", "catalog:warped_fiber",
                 "--samples", str(samples)]) == 0
    assert json.loads(capsys.readouterr().out)["checks"][0]["name"] == name
    assert len(frame_builds) == frames
    assert len(metrics) == (2 * frames if frames else samples)


@pytest.mark.parametrize("catalog_id", catalog_ids())
def test_single_check_matches_analyze(catalog_id, capsys):
    # `check NAME` computes only NAME's dependency closure; its output must
    # be the analyze entry, byte for byte, skip reasons and errors included
    loaded = load_map_spec(f"catalog:{catalog_id}")
    report = run_analysis(loaded, AnalysisSettings(points=5))
    for entry in report.checks:
        code = main(["check", entry.name, "--map", f"catalog:{catalog_id}",
                     "--samples", "5"])
        expected = render_report(Report(report.metadata, [entry]))
        assert capsys.readouterr().out == expected, entry.name
        assert code == (1 if entry.status in ("fail", "error") else 0)


def test_cli_unknown_check_lists_every_name(capsys):
    code = main(["check", "definitely_not_a_check", "--map",
                 "catalog:example4", "--samples", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "definitely_not_a_check" in err
    for name in EXPECTED_CHECKS | {"slant_classification"}:
        assert name in err


SQRT_REASON = ("ExpressionDomainError: sqrt of a negative value in "
               "subexpression 'sqrt(x1)'")
LOG_REASON = ("ExpressionDomainError: log of a non-positive value in "
              "subexpression 'log(x1)'")
NOT_RIEMANNIAN = ("skipped", "map is not Riemannian")
UNCLASSIFIED = ("skipped", "slant classification failed")
SLANT_NAMES = ("phi_squared_scaling", "q_squared_scaling",
               "lambda_mu_consistency", "adapted_frame", "omega_parallel",
               "phi_parallel", "omega_defect_identity", "sff_q_scaling",
               "harmonic_minimal_equivalence", "phwc", "pseudo_homothetic")


def _straddling_outcomes(target_checks, reason):
    return {**target_checks, "riemannian_map": ("error", reason),
            "sff_range_perp": NOT_RIEMANNIAN, "harmonic": NOT_RIEMANNIAN,
            "minimal_fibers": NOT_RIEMANNIAN, "totally_geodesic": NOT_RIEMANNIAN,
            "slant_classification": ("error", reason),
            **{name: UNCLASSIFIED for name in SLANT_NAMES}}


# Expected entries (status, reason): the first two sample points lie inside
# the domain and the third does not, so frames fail from there on.
STRADDLING = {
    "sqrt_metric": (
        {"source": {"dim": 2, "metric": [["sqrt(x1)", "0"], ["0", "1"]]},
         "components": ["x1", "0", "x2", "0"]},
        _straddling_outcomes({"almost_hermitian": ("pass", None),
                              "kahler": ("pass", None)}, SQRT_REASON)),
    "log_component": (
        {"source": {"dim": 2}, "components": ["log(x1)", "0", "x2", "0"]},
        _straddling_outcomes({"almost_hermitian": ("error", LOG_REASON),
                              "kahler": ("error", LOG_REASON)}, LOG_REASON)),
}


@pytest.mark.parametrize("case", sorted(STRADDLING))
def test_frame_failure_on_part_of_the_box(case, tmp_path, capsys):
    # the box straddles the domain edge, so frames fail at some sample points
    # only; the target checks read only image points, so they pass wherever
    # F itself is defined, and every entry is the same in the full report
    # and on its own
    overrides, expected = STRADDLING[case]
    doc = dict(MINIMAL_SPEC, domain={"box": [[-0.5, 2.0], [-1.0, 1.0]]},
               sampling={"points": 6}, **overrides)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    report = run_analysis(load_map_spec(str(path)))
    assert report.slant is None
    assert {c.name: (c.status, c.reason) for c in report.checks} == expected
    for name, (status, reason) in expected.items():
        code = main(["check", name, "--map", str(path)])
        single = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["status"], c.get("reason")) for c in single] == [(status, reason)]
        assert code == (1 if status == "error" else 0)


# exp(exp(exp(-8*x1))) overflows at the third sample point of the box (x1 near
# -0.26) and at neither of the first two, where 0 * it is exactly 0: each
# route below is the minimal map there and NaN from the third point on.
OVERFLOW = "0*exp(exp(exp(-8*x1)))"
OVERFLOW_ORIGIN = "exp(exp(exp(-8.0 * x1)))"
STANDARD_J = MINIMAL_SPEC["target"]["J"]
NON_FINITE = {
    "component": {"components": [f"x1 + {OVERFLOW}", "0", "x2", "0"]},
    "metric_entry": {"source": {"dim": 2,
                                "metric": [[f"1 + {OVERFLOW}", "0"], ["0", "1"]]}},
    "j_entry": {"target": {"dim": 4, "J": [[STANDARD_J[0][0], f"-1 + {OVERFLOW}",
                                            *STANDARD_J[0][2:]], *STANDARD_J[1:]]}},
}


@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_value_on_part_of_the_box(case, tmp_path, capsys):
    # an overflow fails with the point and the innermost non-finite
    # subexpression, where the frame (or F itself) is first evaluated there;
    # the J entry is evaluated at the image point
    box = [[-0.5, 2.0], [-1.0, 1.0]]
    doc = dict(MINIMAL_SPEC, domain={"box": box}, sampling={"points": 6},
               **NON_FINITE[case])
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    x1, x2 = (float(x) for x in sample_points(box, 6, 42)[2])
    point = [x1, 0.0, x2, 0.0] if case == "j_entry" else [x1, x2]
    reason = (f"ExpressionDomainError: non-finite value at point {point} in "
              f"subexpression '{OVERFLOW_ORIGIN}'")
    target_checks = {
        "component": {"almost_hermitian": ("error", reason),
                      "kahler": ("error", reason)},
        "metric_entry": {"almost_hermitian": ("pass", None),
                         "kahler": ("pass", None)},
        "j_entry": {"almost_hermitian": ("error", reason),
                    "kahler": ("skipped", "target is not almost Hermitian")},
    }[case]
    expected = _straddling_outcomes(target_checks, reason)
    # numpy's overflow in exp and 0 * inf are reported by the entries alone:
    # a RuntimeWarning would fail the test (filterwarnings in pyproject.toml)
    report = run_analysis(load_map_spec(str(path)))
    assert report.slant is None
    assert {c.name: (c.status, c.reason) for c in report.checks} == expected
    for name, entry in expected.items():
        code = main(["check", name, "--map", str(path)])
        single = json.loads(capsys.readouterr().out)["checks"]
        assert [(c["status"], c.get("reason")) for c in single] == [entry]
        assert code == (1 if entry[0] == "error" else 0)


def test_cli_overflow_leaves_stderr_empty(tmp_path):
    # the located entry is the whole report of an overflow: numpy's
    # RuntimeWarnings must not reach stderr of the console script
    doc = dict(MINIMAL_SPEC, source={"dim": 1}, domain={"box": [[-1.0, 2.0]]},
               components=["exp(exp(exp(3*x1)))", "0", "0", "0"])
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(doc))
    env = dict(os.environ,
               PYTHONPATH=str(Path(slantmap.__file__).resolve().parent.parent))
    run = subprocess.run([sys.executable, "-m", "slantmap.cli", "check",
                          "riemannian_map", "--map", str(path)],
                         capture_output=True, text=True, env=env)
    assert run.returncode == 1
    assert run.stderr == ""
    (entry,) = json.loads(run.stdout)["checks"]
    assert entry["status"] == "error"
    assert entry["reason"].startswith(
        "ExpressionDomainError: non-finite value at point [")
    assert entry["reason"].endswith(
        "in subexpression 'exp(exp(exp(3.0 * x1)))'")


def test_report_serialization_deterministic():
    loaded = load_map_spec("catalog:example4")
    loaded.settings.points = 6
    first = render_report(run_analysis(loaded))
    second = render_report(run_analysis(load_map_spec("catalog:example4"),
                                        loaded.settings))
    assert first == second
    parsed = json.loads(first)
    assert parsed["schema"] == "slantmap-report/1"
    assert parsed["summary"]["fail"] == 0


def test_report_float_precision():
    loaded = load_map_spec("catalog:example4")
    loaded.settings.points = 4
    text = render_report(run_analysis(loaded))
    parsed = json.loads(text)
    angle = parsed["slant"]["mean_angle"]
    assert abs(angle - math.acos(math.sqrt(2 / 3))) < 1e-12


def test_seed_changes_no_verdicts():
    for catalog_id in ("example4", "invariant", "warped_fiber", "nonslant"):
        loaded = load_map_spec(f"catalog:{catalog_id}")
        loaded.settings.points = 8
        base = {c.name: c.status for c in run_analysis(loaded).checks}
        loaded.settings.seed = 4242
        other = {c.name: c.status for c in run_analysis(loaded).checks}
        assert base == other, catalog_id


def test_cli_analyze_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(["analyze", "--map", "catalog:identity2", "--samples", "5",
                 "--out", str(out)])
    assert code == 0
    parsed = json.loads(out.read_text())
    assert parsed["metadata"]["map"] == "catalog:identity2"


def test_cli_analyze_stdout_byte_identical(tmp_path):
    argv = [sys.executable, "-m", "slantmap.cli", "analyze", "--map",
            "catalog:anti_invariant", "--samples", "6", "--pretty"]
    # the child runs from tmp_path, so a relative PYTHONPATH would not reach
    # the package under test: point it at the imported package's directory
    env = dict(os.environ,
               PYTHONPATH=str(Path(slantmap.__file__).resolve().parent.parent))
    first = subprocess.run(argv, capture_output=True, cwd=str(tmp_path), env=env)
    second = subprocess.run(argv, capture_output=True, cwd=str(tmp_path), env=env)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


def test_cli_exit_codes(tmp_path):
    assert main(["analyze", "--map", "catalog:example4", "--samples", "4",
                 "--out", str(tmp_path / "a.json")]) == 0
    assert main(["analyze", "--map", "catalog:nonslant", "--samples", "4",
                 "--out", str(tmp_path / "b.json")]) == 1
    assert main(["analyze", "--map", "catalog:bogus",
                 "--out", str(tmp_path / "c.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["analyze", "--map", str(bad)]) == 2


def test_cli_single_check(tmp_path, capsys):
    code = main(["check", "riemannian_map", "--map", "catalog:example4",
                 "--samples", "4"])
    captured = capsys.readouterr()
    assert code == 0
    parsed = json.loads(captured.out)
    assert len(parsed["checks"]) == 1
    assert parsed["checks"][0]["name"] == "riemannian_map"
    assert parsed["checks"][0]["status"] == "pass"

    code = main(["check", "harmonic", "--map", "catalog:curved_target",
                 "--samples", "4"])
    capsys.readouterr()
    assert code == 1

    code = main(["check", "definitely_not_a_check", "--map",
                 "catalog:example4", "--samples", "4"])
    assert code == 2



@pytest.mark.parametrize("command", [["analyze"], ["check", "harmonic"]])
@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--dirs", "0"),
                                         ("--tol", "-1"), ("--rank-tol", "0"),
                                         ("--seed", "-1"), ("--tol", "inf")])
def test_cli_rejects_bad_overrides(command, flag, value, capsys):
    # overrides follow the spec file's rules: exit 2 and name the flag
    code = main(command + ["--map", "catalog:example4", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: must be")

def test_cli_catalog_listing(capsys):
    assert main(["catalog"]) == 0
    out = capsys.readouterr().out
    assert "example4" in out
    assert "warped_fiber" in out


def test_domain_box_respected(tmp_path):
    doc = {
        "schema": "slantmap/1",
        "source": {"dim": 2, "metric": [["1/pow(x2,2)", "0"],
                                        ["0", "1/pow(x2,2)"]]},
        "target": {"dim": 2},
        "components": ["x1", "x2"],
        "domain": {"box": [[-1.0, 1.0], [0.5, 2.0]]},
    }
    path = tmp_path / "hyper.json"
    path.write_text(json.dumps(doc))
    loaded = load_map_spec(str(path))
    assert loaded.spec.box == ((-1.0, 1.0), (0.5, 2.0))
    loaded.settings.points = 5
    report = run_analysis(loaded)  # metric stays positive on the shifted box
    assert report.check("riemannian_map").status in ("pass", "fail")


REPORTS = Path(__file__).resolve().parent / "data" / "reports"
EXIT_CODES = json.loads((REPORTS / "exit_codes.json").read_text())


def _assert_report_matches(actual, expected, where="report"):
    # non-float values must be identical, floats within 1e-12 absolute
    if isinstance(expected, float):
        assert isinstance(actual, float), where
        assert abs(actual - expected) <= 1e-12, (where, actual, expected)
    elif isinstance(expected, dict):
        assert isinstance(actual, dict) and list(actual) == list(expected), where
        for key, value in expected.items():
            _assert_report_matches(actual[key], value, f"{where}/{key}")
    elif isinstance(expected, list):
        assert isinstance(actual, list) and len(actual) == len(expected), where
        for i, value in enumerate(expected):
            _assert_report_matches(actual[i], value, f"{where}/{i}")
    else:
        assert type(actual) is type(expected) and actual == expected, where


@pytest.mark.parametrize("catalog_id", sorted(EXIT_CODES))
def test_catalog_reports_match_golden_files(catalog_id, capsys):
    # tests/data/reports holds `analyze --pretty --samples 5 --seed 3` output
    # recorded before the checks moved onto shared per-frame matrices
    code = main(["analyze", "--map", f"catalog:{catalog_id}", "--pretty",
                 "--samples", "5", "--seed", "3"])
    actual = json.loads(capsys.readouterr().out)
    expected = json.loads((REPORTS / f"{catalog_id}.json").read_text())
    assert code == EXIT_CODES[catalog_id]
    _assert_report_matches(actual, expected)
