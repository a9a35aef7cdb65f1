import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import slantmap
from slantmap.catalog import CatalogError, catalog_ids, load_catalog
from slantmap.cli import main
from slantmap.loader import (AnalysisSettings, MapSpecError, load_map_spec,
                             map_spec_from_json)
from slantmap.report import render_report, run_analysis

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


def test_frame_budget_per_point(monkeypatch):
    # every check reads one frame per point; derivatives must not rebuild
    # frames off the sample points
    original = slantmap.maps.point_frame
    builds = []

    def counted(*args, **kwargs):
        builds.append(args[1])
        return original(*args, **kwargs)

    monkeypatch.setattr(slantmap.maps, "point_frame", counted)
    monkeypatch.setattr(slantmap.slant, "point_frame", counted)
    samples = 4
    run_analysis(load_map_spec("catalog:warped_fiber"),
                 AnalysisSettings(points=samples))
    assert 0 < len(builds) <= 15 * samples


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
