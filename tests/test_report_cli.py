import argparse
import dataclasses
import functools
import gc
import importlib.util
import json
import math
import os
import subprocess
import sys
import warnings
import weakref
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import slantmap
import slantmap.cli
import slantmap.maps
from slantmap.catalog import CatalogError, catalog_ids, load_catalog, standard_j
from slantmap.charts import ChartError, ChartManifold
from slantmap.cli import main
from slantmap.expressions import MAX_DEPTH
from slantmap.loader import (AnalysisSettings, LoadedMap, MapSpecError,
                             load_map_spec, map_spec_from_json)
from slantmap.maps import point_frame
from slantmap.report import (CHECK_NAMES, Analysis, Report, render_json,
                             render_report, run_analysis, sample_points)
from slantmap.result import CheckResult
from slantmap.slant import SlantReport, check_harmonic
from oracles import assert_report_matches, fresh_spec, sample_points_by_point
from test_expressions import NESTED
from test_linalg import UNFACTORABLE
from test_slant import _rank4_into_c3

MINIMAL_SPEC = {
    "schema": "slantmap/1",
    "source": {"dim": 2},
    "target": {"dim": 4, "J": [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
                               ["0", "0", "0", "-1"], ["0", "0", "1", "0"]]},
    "components": ["x1", "0", "x2", "0"],
}


def _no_constant(constant):
    raise ValueError(f"{constant} is no JSON value")


def strict_json(text):
    """text parsed as strict JSON, where NaN, Infinity and -Infinity are no
    values: a report writes them as the strings "nan", "inf" and "-inf"."""
    return json.loads(text, parse_constant=_no_constant)


def console(argv, cwd):
    """``python -m slantmap.cli *argv`` in a fresh process run from cwd, where
    numpy's RuntimeWarnings print to stderr instead of raising (pyproject.toml's
    filterwarnings): PYTHONPATH names the directory of the slantmap imported
    here, absolute, so the process runs the same copy, src/ or installed."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(slantmap.__file__).resolve().parent.parent))
    return subprocess.run([sys.executable, "-m", "slantmap.cli", *argv],
                          capture_output=True, text=True, cwd=str(cwd), env=env)


def test_catalog_has_required_entries():
    ids = catalog_ids()
    for required in ("identity2", "invariant", "anti_invariant", "example4",
                     "slant_plane", "compose_slant", "curved_target",
                     "warped_fiber", "nonslant"):
        assert required in ids


# the catalog's complex structures as they were written out before standard_j
STANDARD_J_LITERALS = {
    2: [["0", "-1"], ["1", "0"]],
    4: [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
        ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
}


@pytest.mark.parametrize("dim", [2, 4, 6, 8])
def test_standard_j_is_an_orthogonal_complex_structure(dim):
    entries = standard_j(dim)
    J = np.array(entries, dtype=float)
    assert np.array_equal(J @ J, -np.eye(dim))
    assert np.array_equal(J.T @ J, np.eye(dim))
    if dim in STANDARD_J_LITERALS:
        assert entries == STANDARD_J_LITERALS[dim]


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


@pytest.mark.parametrize("alpha", ["1e", ".", "1e999", "inf", "nan", "pi/4"])
def test_cli_rejects_a_catalog_parameter_that_is_no_finite_number(alpha,
                                                                  capsys):
    # 1e, . and pi/4 are no JSON numbers and 1e999 overflows a float: each
    # is an input error naming the parameter, not a traceback or an unknown
    # catalog id
    with pytest.raises(CatalogError, match="not a finite number"):
        load_catalog(f"slant_plane(alpha={alpha})")
    code = main(["check", "riemannian_map", "--map",
                 f"catalog:slant_plane(alpha={alpha})"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: /map: alpha=")


@pytest.mark.parametrize("alpha", ["1_0", " 0.3 ", "+0.3", ".5", "1."])
def test_catalog_parameter_is_a_json_number(alpha, capsys):
    # float reads these (1_0 as 10.0, " 0.3 " as 0.3); a JSON number is
    # written without digit-group underscores, spaces, a plus sign or a
    # bare point
    with pytest.raises(CatalogError, match=r"^'alpha=.* is not a finite number'$"):
        load_catalog(f"slant_plane(alpha={alpha})")
    assert main(["check", "riemannian_map", "--map",
                 f"catalog:slant_plane(alpha={alpha})"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: /map: alpha={alpha} is not a finite number\n"
    for number in ("0.3", "-0.0", "1e-05", "1E+2", "0"):
        assert load_catalog(f"slant_plane(alpha={number})").name == (
            f"slant_plane(alpha={float(number)!r})")


def test_load_map_spec_catalog_prefix():
    loaded = load_map_spec("catalog:identity2")
    assert loaded.origin == "catalog:identity2"
    assert loaded.digest is None


def test_catalog_id_with_surrounding_whitespace(capsys):
    # one rule for plain and parameterized ids; the origin keeps the id as given
    for identifier in (" example4", "example4 ", "\texample4\n",
                       " slant_plane(alpha=0.3) "):
        loaded = load_map_spec(f"catalog:{identifier}")
        assert loaded.spec is load_catalog(identifier.strip())
        assert loaded.origin == f"catalog:{identifier}"
    assert main(["check", "riemannian_map", "--map",
                 "catalog: slant_plane(alpha=inf) "]) == 2
    assert capsys.readouterr().err.startswith("error: /map: alpha=")


def test_catalog_map_is_built_once_and_frozen():
    spec = load_catalog("warped_fiber")
    assert load_catalog("warped_fiber") is spec
    assert load_catalog(f"warped_fiber(alpha={math.pi / 4!r})") is spec
    assert load_map_spec("catalog:warped_fiber").spec is spec
    assert all(a.compiled is b.compiled for a, b in
               zip(spec.components, load_catalog("warped_fiber").components))
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.name = "other"
    with pytest.raises(dataclasses.FrozenInstanceError):
        spec.source.metric = ()
    assert load_catalog("warped_fiber(alpha=0.3)") is not spec
    # the settings are the caller's own: writing to one load leaves the next
    first, second = (load_map_spec("catalog:warped_fiber") for _ in range(2))
    first.settings.points = 7
    assert second.settings == AnalysisSettings()


def test_catalog_key_tells_negative_zero_from_zero():
    # -0.0 == 0.0, yet the two maps differ in name and components
    slantmap.catalog._build.cache_clear()
    for first, second in (("0.0", "-0.0"), ("-0.0", "0.0")):
        one = load_catalog(f"slant_plane(alpha={first})")
        other = load_catalog(f"slant_plane(alpha={second})")
        for alpha, spec in ((first, one), (second, other)):
            assert spec.name == f"slant_plane(alpha={alpha})"
            c, s = math.cos(float(alpha)), math.sin(float(alpha))
            assert [str(e) for e in spec.components] == [
                "x1", f"x2 * {c!r}", f"x2 * {s!r}", "0.0"]
        assert [str(c) for c in one.components] != [str(c) for c in other.components]


def test_catalog_failures_are_not_kept():
    cache = slantmap.catalog._build
    assert cache.cache_info().maxsize is not None
    size = cache.cache_info().currsize
    for identifier in ("no_such_map", " no_such_map", "example4(alpha=0.3)",
                       "slant_plane(alpha=inf)", "slant_plane(alpha=nan)",
                       "slant_plane(alpha=1e)"):
        messages = []
        for _ in range(2):
            with pytest.raises(CatalogError) as failure:
                load_catalog(identifier)
            messages.append(str(failure.value))
        assert messages[0] == messages[1], identifier
    assert cache.cache_info().currsize == size


def _counted_parsing(monkeypatch) -> Counter:
    """Calls of parse_expression through every binding in the package, and
    ArgumentParser constructions, from here on."""
    calls = Counter()
    parse = slantmap.expressions.parse_expression
    for name, module in list(sys.modules.items()):
        if name == "slantmap" or name.startswith("slantmap."):
            for attribute, value in list(vars(module).items()):
                if value is parse:
                    def counted(*args, **kwargs):
                        calls["parse_expression"] += 1
                        return parse(*args, **kwargs)
                    monkeypatch.setattr(module, attribute, counted)
    init = argparse.ArgumentParser.__init__

    def counted_init(self, *args, **kwargs):
        calls["ArgumentParser"] += 1
        init(self, *args, **kwargs)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
    return calls


def test_cli_second_call_builds_no_parser_and_parses_no_formula(
        tmp_path, capsys, monkeypatch):
    argv = ["analyze", "--map", "catalog:kahler_twist", "--samples", "5"]
    first = main(argv), capsys.readouterr()
    calls = _counted_parsing(monkeypatch)
    second = main(argv), capsys.readouterr()
    assert not calls
    assert second == first
    assert first[1].out.strip() and first[1].err == ""
    # a map-spec file is read and parsed on every call
    path = tmp_path / "map.json"
    path.write_text(json.dumps(MINIMAL_SPEC))
    assert main(["analyze", "--map", str(path), "--samples", "3"]) == 0
    # (the source metric, the target metric and J, and the components)
    assert calls == {"parse_expression": 2 * 2 + 2 * 4 * 4 + 4}


def test_cli_rejects_dirs_after_a_successful_call(capsys):
    assert main(["analyze", "--map", "catalog:identity2", "--samples", "3"]) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exit_:
        main(["analyze", "--map", "catalog:identity2", "--dirs", "3"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --dirs" in capsys.readouterr().err


def test_cli_options_do_not_carry_into_the_next_call(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "--map", "catalog:identity2", "--samples", "3",
                 "--seed", "7", "--tol", "1e-6", "--pretty",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["metadata"]["samples"] == 3
    assert main(["analyze", "--map", "catalog:identity2"]) == 0
    text = capsys.readouterr().out
    assert "\n " not in text
    metadata = json.loads(text)["metadata"]
    assert (metadata["samples"], metadata["seed"], metadata["tolerances"]) == (
        50, 42, {"rank": 1e-8, "check": 1e-8, "angle": 1e-6})


@pytest.mark.parametrize("seed", [0, 42, 12345, 2**31 - 1, 2**63,
                                  12345678901234567890])
def test_sample_points_draws_the_points_of_the_per_point_loop(seed):
    gen = np.random.default_rng(seed)
    for dim in range(1, 5):
        lows = gen.uniform(-3.0, 1.0, dim)
        box = [(float(lo), float(lo + w)) for lo, w in
               zip(lows, gen.uniform(0.1, 4.0, dim))]
        for count in (0, 1, 50, 1025):
            points = sample_points(box, count, seed)
            expected = np.array(sample_points_by_point(box, count, seed),
                                dtype=float).reshape(count, dim)
            assert points.shape == (count, dim) and points.dtype == np.float64
            assert points.tobytes() == expected.tobytes(), (dim, count)


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


NOT_STRINGS = {
    # json reads each into a Python value that str() would turn into a formula
    "one": ({"source": {"dim": 2, "metric": [[1, 0], [0, 1]]}}, "/source/metric/0/0"),
    "true": ({"target": dict(MINIMAL_SPEC["target"], J=[
        [True, "-1", "0", "0"], *MINIMAL_SPEC["target"]["J"][1:]])}, "/target/J/0/0"),
    "400_digits": ({"source": {"dim": 2, "metric": [["1", "0"], ["0", 10 ** 399]]}},
                   "/source/metric/1/1"),
    "mixed_row": ({"source": {"dim": 2, "metric": [["1", 0.0], ["0.0", "1"]]}},
                  "/source/metric/0/1"),
}


@pytest.mark.parametrize("case", sorted(NOT_STRINGS))
def test_map_spec_rejects_chart_entries_that_are_not_strings(case, tmp_path, capsys):
    # a number or a literal is no expression string: [[1, 0], [0, 1]] loaded,
    # 10**399 became inf and true the unknown identifier 'True'
    overrides, pointer = NOT_STRINGS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(dict(MINIMAL_SPEC, **overrides)))
    with pytest.raises(MapSpecError) as err:
        load_map_spec(str(path))
    assert err.value.pointer == pointer
    assert main(["analyze", "--map", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {pointer}: must be an expression string\n"


def _nested_map(formula: str) -> dict:
    """A map with formula as a component and as both off-diagonal source
    metric entries, which from_strings compares as trees; |formula| <= 200
    keeps the metric positive definite."""
    return {"source": {"dim": 2, "metric": [["401", formula], [formula, "401"]]},
            "target": {"dim": 2, "J": [["0", "-1"], ["1", "0"]]},
            "components": [formula, "x2"], "sampling": {"points": 5}}


def _with_frames(count: int, call):
    """call(), made with count more frames on the stack."""
    return call() if count == 0 else _with_frames(count - 1, call)


@pytest.mark.parametrize("construct", sorted(NESTED))
def test_the_deepest_formula_runs_through_analyze(construct, tmp_path, capsys):
    # from a stack 250 frames deeper than the test's own: MAX_DEPTH leaves a
    # caller that much room under the default recursion limit
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(_nested_map(NESTED[construct][0](MAX_DEPTH))))
    argv = ["analyze", "--map", str(path), "--points", str(tmp_path / "points.json")]
    status = _with_frames(250, lambda: main(argv))
    captured = capsys.readouterr()
    assert status in (0, 1) and captured.err == ""
    entries = {c["name"]: c for c in json.loads(captured.out)["checks"]}
    assert entries["riemannian_map"]["status"] in ("pass", "fail")
    assert not [c for c in entries.values() if "RecursionError" in c.get("reason", "")]


@pytest.mark.parametrize("construct", sorted(NESTED))
@pytest.mark.parametrize("depth", [MAX_DEPTH + 1, 400, 5 * MAX_DEPTH])
def test_a_formula_too_deep_is_an_input_error(construct, depth, tmp_path, capsys):
    # a component's pointer, and a metric entry's chart, on one line; not a
    # traceback (exit 1) nor an unlocated RecursionError entry
    formula = NESTED[construct][0](depth)
    doc = _nested_map(formula)
    for pointer, spec in (("/source", doc),
                          ("/components", dict(doc, source={"dim": 2}))):
        path = tmp_path / "deep.json"
        path.write_text(json.dumps(spec))
        assert main(["check", "riemannian_map", "--map", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(
            f"error: {pointer}: formula nested more than {MAX_DEPTH} levels deep")
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n")


UNKNOWN_KEYS = {
    "top_level": ({"settings": {"points": 7}}, "/settings"),
    "tolerances_misspelt": ({"tolerance": {"check": 1e-3}}, "/tolerance"),
    "sampling": ({"sampling": {"point": 7}}, "/sampling/point"),
    "tolerances": ({"tolerances": {"checks": 1e-3}}, "/tolerances/checks"),
    "source": ({"source": {"dim": 2, "metrics": [["1", "0"], ["0", "1"]]}},
               "/source/metrics"),
    "target": ({"target": dict(MINIMAL_SPEC["target"], j=None)}, "/target/j"),
    "domain": ({"domain": {"box": [[-1, 1], [-1, 1]], "points": 7}},
               "/domain/points"),
    "escaped": ({"a/b~c": 1}, "/a~1b~0c"),
}


@pytest.mark.parametrize("case", sorted(UNKNOWN_KEYS))
def test_map_spec_rejects_unknown_keys(case, tmp_path, capsys):
    # a misspelt key would leave its setting at the default and run: at any
    # level, an unknown key is an input error naming its JSON pointer (exit 2)
    overrides, pointer = UNKNOWN_KEYS[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(dict(MINIMAL_SPEC, **overrides)))
    with pytest.raises(MapSpecError) as err:
        load_map_spec(str(path))
    assert err.value.pointer == pointer
    assert main(["analyze", "--map", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {pointer}: unknown key; expected one of ")


def test_map_spec_sampling_and_tolerances(tmp_path, capsys):
    doc = dict(MINIMAL_SPEC)
    doc["sampling"] = {"points": 7, "dirs": 3, "seed": 5}
    doc["tolerances"] = {"rank": 1e-9, "check": 1e-7, "angle": 1e-5}
    loaded = map_spec_from_json(doc)
    assert loaded.settings.points == 7
    assert loaded.settings.seed == 5
    assert loaded.settings.check_tol == 1e-7
    # the seed picks the points and nothing else: an older file's dirs is
    # ignored, and the file runs
    path = tmp_path / "old_dirs.json"
    path.write_text(json.dumps(doc))
    assert main(["analyze", "--map", str(path)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and strict_json(captured.out)["metadata"]["samples"] == 7


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
    """Points of every frame built, one entry per frame: the Sample and
    point_frame both build frames in stacks through maps.frame_block."""
    original = slantmap.maps.frame_block
    builds = []

    def counted(spec, points, *args, **kwargs):
        builds.extend(tuple(p) for p in points)
        return original(spec, points, *args, **kwargs)

    monkeypatch.setattr(slantmap.maps, "frame_block", counted)
    return builds


def test_frame_budget_per_point(frame_builds):
    # exactly one frame per sample point, shared by every check; derivatives
    # must not rebuild frames off the sample points
    samples = 4
    analysis = Analysis(load_map_spec("catalog:warped_fiber"),
                        AnalysisSettings(points=samples))
    for name in CHECK_NAMES:
        analysis.entry(name)
    assert Counter(frame_builds) == Counter(tuple(p) for p in analysis.sample.points)
    assert len(frame_builds) == samples


@pytest.fixture
def entry_evaluations(monkeypatch):
    """Points at which each expression (by id) is evaluated through the
    charts' jets."""
    original = slantmap.charts.eval_jets
    evaluated = Counter()

    def counted(expressions, p, order):
        for expr in expressions:
            evaluated[id(expr)] += len(np.atleast_2d(p))
        return original(expressions, p, order)

    monkeypatch.setattr(slantmap.charts, "eval_jets", counted)
    return evaluated


def _chart_entries(chart):
    """The entries a chart evaluates: the metric's upper triangle and J."""
    n = chart.dim
    entries = [chart.metric[i][j] for i in range(n) for j in range(i, n)]
    return entries + [e for row in chart.complex_structure or () for e in row]


def _is_constant(chart):
    return all(isinstance(e.compiled, float) for e in _chart_entries(chart))


def _entry_budget(chart, points):
    """Evaluations of each entry of a chart needed at ``points`` points, a
    count over runs: a varying chart's entries at every point, a constant
    chart's at one point on first use and at none after that."""
    return [1 if _is_constant(chart) else points] * len(_chart_entries(chart))


def _budget_map(name):
    if name == "warped_fiber":
        return load_catalog(name)
    if name == "rank4_into_c3":  # not a Riemannian map: no derivatives
        return _rank4_into_c3()
    # an isometric immersion along which the rotating J still turns
    return _rank4_into_c3(("x1", "x2", "cos(x3)", "x4", "sin(x3)", "0"))


# The adapted members of a FrameStack; a map that is not Riemannian forms
# only those that riemannian_map reads.
ADAPTED_MEMBERS = ("target_coframe", "source_coframe", "adapted_jacobian",
                   "j_blocks", "adapted_j_pushforward", "adapted_q",
                   "adapted_sff", "adapted_nabla_j", "sigma_inverse",
                   "horizontal_connection", "horizontal_derivatives")
ALWAYS_FORMED = ("target_coframe", "adapted_jacobian")


@pytest.mark.parametrize("name, derived", [("warped_fiber", True),
                                           ("rank4_into_c3", False),
                                           ("rank4_isometric_into_c3", True)])
def test_derivative_budget_per_frame(frame_builds, entry_evaluations,
                                     monkeypatch, name, derived):
    # each adapted member of a stack (F_*, J, the sff, nabla J along the
    # horizontal frame, Q, the horizontal connection and derivatives) is
    # formed once per sample point, over stacks of points: the points of the
    # stacks that form it add up to the sample exactly.  No metric adjoint
    # is solved and no chart-coordinate projector formed, and the public
    # section_derivatives is not called.  Every metric and J entry of a
    # varying target chart is evaluated once per image, for the frames and
    # both target checks together, and every varying source metric entry
    # once per sample point; a constant chart at one point on first use,
    # and at none in a second run.  Fresh charts make the counts
    # independent of what the process evaluated before.
    points = Counter()
    for member in ADAPTED_MEMBERS:
        form = vars(slantmap.maps.FrameStack)[member].func

        def counted(stack, form=form, member=member):
            points[member] += len(stack)
            return form(stack)

        cached = functools.cached_property(counted)
        cached.__set_name__(slantmap.maps.FrameStack, member)
        monkeypatch.setattr(slantmap.maps.FrameStack, member, cached)
    for owner, attribute in ((slantmap.linalg, "metric_adjoint"),
                             (slantmap.maps, "section_derivatives")):
        original = getattr(owner, attribute)

        def called(*args, attribute=attribute, original=original, **kwargs):
            points[attribute] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, called)
    for owner in (slantmap.linalg, slantmap.maps, slantmap.slant,
                  slantmap.maps.FrameStack):
        assert not hasattr(owner, "range_projector")
    samples = 4
    spec = _budget_map(name)
    spec = dataclasses.replace(spec, source=dataclasses.replace(spec.source),
                               target=dataclasses.replace(spec.target))
    assert {_is_constant(spec.source), _is_constant(spec.target)} == {True, False}
    for run in (1, 2):
        report = run_analysis(LoadedMap(spec, AnalysisSettings(points=samples),
                                        origin="inline"))
        assert report.check("kahler").status != "skipped"
        assert len(frame_builds) == samples * run
        per_point = samples * run if derived else 0
        expected = {member: samples * run if member in ALWAYS_FORMED else per_point
                    for member in ADAPTED_MEMBERS}
        if _is_constant(spec.source):
            # C1 serves the connection terms alone, which a constant source
            # chart (Gamma1 None) does not have
            expected["source_coframe"] = 0
        assert {member: points[member] for member in ADAPTED_MEMBERS} == expected
        assert points["metric_adjoint"] == points["section_derivatives"] == 0
        for chart in (spec.source, spec.target):
            assert [entry_evaluations[id(e)] for e in _chart_entries(chart)] == (
                _entry_budget(chart, samples * run))


@pytest.mark.parametrize("identifier", ["catalog:warped_fiber",
                                        "maps/warped_product.json"])
def test_metric_solve_budget(identifier, monkeypatch):
    # each InnerProduct inverts its Cholesky factor once, and every later
    # metric step reads its frame or inverse; the checks read the adapted
    # frames, so the one solve left is each stack's r x r Sigma^-1.  The
    # factorisation alone decides positive definiteness
    if not identifier.startswith("catalog:"):
        identifier = str(REPORTS.parent / identifier)
    counts = Counter()

    def counted(name, original):
        def call(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        return call

    for name in ("solve", "inv", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    monkeypatch.setattr(slantmap.linalg.InnerProduct, "__init__", counted(
        "InnerProduct", slantmap.linalg.InnerProduct.__init__))
    original_block = slantmap.maps.frame_block

    def block(*args, **kwargs):
        stacks = original_block(*args, **kwargs)
        counts["FrameStack"] += len(stacks)
        return stacks

    monkeypatch.setattr(slantmap.maps, "frame_block", block)
    run_analysis(load_map_spec(identifier))
    assert counts["FrameStack"] > 0
    assert counts["solve"] == counts["FrameStack"]
    assert counts["inv"] == counts["InnerProduct"]
    # every metric factors, so no eigenvalue is taken
    assert counts["eigvalsh"] == 0


def test_frames_are_freed_by_reference_counting():
    # the derivatives and defects cached on a stack hold no reference back
    # to it: with the cyclic collector off, the stacks of all three points
    # die with their Sample
    gc.disable()
    try:
        analysis = Analysis(load_map_spec("catalog:warped_fiber"),
                            AnalysisSettings(points=3))
        for name in CHECK_NAMES:
            analysis.entry(name)
        stacks = [weakref.ref(stack) for _, stack in analysis.sample.stacks()]
        assert all("horizontal_derivatives" in vars(ref()) for ref in stacks)
        assert sum(len(ref()) for ref in stacks) == 3
        del analysis
        assert [ref() for ref in stacks] == [None] * len(stacks)
    finally:
        gc.enable()


@pytest.mark.parametrize("identifier", ["catalog:warped_fiber",
                                        "warped_product.json"])
def test_horizontal_derivatives_hold_horizontal_pairs(identifier, monkeypatch):
    # after a run, each stack keeps nabla Q and the two defects on horizontal
    # pairs only, [:, a, :, b] along h_a at h_b: (len(stack), r, ., r)
    if not identifier.startswith("catalog:"):
        identifier = str(REPORTS.parent / "maps" / identifier)
    analyses = []

    class Recorded(Analysis):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            analyses.append(self)

    monkeypatch.setattr(slantmap.report, "Analysis", Recorded)
    run_analysis(load_map_spec(identifier))
    (analysis,) = analyses
    stacks = [stack for _, stack in analysis.sample.stacks()]
    assert stacks and all("horizontal_derivatives" in vars(s) for s in stacks)
    for stack in stacks:
        r = stack.rank
        assert r < stack.points.shape[1]
        derivatives = stack.horizontal_derivatives
        for field in fields(derivatives):
            shape = getattr(derivatives, field.name).shape
            assert (shape[:2], shape[3:]) == ((len(stack), r), (r,)), field.name


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
def test_single_check_frame_budget(frame_builds, entry_evaluations,
                                   monkeypatch, capsys, name, frames):
    # kahler reads only the image points; riemannian_map one frame per point.
    # warped_fiber's varying source metric is evaluated and validated once
    # per frame; its constant target chart at one point on the first run,
    # and at none on the second.  The catalog's specs are built afresh here,
    # so the counts do not depend on what the process evaluated before.
    monkeypatch.setattr(slantmap.catalog, "_build", functools.lru_cache(
        maxsize=32)(slantmap.catalog._build.__wrapped__))
    metrics = []
    original = slantmap.linalg.InnerProduct.__init__

    def counted(self, matrix, *args, **kwargs):
        metrics.extend(np.asarray(matrix).reshape(-1, *np.shape(matrix)[-2:]))
        original(self, matrix, *args, **kwargs)

    monkeypatch.setattr(slantmap.linalg.InnerProduct, "__init__", counted)
    samples = 5
    spec = load_catalog("warped_fiber")
    assert _is_constant(spec.target) and not _is_constant(spec.source)
    for run in (1, 2):
        assert main(["check", name, "--map", "catalog:warped_fiber",
                     "--samples", str(samples)]) == 0
        assert json.loads(capsys.readouterr().out)["checks"][0]["name"] == name
        assert len(frame_builds) == frames * run
        assert len(metrics) == frames * run + 1
        assert sorted(entry_evaluations.values()) == sorted(
            _entry_budget(spec.target, samples)
            + (_entry_budget(spec.source, samples * run) if frames else []))


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


def test_analysis_raises_for_an_unknown_check_name():
    # the library names the available checks as the CLI does, and a report
    # of names with an unknown one computes no entry
    analysis = Analysis(load_map_spec("catalog:example4"))
    message = ("no check 'nope' in the report; available: "
               + ", ".join(CHECK_NAMES))
    for call in (lambda: analysis.report(("phwc", "nope")),
                 lambda: analysis.entry("nope")):
        with pytest.raises(ValueError) as failure:
            call()
        assert str(failure.value) == message
    assert analysis.entries == {}


def test_cli_unknown_check_lists_every_name(capsys):
    code = main(["check", "definitely_not_a_check", "--map",
                 "catalog:example4", "--samples", "4"])
    assert code == 2
    err = capsys.readouterr().err
    assert "definitely_not_a_check" in err
    for name in EXPECTED_CHECKS | {"slant_classification"}:
        assert name in err


# the third of six sample points (seed 42) on [-0.5, 2] x [-1, 1], the first
# outside the domain of sqrt(x1) and log(x1)
STRADDLING_POINT = [float(x) for x in
                    sample_points([[-0.5, 2.0], [-1.0, 1.0]], 6, 42)[2]]
SQRT_REASON = ("ExpressionDomainError: sqrt of a negative value at point "
               f"{STRADDLING_POINT} in subexpression 'sqrt(x1)'")
LOG_REASON = ("ExpressionDomainError: log of a non-positive value at point "
              f"{STRADDLING_POINT} in subexpression 'log(x1)'")
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


# the target metric diag(x1, x1, 1, 1) is indefinite at the third image:
# the frames and the target checks read it alike
INDEFINITE_TARGET_REASON = (
    "metric is not positive definite at "
    f"{[STRADDLING_POINT[0], 0.0, STRADDLING_POINT[1], 0.0]}: inner product "
    f"is not positive definite (min eigenvalue {STRADDLING_POINT[0]:g})")


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
        _straddling_outcomes(
            {"almost_hermitian": ("error", LOG_REASON),
             "kahler": ("skipped", "target is not almost Hermitian")},
            LOG_REASON)),
    "target_metric": (
        {"target": dict(MINIMAL_SPEC["target"], metric=[
            [("x1" if i == j < 2 else "1" if i == j else "0") for j in range(4)]
            for i in range(4)])},
        _straddling_outcomes(
            {"almost_hermitian": ("error", INDEFINITE_TARGET_REASON),
             "kahler": ("skipped", "target is not almost Hermitian")},
            INDEFINITE_TARGET_REASON)),
}


# the target metric diag(x3, x3, 1, 1) is indefinite at the first image, two
# sample points before sqrt(x1) fails: the target checks report the chart's
# error there, as the frames do, and kahler is skipped
_X1, _X2 = (float(x) for x in sample_points([[-0.5, 2.0], [-1.0, 1.0]], 6, 42)[0])
EARLY_TARGET_REASON = (
    f"metric is not positive definite at {[math.sqrt(_X1), 0.0, _X2, 0.0]}: "
    f"inner product is not positive definite (min eigenvalue {_X2:g})")
TARGET_BEFORE_F = {
    "target_metric_before_component": (
        {"components": ["sqrt(x1)", "0", "x2", "0"],
         "target": dict(MINIMAL_SPEC["target"], metric=[
             [("x3" if i == j < 2 else "1" if i == j else "0") for j in range(4)]
             for i in range(4)])},
        _straddling_outcomes(
            {"almost_hermitian": ("error", EARLY_TARGET_REASON),
             "kahler": ("skipped", "target is not almost Hermitian")},
            EARLY_TARGET_REASON)),
}


# A constant subexpression outside its domain fails at every point: its
# error names the first sample point (seed 42) of the default box.  So does
# a constant target metric that is not positive definite, at the first image
# point: the chart is evaluated once per call, and not kept.
FIRST_POINT = [float(x) for x in sample_points([[-1.0, 1.0]] * 2, 50, 42)[0]]
CONSTANT_LOG_REASON = ("ExpressionDomainError: log of a non-positive value at "
                       f"point {FIRST_POINT} in subexpression 'log(-1.0)'")
J2 = [["0", "-1"], ["1", "0"]]
INDEFINITE_REASON = (
    f"metric is not positive definite at {[FIRST_POINT[0], 0.0, FIRST_POINT[1], 0.0]}"
    ": inner product is not positive definite (min eigenvalue -1)")
# a constant source metric that eigvalsh calls positive (least eigenvalue
# 2.8e-16) but that has no Cholesky factor, named at the first sample point
UNFACTORABLE_REASON = (
    "metric is not positive definite at "
    f"{[float(x) for x in sample_points([[-1.0, 1.0]] * 3, 50, 42)[0]]}: inner "
    "product is not positive definite (min eigenvalue "
    f"{np.linalg.eigvalsh(UNFACTORABLE).min():g})")
# a J-compatible target metric v v^T + (Jv)(Jv)^T of rank 2 of 4, whose
# least eigenvalue eigvalsh puts at -2.8e-16 and whose Cholesky factorisation
# completes: its frame misses orthonormality, so the frames and the target
# checks reject it alike, at the first image point
_V = np.array([1.0, 0.3, -0.7, 0.2])
_JV = np.array([[float(x) for x in row] for row in MINIMAL_SPEC["target"]["J"]]) @ _V
ROUNDING_BAND_METRIC = np.outer(_V, _V) + np.outer(_JV, _JV)
ROUNDING_BAND_REASON = (
    f"metric is not positive definite at {[FIRST_POINT[0], 0.0, FIRST_POINT[1], 0.0]}"
    ": inner product is not positive definite to working precision")
CONSTANT_DOMAIN = {
    "log_component": (
        {"target": {"dim": 2, "J": J2}, "components": ["x1", "x2 + log(-1)"]},
        CONSTANT_LOG_REASON,
        {"almost_hermitian": ("error", CONSTANT_LOG_REASON),
         "kahler": ("skipped", "target is not almost Hermitian")}),
    "log_target_metric": (
        {"target": {"dim": 2, "metric": [["log(-1)", "0"], ["0", "1"]], "J": J2},
         "components": ["x1", "x2"]},
        CONSTANT_LOG_REASON,
        {"almost_hermitian": ("error", CONSTANT_LOG_REASON),
         "kahler": ("skipped", "target is not almost Hermitian")}),
    "indefinite_target_metric": (
        {"target": dict(MINIMAL_SPEC["target"], metric=[
            [("-1" if i == j == 1 else "1" if i == j else "0") for j in range(4)]
            for i in range(4)])},
        INDEFINITE_REASON,
        {"almost_hermitian": ("error", INDEFINITE_REASON),
         "kahler": ("skipped", "target is not almost Hermitian")}),
    "unfactorable_source_metric": (
        {"source": {"dim": 3, "metric": [[repr(x) for x in row]
                                         for row in UNFACTORABLE.tolist()]},
         "components": ["x1", "x2", "x3", "0"]},
        UNFACTORABLE_REASON,
        {"almost_hermitian": ("pass", None), "kahler": ("pass", None)}),
    "rounding_band_target_metric": (
        {"target": dict(MINIMAL_SPEC["target"], metric=[
            [repr(x) for x in row] for row in ROUNDING_BAND_METRIC.tolist()])},
        ROUNDING_BAND_REASON,
        {"almost_hermitian": ("error", ROUNDING_BAND_REASON),
         "kahler": ("skipped", "target is not almost Hermitian")}),
}


@pytest.mark.parametrize("case", sorted(CONSTANT_DOMAIN))
def test_constant_domain_error_names_the_first_point(case, tmp_path, capsys):
    # the constant folds into a closure that fails on any stack of points;
    # the empty prefix before the first point evaluates to nothing, so the
    # error of that point is reported, through analyze and each check
    overrides, reason, target_checks = CONSTANT_DOMAIN[case]
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(dict(MINIMAL_SPEC, **overrides)))
    expected = _straddling_outcomes(target_checks, reason)
    assert main(["analyze", "--map", str(path)]) == 1
    report = strict_json(capsys.readouterr().out)
    assert {c["name"]: (c["status"], c.get("reason"))
            for c in report["checks"]} == expected
    for name, (status, reason) in expected.items():
        code = main(["check", name, "--map", str(path)])
        out, err = capsys.readouterr()
        single = strict_json(out)["checks"]
        assert [(c["status"], c.get("reason")) for c in single] == [(status, reason)]
        assert (code, err) == (1 if status == "error" else 0, "")


@pytest.mark.parametrize("case", sorted(STRADDLING) + sorted(TARGET_BEFORE_F))
def test_frame_failure_on_part_of_the_box(case, tmp_path, capsys):
    # the box straddles the domain edge, so frames fail at some sample points
    # only; the target checks read only the target chart at the images, so
    # they pass wherever F and that chart are defined, fail with F's error
    # where F is not, and every entry is the same in the full report and on
    # its own
    overrides, expected = {**STRADDLING, **TARGET_BEFORE_F}[case]
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
                      "kahler": ("skipped", "target is not almost Hermitian")},
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


# A domain error names the first point where it occurs: the sample point for
# a source component, the image point for an entry of J.
DOMAIN_EDGE = {
    "component": ({"components": ["x1", "sqrt(x1)", "x2", "0"]},
                  lambda x1, x2: [x1, x2]),
    "j_entry": ({"components": ["2*x1", "0", "x2", "0"],
                 "target": {"dim": 4, "J": [
                     [STANDARD_J[0][0], "-1 + 0*sqrt(x1)", *STANDARD_J[0][2:]],
                     *STANDARD_J[1:]]}},
                lambda x1, x2: [2 * x1, 0.0, x2, 0.0]),
}


@pytest.mark.parametrize("case", sorted(DOMAIN_EDGE))
def test_domain_error_names_its_point(case, tmp_path):
    overrides, located = DOMAIN_EDGE[case]
    box = [[-0.5, 1.0], [-1.0, 1.0]]
    doc = dict(MINIMAL_SPEC, domain={"box": box}, sampling={"points": 20},
               **overrides)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    first = next(p for p in sample_points(box, 20, 42) if p[0] < 0.0)
    reason = ("ExpressionDomainError: sqrt of a negative value at point "
              f"{located(*(float(x) for x in first))} in subexpression "
              "'sqrt(x1)'")
    report = run_analysis(load_map_spec(str(path)))
    assert report.check("riemannian_map").reason == reason
    assert report.check("almost_hermitian").reason == reason


# F_* is finite, but the Gram matrix of its horizontal part overflows
GRAM_OVERFLOW = {"source": {"dim": 2},
                 "target": {"dim": 2, "J": [["0", "-1"], ["1", "0"]]},
                 "components": ["1e300*x1", "x2"], "sampling": {"points": 5}}


def _gram_overflow_entry():
    """The riemannian_map entry of GRAM_OVERFLOW: an infinite residual,
    first reached at the first sample point."""
    box = [(-1.0, 1.0)] * 2
    point = [float(x) for x in sample_points(box, 5, 42)[0]]
    return {"name": "riemannian_map", "status": "fail", "residual": "inf",
            "tol": 1e-8, "samples": 5, "witness": {"point": point},
            "detail": {"rank": 1, "rank_constant": True,
                       "eikonal_residual": "inf"}}


def test_cli_overflow_leaves_stderr_empty(tmp_path):
    # the located entry is the whole report of an overflow: numpy's
    # RuntimeWarnings must not reach stderr of the console script, neither
    # from the jets nor from the checks' arithmetic
    jets = dict(MINIMAL_SPEC, source={"dim": 1}, domain={"box": [[-1.0, 2.0]]},
                components=["exp(exp(exp(3*x1)))", "0", "0", "0"])
    entries = {}
    for case, doc, command in (("jets", jets, ["check", "riemannian_map"]),
                               ("gram", GRAM_OVERFLOW, ["analyze"])):
        path = tmp_path / f"{case}.json"
        path.write_text(json.dumps(doc))
        run = console([*command, "--map", path.name], tmp_path)
        assert run.returncode == 1
        assert run.stderr == ""
        entries[case] = {entry["name"]: entry for entry
                         in strict_json(run.stdout)["checks"]}["riemannian_map"]
    assert entries["jets"]["status"] == "error"
    assert entries["jets"]["reason"].startswith(
        "ExpressionDomainError: non-finite value at point [")
    assert entries["jets"]["reason"].endswith(
        "in subexpression 'exp(exp(exp(3.0 * x1)))'")
    assert entries["gram"] == _gram_overflow_entry()


def test_gram_overflow_is_an_infinite_residual(tmp_path, capsys):
    # in-process, where a RuntimeWarning is an error, the entry is the one
    # the console script prints
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(GRAM_OVERFLOW))
    assert main(["analyze", "--map", str(path)]) == 1
    entries = strict_json(capsys.readouterr().out)["checks"]
    assert {e["name"]: e for e in entries}["riemannian_map"] == (
        _gram_overflow_entry())


def test_an_overflowing_residual_warns_through_no_route(tmp_path):
    # an analysis enters numpy's errstate once, in report() or in the
    # outermost entry(name): both give the infinite residual, no
    # RuntimeWarning, and leave numpy's error state as they found it
    path = tmp_path / "gram.json"
    path.write_text(json.dumps(GRAM_OVERFLOW))
    loaded = load_map_spec(str(path))
    before = np.geterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reported = Analysis(loaded).report().check("riemannian_map")
        direct = Analysis(loaded).entry("riemannian_map")
    assert np.geterr() == before
    for entry in (reported, direct):
        assert json.loads(render_json(entry.to_dict())) == _gram_overflow_entry()


# F_* and its Gram residual are finite, but the squares of the residual's
# entries (about 1e200) overflow
LARGE_GRAM = dict(GRAM_OVERFLOW, components=["1e100*x1", "x2"])
# the tension (0, 2e-170) and the Gram residual of F_* = [[1, 0], [e, 1]],
# e = 2e-170 x1, are finite, but their squares underflow
TINY_TENSION = dict(GRAM_OVERFLOW, components=["x1", "x2 + 1e-170*x1*x1"],
                    sampling={"points": 50})


def test_a_residual_whose_squares_overflow_is_itself(tmp_path, capsys):
    # the fold scales the entries by a power of two: the residual is finite,
    # and |F_*|^2 - rank F is the same number, to rounding
    path = tmp_path / "large.json"
    path.write_text(json.dumps(LARGE_GRAM))
    assert main(["check", "riemannian_map", "--map", str(path)]) == 1
    (entry,) = strict_json(capsys.readouterr().out)["checks"]
    box = [(-1.0, 1.0)] * 2
    assert entry["status"] == "fail"
    assert isinstance(entry["residual"], float) and 1e199 < entry["residual"] < 1e201
    assert entry["residual"] == pytest.approx(
        entry["detail"]["eikonal_residual"], rel=1e-12)
    assert entry["witness"] == {"point": sample_points(box, 5, 42)[0].tolist()}


def test_a_residual_whose_squares_underflow_is_itself(tmp_path):
    # at tolerance 1e-200 the Gram residual, sqrt(2) |e| at the largest |x1|,
    # fails the map, and harmonic, called on its own, fails on the tension
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY_TENSION))
    loaded = load_map_spec(str(path))
    loaded.settings.check_tol = 1e-200
    analysis = Analysis(loaded)
    x1 = np.abs(analysis.sample.points[:, 0]).max()
    riemannian = analysis.entry("riemannian_map")
    assert riemannian.status == "fail"
    assert riemannian.residual == pytest.approx(math.sqrt(2) * 2e-170 * x1,
                                                rel=1e-12)
    assert analysis.entry("harmonic").reason == "map is not Riemannian"
    harmonic = check_harmonic(analysis.sample, 1e-200)
    assert harmonic.status == "fail"
    assert harmonic.residual == pytest.approx(2e-170, rel=1e-12)
    assert harmonic.witness == {"point": analysis.sample.points[0].tolist()}


# Each rule's derivative at x1 near 1e-200 leaves the floats: x1 * x1
# underflows to zero under log's second derivative, and 1 / x1**3 overflows
# under the reciprocal's and the negative power's.
UNDERFLOW = {"log": ("log(x1)", "log(x1)"),
             "reciprocal": ("1/x1", "1.0 / x1"),
             "negative_power": ("pow(x1, -3)", "pow(x1, -3)")}


@pytest.mark.parametrize("rule", sorted(UNDERFLOW))
def test_underflowing_argument_gives_located_error(rule, tmp_path, capsys):
    component, subexpression = UNDERFLOW[rule]
    box = [[1e-200, 2e-200]]
    doc = dict(MINIMAL_SPEC, source={"dim": 1}, domain={"box": box},
               components=[component, "0", "0", "0"])
    path = tmp_path / f"{rule}.json"
    path.write_text(json.dumps(doc))
    point = [float(x) for x in sample_points(box, 50, 42)[0]]
    assert main(["check", "riemannian_map", "--map", str(path)]) == 1
    (entry,) = json.loads(capsys.readouterr().out)["checks"]
    assert entry["reason"] == (
        f"ExpressionDomainError: non-finite value at point {point} in "
        f"subexpression '{subexpression}'")


def _second_block_seed(box, block):
    """A sampling seed whose first point with x1 below -0.3 is in the second
    block of frames and comes after no point with x1 below zero."""
    for seed in range(1000):
        x1 = np.array(sample_points(box, 3 * block, seed))[:, 0]
        first = int(np.argmax(x1 < 0.0))
        if block <= first < 2 * block and x1[first] < -0.3:
            return seed, first
    raise AssertionError("no seed found")


# J and the target metric both fail where x1 <= 0: a frame reports the
# metric's error there, the almost Hermitian check J's
TWO_FAULTS = {"j_and_target_metric": {"target": {
    "dim": 4,
    "metric": [[("x1" if i == j < 2 else "1" if i == j else "0")
                for j in range(4)] for i in range(4)],
    "J": [[STANDARD_J[0][0], "-1 + 0*log(x1)", *STANDARD_J[0][2:]],
          *STANDARD_J[1:]]}}}


@pytest.mark.parametrize("case", sorted(STRADDLING) + sorted(NON_FINITE)
                         + sorted(TWO_FAULTS))
def test_failure_in_a_later_frame_block(case, tmp_path, monkeypatch):
    # the first failing point lies in the second block of frames: its entries
    # are those of a single block, and the frames before it still count
    box = [[-0.5, 2.0], [-1.0, 1.0]]
    seed, first = _second_block_seed(box, 4)
    overrides = {**STRADDLING, **NON_FINITE, **TWO_FAULTS}[case]
    if case in STRADDLING:
        overrides = overrides[0]
    doc = dict(MINIMAL_SPEC, domain={"box": box},
               sampling={"points": 12, "seed": seed}, **overrides)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))

    def entries():
        analysis = Analysis(load_map_spec(str(path)))
        report = {name: analysis.entry(name) for name in CHECK_NAMES}
        built = []
        with pytest.raises(Exception) as failure:
            for _, stack in analysis.sample.stacks():
                built.append(len(stack))
        assert sum(built) == first
        error = failure.value  # a ChartError's entry is its message alone
        assert report["riemannian_map"].reason == (
            str(error) if isinstance(error, ChartError)
            else f"{type(error).__name__}: {error}")
        # the classification fails on the same error, and writes it the same
        assert ((report["slant_classification"].status,
                 report["slant_classification"].reason)
                == (report["riemannian_map"].status,
                    report["riemannian_map"].reason))
        return {name: (e.status, e.reason) for name, e in report.items() if e}

    one_block = entries()
    monkeypatch.setattr(slantmap.maps, "FRAME_BLOCK", 4)
    assert entries() == one_block
    assert one_block["riemannian_map"][0] == "error"
    if case in TWO_FAULTS:
        x1, x2 = (float(x) for x in sample_points(box, 12, seed)[first])
        assert one_block["riemannian_map"][1].startswith(
            "metric is not positive definite at")
        assert one_block["almost_hermitian"] == ("error", (
            "ExpressionDomainError: log of a non-positive value at point "
            f"{[x1, 0.0, x2, 0.0]} in subexpression 'log(x1)'"))


# an almost Hermitian target whose metric and J both vary along the image
VARYING_TARGET = dict(MINIMAL_SPEC, target={
    "dim": 4,
    "metric": [[("exp(x1)" if i == j else "0") for j in range(4)]
               for i in range(4)],
    "J": [["0", "-cos(x1)", "0", "-sin(x1)"], ["cos(x1)", "0", "-sin(x1)", "0"],
          ["0", "sin(x1)", "0", "-cos(x1)"], ["sin(x1)", "0", "cos(x1)", "0"]]},
    components=["x1", "x1*x2", "x2", "0"])


@pytest.mark.parametrize("identifier", ["catalog:warped_fiber",
                                        "catalog:kahler_twist", "varying"])
def test_frame_blocks_do_not_change_reports(identifier, tmp_path, monkeypatch):
    # frames built four points at a time read the target chart at their own
    # images: the report is the one of a single block, byte for byte
    if identifier == "varying":
        identifier = str(tmp_path / "varying.json")
        Path(identifier).write_text(json.dumps(VARYING_TARGET))
    loaded = load_map_spec(identifier)
    settings = AnalysisSettings(points=10, seed=7)
    one_block = render_report(run_analysis(loaded, settings))
    monkeypatch.setattr(slantmap.maps, "FRAME_BLOCK", 4)
    assert render_report(run_analysis(loaded, settings)) == one_block


def test_report_serialization_deterministic():
    loaded = load_map_spec("catalog:example4")
    loaded.settings.points = 6
    first = render_report(run_analysis(loaded))
    second = render_report(run_analysis(load_map_spec("catalog:example4"),
                                        loaded.settings))
    assert first == second
    parsed = json.loads(first)
    assert parsed["schema"] == "slantmap-report/2"
    assert parsed["summary"]["fail"] == 0


def test_report_float_precision():
    loaded = load_map_spec("catalog:example4")
    loaded.settings.points = 4
    text = render_report(run_analysis(loaded))
    parsed = json.loads(text)
    angle = parsed["slant"]["mean_angle"]
    assert abs(angle - math.acos(math.sqrt(2 / 3))) < 1e-12


# The writer's bytes for special and mixed values: floats in Python's
# shortest round-trip form, NaN and the infinities as strings.
WRITER_COMPACT = (
    '{"schema":"slantmap-report/2","metadata":{"map":"demo",'
    '"samples":3},"checks":[{"name":"demo","status":"fail",'
    '"residual":"inf","tol":1e-08,"samples":3,"witness":{"point":[0.25,'
    '-0.0,1e-17]},"detail":{"values":["nan","inf","-inf",-0.0,3.0,1e+16,'
    '0.1,2.5e-300,-1.0000000000000002],"mixed":[1.5,2,-7.0,'
    '0.30000000000000004,true,null],"empty":[],"nested":[[1.0,2.0],[],[3.5]]}}],'
    '"summary":{"pass":0,"fail":1,"skipped":0,"error":0}}'
    "\n")
WRITER_PRETTY = (
    '{\n'
    '  "schema": "slantmap-report/2",\n'
    '  "metadata": {\n'
    '    "map": "demo",\n'
    '    "samples": 3\n'
    '  },\n'
    '  "checks": [\n'
    '    {\n'
    '      "name": "demo",\n'
    '      "status": "fail",\n'
    '      "residual": "inf",\n'
    '      "tol": 1e-08,\n'
    '      "samples": 3,\n'
    '      "witness": {\n'
    '        "point": [\n'
    '          0.25,\n'
    '          -0.0,\n'
    '          1e-17\n'
    '        ]\n'
    '      },\n'
    '      "detail": {\n'
    '        "values": [\n'
    '          "nan",\n'
    '          "inf",\n'
    '          "-inf",\n'
    '          -0.0,\n'
    '          3.0,\n'
    '          1e+16,\n'
    '          0.1,\n'
    '          2.5e-300,\n'
    '          -1.0000000000000002\n'
    '        ],\n'
    '        "mixed": [\n'
    '          1.5,\n'
    '          2,\n'
    '          -7.0,\n'
    '          0.30000000000000004,\n'
    '          true,\n'
    '          null\n'
    '        ],\n'
    '        "empty": [],\n'
    '        "nested": [\n'
    '          [\n'
    '            1.0,\n'
    '            2.0\n'
    '          ],\n'
    '          [],\n'
    '          [\n'
    '            3.5\n'
    '          ]\n'
    '        ]\n'
    '      }\n'
    '    }\n'
    '  ],\n'
    '  "summary": {\n'
    '    "pass": 0,\n'
    '    "fail": 1,\n'
    '    "skipped": 0,\n'
    '    "error": 0\n'
    '  }\n'
    '}\n')


def test_writer_bytes_for_special_and_mixed_floats():
    values = [float("nan"), float("inf"), float("-inf"), -0.0, 3.0, 1e16,
              np.float64(0.1), 2.5e-300, -1.0000000000000002]
    mixed = [1.5, 2, np.float64(-7.0), 0.30000000000000004, True, None]
    check = CheckResult("demo", "fail", residual=float("inf"), tol=1e-8,
                        samples=3,
                        witness={"point": (0.25, -0.0, np.float64(1e-17))},
                        detail={"values": values, "mixed": mixed, "empty": [],
                                "nested": [[1.0, 2.0], [], (3.5,)]})
    report = Report({"map": "demo", "samples": 3}, [check])
    assert render_report(report) == WRITER_COMPACT
    assert render_report(report, pretty=True) == WRITER_PRETTY
    for text in (WRITER_COMPACT, WRITER_PRETTY):
        _assert_floats_round_trip(report.to_dict(), json.loads(text))


def _plain_route(report, pretty):
    layout = {"indent": 2} if pretty else {"separators": (",", ":")}
    return json.dumps(slantmap.report._plain(report.to_dict()),
                      ensure_ascii=False, allow_nan=False, **layout) + "\n"


@pytest.mark.parametrize("identifier", sorted(
    [f"catalog:{c}" for c in catalog_ids()]
    + [str(p) for p in (Path(__file__).resolve().parent / "data" / "maps")
       .glob("*.json")]))
def test_finite_reports_skip_the_plain_walk(identifier, monkeypatch):
    # json writes tuples as lists, so a report without NaN or an infinity is
    # written, byte for byte, as the _plain walk writes it, without the walk;
    # one with them takes the walk and writes them as strings
    report = run_analysis(load_map_spec(identifier))
    expected = [_plain_route(report, pretty) for pretty in (False, True)]
    walks = []
    plain = slantmap.report._plain
    monkeypatch.setattr(slantmap.report, "_plain",
                        lambda value: walks.append(1) or plain(value))
    assert [render_report(report, pretty) for pretty in (False, True)] == expected
    assert walks == []
    first, second = report.checks[:2]
    report.checks[:2] = [dataclasses.replace(first, residual=math.nan),
                         dataclasses.replace(second, residual=-math.inf)]
    for pretty in (False, True):
        text = render_report(report, pretty)
        assert text == _plain_route(report, pretty)
        checks = json.loads(text)["checks"]
        assert (checks[0]["residual"], checks[1]["residual"]) == ("nan", "-inf")
    assert walks


def _assert_floats_round_trip(written, parsed, where="report"):
    # every float parses back to the same double, sign of zero included;
    # NaN and the infinities are their strings
    if isinstance(written, dict):
        assert list(parsed) == list(written), where
        for key, value in written.items():
            _assert_floats_round_trip(value, parsed[key], f"{where}/{key}")
    elif isinstance(written, (list, tuple)):
        assert len(parsed) == len(written), where
        for i, value in enumerate(written):
            _assert_floats_round_trip(value, parsed[i], f"{where}/{i}")
    elif isinstance(written, (float, np.floating)):
        x = float(written)
        if math.isfinite(x):
            assert type(parsed) is float and parsed.hex() == x.hex(), where
        else:
            assert parsed == ("nan" if math.isnan(x) else repr(x)), where


@pytest.mark.parametrize("identifier", ["catalog:nonslant",
                                        "catalog:warped_fiber",
                                        "catalog:curved_target"])
def test_report_floats_round_trip(identifier):
    report = run_analysis(load_map_spec(identifier), AnalysisSettings(points=7))
    for pretty in (False, True):
        _assert_floats_round_trip(report.to_dict(),
                                  json.loads(render_report(report, pretty)))


def test_records_write_their_fields_in_declaration_order():
    # one rule writes every report record: its dataclass's fields in
    # declaration order, without those that are None or an empty dict
    full = CheckResult("c", "fail", residual=0.5, tol=1e-8, samples=3,
                       reason="r", witness={"point": [0.0]}, detail={"k": 1})
    assert full.to_dict() == {
        "name": "c", "status": "fail", "residual": 0.5, "tol": 1e-8,
        "samples": 3, "reason": "r", "witness": {"point": [0.0]},
        "detail": {"k": 1}}
    assert list(full.to_dict()) == [f.name for f in fields(CheckResult)]
    bare = CheckResult("c", "pass", detail={})
    assert bare.to_dict() == {"name": "c", "status": "pass"}

    order = ["classification", "angle_tol", "rank", "mean_angle",
             "max_deviation", "lambda_estimate", "lambda_residual",
             "mu_estimate", "mu_residual", "omega_parallel", "omega_defect",
             "phi_parallel", "phi_defect", "phwc", "phwc_residual",
             "pseudo_homothetic", "pseudo_homothetic_residual", "witness"]
    values = {name: index for index, name in enumerate(order)}
    values["witness"] = {"point": [0.0], "angle": 0.5}
    assert list(SlantReport(**values).to_dict().items()) == list(values.items())
    assert SlantReport("not_riemannian", 1e-6).to_dict() == {
        "classification": "not_riemannian", "angle_tol": 1e-6}


def _numpy_scalars(value, where="report"):
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _numpy_scalars(item, f"{where}/{key}")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _numpy_scalars(item, f"{where}/{i}")
    elif isinstance(value, np.generic):
        yield where, type(value).__name__


@pytest.mark.parametrize("identifier", sorted(
    [f"catalog:{c}" for c in catalog_ids()]
    + [str(p) for p in (Path(__file__).resolve().parent / "data" / "maps")
       .glob("*.json")]))
def test_report_values_are_python_scalars(identifier):
    # the writer converts no numpy scalar: every check hands over Python
    # floats, ints and bools
    report = run_analysis(load_map_spec(identifier))
    assert list(_numpy_scalars(report.to_dict())) == []


def test_adapted_frame_error_names_its_point():
    # at angle_tol 0.7 nonslant is classified invariant, and Q vanishes at
    # some points: the error names the first sample point whose frame fails
    loaded = load_map_spec("catalog:nonslant")
    loaded.settings.angle_tol = 0.7
    analysis = Analysis(loaded)
    assert analysis.slant.classification == "invariant"
    text = "Q vanishes for an anti-invariant map: no adapted frame"
    entry = analysis.entry("adapted_frame")
    prefix = f"ValueError: {text} at point "
    assert entry.status == "error" and entry.reason.startswith(prefix)
    point = json.loads(entry.reason[len(prefix):])
    points = analysis.sample.points.tolist()
    for p in points[:points.index(point)]:
        point_frame(loaded.spec, p).adapted_frame(0.7)
    with pytest.raises(ValueError) as failure:
        point_frame(loaded.spec, point).adapted_frame(0.7)
    assert str(failure.value) == text



def test_ill_conditioned_split_names_its_point(tmp_path):
    # the source metric has condition number near 1e8, far above the limit
    # that keeps its frame L^{-T} orthonormal within 1e-10, so it is not
    # positive definite to working precision: the entry and point_frame name
    # the first sample point where that happens
    doc = dict(MINIMAL_SPEC, sampling={"points": 20},
               source={"dim": 2, "metric": [["1", "x1"], ["x1", "1"]]},
               domain={"box": [[0.9999999, 0.99999999], [-1, 1]]})
    path = tmp_path / "ill_conditioned.json"
    path.write_text(json.dumps(doc))
    loaded = load_map_spec(str(path))
    analysis = Analysis(loaded)
    entry = analysis.entry("riemannian_map")
    point = [0.9999999696560443, -0.12224312049589536]
    text = (f"metric is not positive definite at {point}: inner product is "
            "not positive definite to working precision")
    assert (entry.status, entry.reason) == ("error", text)
    assert analysis.entry("slant_classification").reason == entry.reason
    points = analysis.sample.points.tolist()
    for p in points[:points.index(point)]:
        point_frame(loaded.spec, p)
    with pytest.raises(ValueError) as failure:
        point_frame(loaded.spec, point)
    assert str(failure.value) == text

# One case or more per gate of report.CHECKS: (map, check, skip reason).
GATE_SPECS = {
    "no_j": {"target": {"dim": 4}},
    "not_hermitian": {"target": {"dim": 4, "J": STANDARD_J, "metric": [
        ["2", "0", "0", "0"], ["0", "1", "0", "0"], ["0", "0", "1", "0"],
        ["0", "0", "0", "1"]]}},
    "not_riemannian": {"components": ["2*x1", "0", "x2", "0"]},
    "unclassified": {"components": ["log(x1)", "0", "x2", "0"],
                     "domain": {"box": [[-0.5, 2.0], [-1.0, 1.0]]}},
}
NO_J = "target has no complex structure"
OMEGA = "precondition unmet: omega is not parallel"
IMMERSION = "map is an immersion: the kernel is trivial"
GATE_CASES = [
    ("no_j", "almost_hermitian", NO_J), ("no_j", "kahler", NO_J),
    ("no_j", "slant_classification", NO_J), ("no_j", "phwc", NO_J),
    ("not_hermitian", "kahler", "target is not almost Hermitian"),
    ("not_riemannian", "harmonic", "map is not Riemannian"),
    ("not_riemannian", "phwc", "map is not Riemannian"),
    ("unclassified", "phwc", "slant classification failed"),
    ("nonslant", "lambda_mu_consistency", "classification is not_slant"),
    ("nonslant", "sff_q_scaling",
     "precondition unmet: classification is not_slant"),
    ("nonslant", "pseudo_homothetic", "classification is not_slant"),
    ("anti_invariant", "adapted_frame", "classification is anti_invariant: "
                                        "sec(angle) construction undefined"),
    ("anti_invariant", "phwc",
     "the induced horizontal structure is undefined at angle pi/2"),
    ("anti_invariant", "pseudo_homothetic",
     "precondition unmet: map is not PHWC"),
    ("kahler_twist", "sff_q_scaling", OMEGA),
    ("kahler_twist", "harmonic_minimal_equivalence", OMEGA),
    ("slant_plane", "minimal_fibers", IMMERSION),
    ("slant_plane", "harmonic_minimal_equivalence", IMMERSION),
]


@pytest.mark.parametrize("map_id, name, reason", GATE_CASES)
def test_every_gate_skips_with_its_reason(map_id, name, reason, tmp_path):
    # the check functions assume their preconditions; Analysis.entry applies
    # the gates of report.CHECKS
    if map_id in GATE_SPECS:
        path = tmp_path / f"{map_id}.json"
        path.write_text(json.dumps({**MINIMAL_SPEC, **GATE_SPECS[map_id]}))
        loaded = load_map_spec(str(path))
    else:
        loaded = load_map_spec(f"catalog:{map_id}")
    loaded.settings.points = 6
    entry = Analysis(loaded).entry(name)
    assert (entry.status, entry.reason) == ("skipped", reason)


def test_each_quantity_is_reduced_once(monkeypatch):
    # the phwc residual and the mixed sff are reduced once per stack, by the
    # phwc and pseudo_homothetic checks, whose outcomes the slant block
    # copies; the report looks each check function up when it calls it.  A
    # catalog spec keeps the norms an earlier analysis formed, so the count
    # is taken on a fresh spec
    loaded = load_map_spec("catalog:example4")
    loaded.spec = fresh_spec(loaded.spec)
    loaded.settings.points = 50
    stacks = len(list(Analysis(loaded).sample.stacks()))
    calls = Counter()

    def count(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(module, name, counted)

    for name in ("structure_residuals", "mixed_sff"):
        count(slantmap.slant, name)
    for name in ("check_phwc", "check_pseudo_homothetic"):
        count(slantmap.report, name)
    report = run_analysis(loaded)
    assert calls == {"structure_residuals": stacks, "mixed_sff": stacks,
                     "check_phwc": 1, "check_pseudo_homothetic": 1}
    for name in ("phwc", "pseudo_homothetic"):
        entry = report.check(name)
        assert entry.passed and getattr(report.slant, name) is True
        assert getattr(report.slant, f"{name}_residual") == entry.residual


@pytest.mark.parametrize("block", [1, 7, 1024])
@pytest.mark.parametrize("map_id", ["example4", "warped_fiber"])
def test_each_check_walks_the_stacks_once(map_id, block, monkeypatch):
    # a check folds every residual it names in one walk of Sample.stacks,
    # however many blocks the frames take (the Riemannian test its ranks and
    # eikonal residual too, adapted_frame its failure codes); the
    # classification walks them twice, for the angles and the traces of its
    # fits, then for its folds
    loaded = load_map_spec(f"catalog:{map_id}")
    loaded.settings.points = 20
    monkeypatch.setattr(slantmap.maps, "FRAME_BLOCK", block)
    walks = []
    stacks = slantmap.maps.Sample.stacks
    monkeypatch.setattr(slantmap.maps.Sample, "stacks",
                        lambda self: walks.append(1) or stacks(self))
    analysis = Analysis(loaded)
    for name, expected in (("riemannian_map", 1), ("sff_range_perp", 1),
                           ("harmonic", 1), ("minimal_fibers", 1),
                           ("slant_classification", 2), ("adapted_frame", 1),
                           ("omega_defect_identity", 1), ("sff_q_scaling", 1),
                           ("totally_geodesic", 1), ("phwc", 1),
                           ("pseudo_homothetic", 1)):
        walks.clear()
        entry = analysis.entry(name)
        assert (entry is None or entry.status in ("pass", "fail")), name
        assert len(walks) == expected, name


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
    # --out gets stdout's bytes, and stdout nothing; --points beside a check
    # writes a record per sample point
    points = tmp_path / "points.json"
    for command, extra in ((["analyze"], []), (["check", "slant_classification"],
                                               ["--points", str(points)])):
        argv = command + ["--map", "catalog:example4"]
        assert main(argv) == 0
        written = capsys.readouterr()
        assert written.err == ""
        assert main(argv + ["--out", str(out)] + extra) == 0
        assert capsys.readouterr() == ("", "")
        assert out.read_text() == written.out
        strict_json(written.out)
    assert len(strict_json(points.read_text())) == 50


def test_cli_analyze_stdout_byte_identical(tmp_path):
    argv = ["analyze", "--map", "catalog:anti_invariant", "--samples", "6",
            "--pretty"]
    first = console(argv, tmp_path)
    second = console(argv, tmp_path)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert first.stdout.strip()


@pytest.mark.parametrize("command", [["analyze"], ["check", "harmonic"]])
def test_cli_unwritable_out_is_an_input_error(command, tmp_path, capsys,
                                              monkeypatch):
    # reported before any check runs
    calls = Counter()

    def counted(name, function):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Analysis, "report", counted("report", Analysis.report))
    monkeypatch.setattr(Analysis, "entry", counted("entry", Analysis.entry))
    out = tmp_path / "missing" / "report.json"
    code = main(command + ["--map", "catalog:identity2", "--samples", "3",
                           "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --out: ")
    assert not out.parent.exists()
    assert not calls


def test_cli_unknown_check_leaves_out_as_it_was(tmp_path, capsys):
    out = tmp_path / "report.json"
    out.write_text("kept")
    code = main(["check", "no_such_check", "--map", "catalog:identity2",
                 "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: no check 'no_such_check'")
    assert out.read_text() == "kept"
    assert main(["check", "harmonic", "--map", "catalog:identity2",
                 "--samples", "3", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["checks"][0]["name"] == "harmonic"


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


def test_cli_single_check_slant_classification(capsys):
    # a classification that ran has no check entry: its report is analyze's
    # slant block alone
    args = ["--map", "catalog:example4", "--samples", "4"]
    code = main(["check", "slant_classification"] + args)
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    parsed = json.loads(captured.out)
    assert parsed["checks"] == []
    assert main(["analyze"] + args) == 0
    assert parsed["slant"] == json.loads(capsys.readouterr().out)["slant"]


# a target without J, where the classification is skipped, and a source
# metric that is not positive definite where x1 <= 0, where it errors
REPORT_NAMES_MAPS = {
    "no_j": dict(MINIMAL_SPEC, target={"dim": 4}),
    "indefinite": dict(MINIMAL_SPEC, source={"dim": 2, "metric": [
        ["x1", "0"], ["0", "1"]]}),
}


@pytest.mark.parametrize("map_id, classification", [
    ("catalog:example4", "ran"), ("no_j", "skipped"), ("indefinite", "error")])
def test_report_of_names_is_what_the_cli_writes(map_id, classification,
                                                tmp_path, capsys):
    # report((name,)) is check NAME's report, report() is analyze's
    if map_id in REPORT_NAMES_MAPS:
        path = tmp_path / f"{map_id}.json"
        path.write_text(json.dumps(REPORT_NAMES_MAPS[map_id]))
        map_id = str(path)
    loaded = load_map_spec(map_id)
    settings = dataclasses.replace(loaded.settings, points=7)
    argv = ["--map", map_id, "--samples", "7"]

    def written(command):
        main(command + argv)
        return capsys.readouterr().out

    single = Analysis(loaded, settings).report(("slant_classification",))
    assert (single.slant is not None if classification == "ran"
            else single.checks[0].status == classification)
    if classification == "error":  # a ChartError is its message alone
        assert single.checks[0].reason.startswith(
            "metric is not positive definite at [")
    for name in CHECK_NAMES:
        assert render_report(Analysis(loaded, settings).report(
            (name,))) == written(["check", name]), name
    whole = render_report(Analysis(loaded, settings).report())
    assert whole == render_report(Analysis(loaded, settings).report(
        CHECK_NAMES)) == written(["analyze"])


@pytest.mark.parametrize("command", [["analyze"], ["check", "harmonic"]])
@pytest.mark.parametrize("flag, value", [("--samples", "0"), ("--dirs", "0"),
                                         ("--tol", "-1"), ("--rank-tol", "0"),
                                         ("--seed", "-1"), ("--tol", "inf")])
def test_cli_rejects_bad_overrides(command, flag, value, capsys):
    # overrides follow the spec file's rules: exit 2 and name the flag;
    # --dirs is no option, so argparse exits 2 on it
    if flag == "--dirs":
        with pytest.raises(SystemExit) as exit_:
            main(command + ["--map", "catalog:example4", flag, value])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --dirs" in capsys.readouterr().err
        return
    code = main(command + ["--map", "catalog:example4", flag, value])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {flag}: must be")

@pytest.mark.parametrize("command", [["analyze"], ["check", "harmonic"]])
@pytest.mark.parametrize("flag, value, bound, below", [
    ("--rank-tol", "1", "1", "0.999"), ("--rank-tol", "1.5", "1", "0.999"),
    ("--angle-tol", "0.8", "pi/4", "0.785"),
    ("--angle-tol", repr(math.pi / 4), "pi/4", repr(math.pi / 4 - 1e-16))])
def test_cli_rejects_tolerances_at_their_bounds(command, flag, value, bound,
                                                below, capsys):
    # a rank cutoff of 1 or more gave rank 0 to every map, and an angle
    # tolerance of pi/4 or more called a proper slant map invariant
    code = main(command + ["--map", "catalog:slant_plane(alpha=0.7)",
                           "--samples", "5", flag, value])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: {flag}: must be below {bound}\n"
    assert main(command + ["--map", "catalog:slant_plane(alpha=0.7)",
                           "--samples", "5", flag, below]) in (0, 1)
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("key, value, bound", [
    ("rank", 1, "1"), ("rank", 2.5, "1"), ("angle", 0.8, "pi/4")])
def test_map_spec_rejects_tolerances_at_their_bounds(key, value, bound, tmp_path,
                                                     capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(dict(MINIMAL_SPEC, tolerances={key: value})))
    code = main(["analyze", "--map", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err == f"error: /tolerances/{key}: must be below {bound}\n"


# each field's message for the bad values of the two tests above, None where
# the value is good for that field
_POSITIVE, _BELOW_1, _BELOW_PI_4 = ("must be a positive finite number",
                                    "must be below 1", "must be below pi/4")
_SETTING_VALUES = (0, -1, math.inf, 1, 1.5, 0.8, math.pi / 4)
_AT_LEAST_0, _AT_LEAST_1 = "must be an integer >= 0", "must be an integer >= 1"
_SETTING_MESSAGES = {
    "points": (_AT_LEAST_1,) * 3 + (None,) + (_AT_LEAST_1,) * 3,
    "seed": (None,) + (_AT_LEAST_0,) * 2 + (None,) + (_AT_LEAST_0,) * 3,
    "rank_tol": (_POSITIVE,) * 3 + (_BELOW_1,) * 2 + (None,) * 2,
    "check_tol": (_POSITIVE,) * 3 + (None,) * 4,
    "angle_tol": (_POSITIVE,) * 3 + (_BELOW_PI_4,) * 4}
_SETTING_POINTERS = {"points": "/sampling/points", "seed": "/sampling/seed",
                     "rank_tol": "/tolerances/rank", "check_tol": "/tolerances/check",
                     "angle_tol": "/tolerances/angle"}


@pytest.mark.parametrize("field", sorted(_SETTING_MESSAGES))
def test_analysis_settings_are_checked_as_the_cli_checks_them(field):
    # points=0 gave an IndexError and check_tol=-1 failed riemannian_map
    # with no error; now each bad value is a ValueError naming the field,
    # with the message a spec file gets at its JSON pointer
    assert {f.name for f in fields(AnalysisSettings)} == set(_SETTING_MESSAGES)
    block, key = _SETTING_POINTERS[field][1:].split("/")
    for value, message in zip(_SETTING_VALUES, _SETTING_MESSAGES[field]):
        doc = dict(MINIMAL_SPEC, **{block: {key: value}})
        if message is None:
            settings = AnalysisSettings(**{field: value})
            assert getattr(settings, field) == value
            assert map_spec_from_json(doc).settings == settings
            continue
        with pytest.raises(ValueError) as error:
            AnalysisSettings(**{field: value})
        assert str(error.value) == f"{field}: {message}", value
        with pytest.raises(MapSpecError) as error:
            map_spec_from_json(doc)
        assert str(error.value) == f"{_SETTING_POINTERS[field]}: {message}", value


def test_library_tolerances_at_their_bounds_are_error_entries():
    # AnalysisSettings rejects them (test_analysis_settings_are_checked_as_
    # the_cli_checks_them); set after that check, the frame build and the classification raise,
    # and each check that reads them reports it; a negative angle tolerance
    # called every map not_slant, with exit 0
    spec = load_catalog("slant_plane")
    with pytest.raises(ValueError, match=r"^rank tolerance must be below 1, got 1\.5$"):
        point_frame(spec, [0.1, 0.2], rank_tol=1.5)
    for attr, value, name, message in (
            ("rank_tol", 1.0, "riemannian_map",
             "rank tolerance must be below 1, got 1.0"),
            ("angle_tol", 0.8, "slant_classification",
             "angle tolerance must be below pi/4, got 0.8"),
            ("angle_tol", -0.1, "slant_classification",
             "angle tolerance must be a positive finite number, got -0.1")):
        settings = AnalysisSettings(points=5)
        setattr(settings, attr, value)
        report = run_analysis(LoadedMap(spec, settings, "catalog:slant_plane"))
        entry = report.check(name)
        assert (entry.status, entry.reason) == ("error", f"ValueError: {message}")
        assert report.slant is None


def test_numpy_scalar_settings_are_stored_as_python_numbers():
    # a numpy integer or float passes the rule of its setting and is stored
    # as a Python int or float; a numpy bool, NaN and the infinities do not
    settings = AnalysisSettings(points=np.int64(5), seed=np.uint8(3),
                                rank_tol=np.float32(1e-8), check_tol=np.float64(1e-6),
                                angle_tol=np.float32(1e-3))
    assert [type(getattr(settings, f.name)) for f in fields(settings)] == [
        int, int, float, float, float]
    assert (settings.points, settings.angle_tol) == (5, float(np.float32(1e-3)))
    spec = load_catalog("slant_plane")
    sample = slantmap.maps.Sample(spec, sample_points(spec.box, 5, 42))
    report = slantmap.classify_slant(sample, angle_tol=np.float32(1e-3))
    assert report.classification == "proper_slant"
    assert type(report.angle_tol) is float
    assert point_frame(spec, [0.1, 0.2], rank_tol=np.float32(1e-8)).rank == 2
    for bad in (np.True_, np.float32("nan"), np.float64("inf")):
        with pytest.raises(ValueError, match="^angle_tol: must be a positive"):
            AnalysisSettings(angle_tol=bad)
        with pytest.raises(ValueError, match="^angle tolerance must be a positive"):
            slantmap.classify_slant(sample, angle_tol=bad)
        with pytest.raises(ValueError, match="^rank tolerance must be a positive"):
            point_frame(spec, [0.1, 0.2], rank_tol=bad)
    with pytest.raises(ValueError, match="^points: must be an integer >= 1$"):
        AnalysisSettings(points=np.True_)


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


@pytest.mark.parametrize("catalog_id", sorted(EXIT_CODES))
def test_catalog_reports_match_golden_files(catalog_id, capsys):
    # tests/data/reports holds `analyze --pretty --samples 5 --seed 3` output,
    # recorded again when the slant angles became exact per-point ranges
    code = main(["analyze", "--map", f"catalog:{catalog_id}", "--pretty",
                 "--samples", "5", "--seed", "3"])
    actual = json.loads(capsys.readouterr().out)
    expected = json.loads((REPORTS / f"{catalog_id}.json").read_text())
    assert code == EXIT_CODES[catalog_id]
    assert_report_matches(actual, expected)


MAP_REPORTS = REPORTS / "maps"
MAP_EXIT_CODES = json.loads((MAP_REPORTS / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(MAP_EXIT_CODES))
def test_map_file_reports_match_golden_files(name, capsys, monkeypatch):
    # rank-4 maps into C^3 and C^4 (tests/data/maps, copies of the benchmark's
    # map files), reports recorded as the catalog's; the metadata holds the
    # map path as given, so it is given relative to tests/data
    monkeypatch.chdir(REPORTS.parent)
    code = main(["analyze", "--map", f"maps/{name}.json", "--pretty",
                 "--samples", "5", "--seed", "3"])
    actual = json.loads(capsys.readouterr().out)
    expected = json.loads((MAP_REPORTS / f"{name}.json").read_text())
    assert code == MAP_EXIT_CODES[name]
    assert_report_matches(actual, expected)


DENSE_REPORTS = REPORTS / "samples_2000"
DENSE_EXIT_CODES = json.loads((DENSE_REPORTS / "exit_codes.json").read_text())


@pytest.mark.parametrize("name", sorted(DENSE_EXIT_CODES))
def test_dense_reports_equal_golden_bytes(name, capsys, monkeypatch):
    # `analyze --pretty --samples 2000 --seed 3` on the varying catalog maps
    # and the rank-4 map files: two FRAME_BLOCK blocks, every byte the same
    monkeypatch.chdir(REPORTS.parent)
    identifier = (f"maps/{name}.json" if name in MAP_EXIT_CODES
                  else f"catalog:{name}")
    code = main(["analyze", "--map", identifier, "--pretty",
                 "--samples", "2000", "--seed", "3"])
    assert capsys.readouterr().out == (DENSE_REPORTS / f"{name}.json").read_text()
    assert code == DENSE_EXIT_CODES[name]


# ---------------------------------------------------------------------------
# --points: the records of each sample point's slant angle range, written
# beside the report; point_angles.json holds the slant.point_angles of the
# golden reports of schema slantmap-report/1, which carried them

POINT_ANGLES = json.loads((REPORTS / "point_angles.json").read_text())


@pytest.mark.parametrize("name", sorted(POINT_ANGLES))
def test_points_records_equal_the_golden_point_angles(name, tmp_path, capsys,
                                                      monkeypatch):
    if name in MAP_EXIT_CODES:
        monkeypatch.chdir(REPORTS.parent)
        identifier = f"maps/{name}.json"
    else:
        identifier = f"catalog:{name}"
    expected = POINT_ANGLES[name]
    points = tmp_path / "points.json"
    for layout in ({"separators": (",", ":")}, {"indent": 2}):
        main(["analyze", "--map", identifier, "--samples", "5", "--seed", "3",
              "--points", str(points)] + (["--pretty"] if "indent" in layout
                                          else []))
        capsys.readouterr()
        text = points.read_text()
        assert json.loads(text) == expected  # every float bit for bit
        assert text == json.dumps(expected, ensure_ascii=False, **layout) + "\n"


@pytest.mark.parametrize("command", [["analyze"], ["check", "phwc"],
                                     ["check", "slant_classification"]])
def test_points_leave_the_report_bytes_unchanged(command, tmp_path, capsys):
    points = tmp_path / "points.json"
    for layout in ([], ["--pretty"]):
        argv = command + ["--map", "catalog:nonslant", "--samples", "7"] + layout
        code = main(argv)
        plain = capsys.readouterr()
        assert main(argv + ["--points", str(points)]) == code
        assert capsys.readouterr() == plain
        assert len(json.loads(points.read_text())) == 7


def test_points_are_empty_where_the_classification_did_not_run(tmp_path,
                                                               capsys):
    no_j = tmp_path / "no_j.json"
    no_j.write_text(json.dumps(dict(MINIMAL_SPEC, target={"dim": 4})))
    dilation = tmp_path / "dilation.json"
    dilation.write_text(json.dumps(dict(MINIMAL_SPEC, components=[
        "2*x1", "0", "2*x2", "0"])))
    points = tmp_path / "points.json"
    for argv in (["analyze", "--map", str(no_j)],
                 ["check", "riemannian_map", "--map", "catalog:example4"],
                 # the classification runs, but the map is not Riemannian
                 ["analyze", "--map", str(dilation)]):
        main(argv + ["--samples", "4", "--points", str(points)])
        capsys.readouterr()
        assert points.read_text() == "[]\n"


@pytest.mark.parametrize("command", [["analyze"], ["check", "harmonic"]])
def test_cli_unwritable_points_is_an_input_error(command, tmp_path, capsys,
                                                 monkeypatch):
    # reported before any check runs, as --out is
    calls = Counter()
    entry = Analysis.entry

    def counted(self, name):
        calls[name] += 1
        return entry(self, name)

    monkeypatch.setattr(Analysis, "entry", counted)
    points = tmp_path / "missing" / "points.json"
    code = main(command + ["--map", "catalog:identity2", "--samples", "3",
                           "--points", str(points)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: --points: ")
    assert not points.parent.exists()
    assert not calls


def test_cli_points_on_the_out_file_is_an_input_error(tmp_path, capsys):
    # the report would replace the records
    out = tmp_path / "report.json"
    code = main(["analyze", "--map", "catalog:identity2", "--samples", "3",
                 "--out", str(out), "--points", str(tmp_path / "." / out.name)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: --points: the same file as --out\n"


def test_report_size_does_not_grow_with_the_sample_count(capsys, monkeypatch):
    monkeypatch.chdir(REPORTS.parent)
    for layout in ([], ["--pretty"]):
        sizes = []
        for samples in ("5", "2000"):
            main(["analyze", "--map", "maps/warped_product.json", "--samples",
                  samples] + layout)
            sizes.append(len(capsys.readouterr().out.encode()))
        assert abs(sizes[1] - sizes[0]) <= 1024, (layout, sizes)


DATA_MAPS = REPORTS.parent / "maps"
# Runs of the console script (argv, exit status, the spec written to
# "<case>.json" or None, and the entry (name, status, reason) that locates
# a fault, or None), from a directory where "points.json" is the --points
# file: every catalog map; dense runs whose frames come in several stacked
# blocks (3,000 points, the second a rank-4 map into C^4) or from one frame
# (20,000 points of a constant-coefficient map); and bad input, where
# numpy's arithmetic meets overflows, domain edges and indefinite metrics.
CONSOLE_RUNS = {
    **{f"catalog:{name}": (["analyze", "--map", f"catalog:{name}", "--samples", "5"],
                           EXIT_CODES[name], None, None)
       for name in catalog_ids()},
    "dense_warped_fiber": (["analyze", "--map", "catalog:warped_fiber",
                            "--samples", "3000"], 1, None, None),
    "dense_warped_product": (["analyze", "--map", str(DATA_MAPS / "warped_product.json"),
                              "--samples", "3000", "--points", "points.json"],
                             1, None, None),
    "dense_slant_plane": (["analyze", "--map", "catalog:slant_plane", "--samples",
                           "20000", "--points", "points.json"], 0, None, None),
    # the residual's squares overflow; its value is held in process, on the
    # same spec, by test_a_residual_whose_squares_overflow_is_itself
    "large_gram": (["check", "riemannian_map", "--map", "large_gram.json"], 1,
                   LARGE_GRAM, ("riemannian_map", "fail", None)),
    # a constant that leaves the floats: F is infinite at every sample point
    "inf_constant": (
        ["check", "riemannian_map", "--map", "inf_constant.json"], 1,
        dict(MINIMAL_SPEC, target={"dim": 2, "J": J2},
             components=["x1*(1e308*10)", "x2"]),
        ("riemannian_map", "error", "ExpressionDomainError: non-finite value at "
         f"point {FIRST_POINT} in subexpression '1e+308 * 10.0'")),
    # an older file's sampling.dirs is ignored
    "old_dirs": (["analyze", "--map", "old_dirs.json"], 0,
                 dict(MINIMAL_SPEC, sampling={"points": 5, "dirs": 3}), None),
    "straddling": (
        ["check", "riemannian_map", "--map", "straddling.json"], 1,
        dict(MINIMAL_SPEC, components=["x1", "sqrt(x1)", "x2", "0"],
             domain={"box": [[-0.5, 1], [-1, 1]]}),
        ("riemannian_map", "error", "ExpressionDomainError: sqrt of a negative "
         "value at point [-0.3587339781685257, 0.9512447032735118] in "
         "subexpression 'sqrt(x1)'")),
    # the classification writes the frames' error as the message alone
    "indefinite": (
        ["check", "slant_classification", "--map", "indefinite.json"], 1,
        dict(MINIMAL_SPEC, source={"dim": 2, "metric": [["x1", "0"], ["0", "1"]]}),
        ("slant_classification", "error", "metric is not positive definite at "
         "[-0.8116453042247009, 0.9512447032735118]: inner product is not "
         "positive definite (min eigenvalue -0.811645)")),
    **{case: ([*command, "--map", f"{case}.json"], 1,
              dict(MINIMAL_SPEC, **CONSTANT_DOMAIN[case][0]),
              ("riemannian_map", "error", CONSTANT_DOMAIN[case][1]))
       for case, command in (("log_component", ["check", "riemannian_map"]),
                             ("log_target_metric", ["analyze"]),
                             ("indefinite_target_metric", ["analyze"]))},
    # anti_invariant has no sec(theta), so the pseudo_homothetic gate skips
    "not_phwc": (["check", "pseudo_homothetic", "--map", "catalog:anti_invariant"],
                 0, None, ("pseudo_homothetic", "skipped",
                           "precondition unmet: map is not PHWC")),
    # a condition number near 1e8: the metric is too close to singular
    "ill_conditioned": (
        ["check", "riemannian_map", "--map", "ill_conditioned.json"], 1,
        dict(MINIMAL_SPEC, source={"dim": 2, "metric": [["1", "x1"], ["x1", "1"]]},
             domain={"box": [[0.9999999, 0.99999999], [-1, 1]]},
             sampling={"points": 20}),
        ("riemannian_map", "error", "metric is not positive definite at "
         "[0.9999999696560443, -0.12224312049589536]: inner product is not "
         "positive definite to working precision")),
}


@pytest.mark.parametrize("case", sorted(CONSOLE_RUNS))
def test_console_runs_write_what_main_writes(case, tmp_path, capsys,
                                             monkeypatch):
    # nothing on stderr, not even a RuntimeWarning ahead of the report, and
    # main's exit status and bytes; a report keeps its size at any sample
    # count, and --points writes a record per point
    args, status, doc, entry = CONSOLE_RUNS[case]
    if doc is not None:
        (tmp_path / f"{case}.json").write_text(json.dumps(doc))
    run = console(args, tmp_path)
    assert (run.returncode, run.stderr) == (status, "")
    assert len(run.stdout.encode()) < 8192
    points = tmp_path / "points.json"
    records = points.read_text() if "--points" in args else None
    monkeypatch.chdir(tmp_path)
    assert main(args) == status
    assert capsys.readouterr() == (run.stdout, "")
    checks = {c["name"]: c for c in strict_json(run.stdout)["checks"]}
    if entry is not None:
        name, *outcome = entry
        assert [checks[name]["status"], checks[name].get("reason")] == outcome
    if records is not None:
        assert points.read_text() == records
        assert len(strict_json(records)) == int(args[args.index("--samples") + 1])


def test_test_maps_are_the_benchmark_maps():
    # the golden reports of tests/data/maps describe the benchmark's maps
    bench = Path(__file__).resolve().parent.parent / "perfbench" / "maps"
    names = sorted(path.name for path in DATA_MAPS.glob("*.json"))
    assert names and names == sorted(path.name for path in bench.glob("*.json"))
    for name in names:
        assert (DATA_MAPS / name).read_bytes() == (bench / name).read_bytes(), name


def test_every_name_the_benchmark_traces_is_bound():
    # perfbench/tracer.py wraps functions of the package by their module
    # path: a name that has gone would be left untraced, so every one is
    # found, and uninstalling restores each binding it replaced.  slantmap.cli
    # is imported above, so the tracer's sweep meets every module it imports
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    with tracer.Tracer() as traced:
        assert traced.missing == []
        replaced = list(traced._patches)
        assert replaced and all(vars(owner)[name] is not original
                                for owner, name, original in replaced)
    assert all(vars(owner)[name] is original for owner, name, original in replaced)


def test_sample_points_are_the_goldens_points():
    # the points of every --points golden (5 samples, seed 3) and the
    # witnesses of the 2,000-sample goldens, bit for bit: drawn from PCG64's
    # raw stream, they do not move with numpy's Generator methods
    for name, records in POINT_ANGLES.items():
        identifier = (str(DATA_MAPS / f"{name}.json") if name in MAP_EXIT_CODES
                      else f"catalog:{name}")
        box = load_map_spec(identifier).spec.box
        assert sample_points(box, 5, 3).tolist() == [r["point"] for r in records]
    witnessed = 0
    for path in sorted(DENSE_REPORTS.glob("*.json")):
        if path.name == "exit_codes.json":
            continue
        identifier = (str(DATA_MAPS / path.name) if path.stem in MAP_EXIT_CODES
                      else f"catalog:{path.stem}")
        spec = load_map_spec(identifier).spec
        points = sample_points(spec.box, 2000, 3).tolist()
        for entry in json.loads(path.read_text())["checks"]:
            point = entry.get("witness", {}).get("point")
            if point is not None and len(point) == spec.source.dim:
                assert point in points, (path.name, entry["name"])
                witnessed += 1
    assert witnessed >= 10


@pytest.mark.parametrize("flag", ["--out", "--points"])
def test_cli_write_failure_is_an_input_error(flag, tmp_path, capsys, monkeypatch):
    # the file opens before any check runs, but writing it fails afterwards:
    # exit 2, the flag and the OSError on stderr, nothing on stdout
    def refuse(self, *args, **kwargs):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", refuse)
    code = main(["analyze", "--map", "catalog:identity2", "--samples", "3",
                 flag, str(tmp_path / "written.json")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {flag}: [Errno 28] No space left on device\n"


def test_report_check_of_an_absent_name_raises_key_error():
    report = Report({}, [CheckResult.skipped("phwc", "precondition unmet")])
    assert report.check("phwc").status == "skipped"
    with pytest.raises(KeyError, match="riemannian_map"):
        report.check("riemannian_map")
