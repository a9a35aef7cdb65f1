"""Self-tests of the benchmark: map specs, reference data and the tracer.

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import math
import pstats
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import slantmap
from tracer import Tracer
from workloads import CATALOG, CATALOG_CHECKS, REFERENCE, RANK4_FILES

MAPS = Path(__file__).resolve().parent / "maps"


def _analyze(identifier: str, points: int, seed: int = 5):
    loaded = slantmap.load_map_spec(identifier)
    return slantmap.run_analysis(loaded, replace(loaded.settings, points=points,
                                                seed=seed))


def _bindings() -> dict:
    return {(name, attr): value
            for name, module in sys.modules.items()
            if name == "slantmap" or name.startswith("slantmap.")
            for attr, value in list(vars(module).items())}


@pytest.mark.parametrize("stem", RANK4_FILES)
def test_rank4_spec_loads_and_matches_reference(stem):
    loaded = slantmap.load_map_spec(str(MAPS / f"{stem}.json"))
    assert loaded.spec.target.dim in (6, 8)
    report = _analyze(str(MAPS / f"{stem}.json"), points=3)
    ref = REFERENCE["rank4_files"][stem]
    assert report.slant.rank == 4
    assert report.slant.classification == ref["classification"]
    assert {c.name: c.status for c in report.checks} == ref["checks"]


def test_rank4_designed_outcomes():
    ref = REFERENCE["rank4_files"]
    flat = ref["slant_product"]
    assert flat["classification"] == "proper_slant"
    assert flat["angle"] == pytest.approx(math.pi / 4, abs=1e-15)
    assert len(flat["checks"]) == 18
    assert set(flat["checks"].values()) == {"pass"}
    assert ref["warped_product"]["checks"]["minimal_fibers"] == "fail"
    assert ref["mixed_nonslant"]["classification"] == "not_slant"


def test_reference_closed_form_angles():
    assert REFERENCE["catalog"]["example4"]["angle"] == pytest.approx(
        math.acos(math.sqrt(2 / 3)), abs=1e-15)
    for cid, ref in REFERENCE["pointwise_api"].items():
        assert ref["angle"] == REFERENCE["catalog"][cid]["angle"]


def test_catalog_checks_run_on_distinct_maps_and_are_not_skipped():
    maps = [cid for _, cid in CATALOG_CHECKS]
    assert len(set(maps)) == len(maps)
    for check, cid in CATALOG_CHECKS:
        assert cid in CATALOG
        assert REFERENCE["catalog"][cid]["checks"][check] in ("pass", "fail")


def test_traced_report_is_byte_identical_and_wrappers_are_removed():
    identifier = "catalog:warped_fiber"
    untraced = slantmap.render_report(_analyze(identifier, points=4))
    before = _bindings()
    original_init = slantmap.linalg.InnerProduct.__dict__["__init__"]
    with Tracer() as tracer:
        # one wrapper per function, bound in every module that imported it
        assert slantmap.maps.eval_jet2 is slantmap.charts.eval_jet2
        assert slantmap.maps.eval_jet2 is slantmap.expressions.eval_jet2
        assert slantmap.maps.eval_jet2 is not before[("slantmap.maps", "eval_jet2")]
        assert slantmap.slant.point_frame is slantmap.maps.point_frame
        assert slantmap.point_frame is slantmap.maps.point_frame
        traced = slantmap.render_report(_analyze(identifier, points=4))
    assert traced == untraced
    assert tracer.stat("expressions.eval_jet2").calls > 0
    assert tracer.stat("linalg.InnerProduct").calls > 0
    assert tracer.stat("charts.metric_at").calls > 0
    assert not tracer.missing
    assert _bindings() == before
    assert slantmap.linalg.InnerProduct.__dict__["__init__"] is original_init


def test_spans_nest_under_their_callers():
    with Tracer() as tracer:
        _analyze("catalog:example4", points=2)
    names = {span_id: name for span_id, _, name, _, _ in tracer.spans}
    parents = {}
    for span_id, parent, name, start, end in tracer.spans:
        assert end >= start
        parents.setdefault(name, set()).add(names.get(parent))
    assert parents["report.run_analysis"] == {None}
    assert "report.run_analysis" in parents["slant.classify_slant"]
    assert "slant.classify_slant" in parents["maps.is_riemannian_map"]
    assert tracer.stat("slant.classify_slant").frames > 0


def test_frame_count_matches_an_independent_count():
    points = 6
    with Tracer() as tracer:
        tracer.label = "warped_fiber"
        _analyze("catalog:warped_fiber", points=points)
    profiler = cProfile.Profile()
    profiler.runcall(_analyze, "catalog:warped_fiber", points)
    counted = sum(calls for (path, _, func), (calls, *_rest)
                  in pstats.Stats(profiler).stats.items()
                  if func == "point_frame" and path.endswith("maps.py"))
    assert tracer.frames_by_label["warped_fiber"] == counted
    assert tracer.stat("maps.point_frame").calls == counted
    assert 90 <= counted / points <= 110  # about 99 builds per point
