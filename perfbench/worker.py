"""Child process of the benchmark: runs one workload and reports its results.

``run.py`` starts it with the package sources first on ``PYTHONPATH`` and
one BLAS thread.  With ``--setup-only`` it imports the package, loads every
map of the workload, prints ``ready`` and exits, so the parent can time a
fresh interpreter up to its first call.  Otherwise it sets up, makes one
untimed warm-up call and then either

* times whole cycles of operations until ``--seconds`` have passed,
  sampling the calibration kernel between and inside operations, or
* with ``--trace``, runs a fixed number of cycles traced, after an untraced
  pass over the first operations for comparison, and writes the trace to
  ``perfbench/out/``.

The last line on standard output is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

import slantmap
from calibration import Calibrator
from tracer import Tracer, bindings
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
KINDS = ("analyze", "check", "call")
clock = time.perf_counter

# The classification and the checks that build frames; their frame counts
# are per-layer metrics (the other checks read the classification only).
FRAME_COUNTED = (
    "slant.classify_slant", "maps.is_riemannian_map",
    "maps.check_sff_range_perp", "slant.check_harmonic",
    "slant.check_minimal_fibers", "slant.check_totally_geodesic",
    "slant.check_adapted_frame", "slant.check_omega_defect_identity",
    "slant.check_sff_q_scaling", "slant.check_harmonic_minimal_equivalence",
    "slant.check_phwc", "slant.check_pseudo_homothetic")


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_info = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_info = "unknown"
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas_info,
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def execute(op) -> tuple:
    """(start, end, error or None, output signature or None): clock readings
    around the call, and the result of checking its output."""
    start = clock()
    try:
        output = op.call()
    except Exception as exc:  # a raising operation counts as failed
        return start, clock(), f"{type(exc).__name__}: {exc}", None
    end = clock()
    try:
        error = op.verify(output)
    except Exception as exc:  # malformed output fails verification
        error = f"verification raised {type(exc).__name__}: {exc}"
    return start, end, error, op.signature(output)


class Records:
    """Per-operation results in flat arrays, so that keeping them adds little
    to the peak RSS however many operations a run makes."""

    def __init__(self):
        self.kind = array("b")
        self.points = array("l")
        self.start = array("d")
        self.end = array("d")
        self.errors = []            # (kind, label, message)

    def add(self, op, start: float, end: float, error) -> None:
        self.kind.append(KINDS.index(op.kind))
        self.points.append(op.points)
        self.start.append(start)
        self.end.append(end)
        if error is not None:
            self.errors.append((op.kind, op.label, error))

    def summary(self, calibrator: Calibrator) -> dict:
        cal = [calibrator.calibrate(a, b) for a, b in zip(self.start, self.end)]
        wall = [b - a for a, b in zip(self.start, self.end)]
        kinds = {}
        for k, name in enumerate(KINDS):
            idx = [i for i, kind in enumerate(self.kind) if kind == k]
            if not idx:
                continue
            times = [cal[i] for i in idx]
            entry = {"count": len(idx), "points": self.points[idx[0]],
                     "p50_s": statistics.median(times),
                     "wall_p50_s": statistics.median(wall[i] for i in idx)}
            if len(times) >= 1000:  # at least 10 samples beyond the 99th percentile
                p99 = statistics.quantiles(times, n=100)[98]
                entry["p99_s"] = p99
                entry["beyond_p99"] = sum(t > p99 for t in times)
            kinds[name] = entry
        points = sum(self.points)
        return {"attempted": len(self.kind), "failed": len(self.errors),
                "errors": self.errors[:5], "kinds": kinds,
                "op_p50_s": statistics.median(cal), "points": points,
                "points_per_s": points / sum(cal),
                "wall_points_per_s": points / sum(wall),
                "slowdown": calibrator.slowdown()}


@contextlib.contextmanager
def sampling_inside(calibrator: Calibrator):
    """Take calibration samples inside operations too, at ``point_frame``
    calls: every workload builds frames throughout its operations."""
    original = slantmap.maps.point_frame

    def sampled(*args, **kwargs):
        calibrator.sample_if_due()
        return original(*args, **kwargs)

    places = bindings(original)
    for module, attribute in places:
        setattr(module, attribute, sampled)
    try:
        yield
    finally:
        for module, attribute in places:
            setattr(module, attribute, original)


def timed_cycles(workload, seconds: float) -> dict:
    """Whole cycles until the time is up; every cycle is completed, so each
    operation of the cycle is timed at least once and equally often."""
    calibrator = Calibrator()
    records = Records()
    with sampling_inside(calibrator):
        calibrator.sample()
        start = clock()
        index = 0
        while index == 0 or clock() - start < seconds:
            for op in workload.cycle(index):
                calibrator.sample_if_due()
                begin, end, error, _ = execute(op)
                records.add(op, begin, end, error)
            index += 1
        calibrator.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return records.summary(calibrator) | {"peak_rss_mb": peak_rss_mb}


def per_layer(tracer: Tracer, points: int, scale: float, overhead_s: float) -> dict:
    """Per-layer metrics of the traced pass.  Wall times are multiplied by
    ``scale``, the calibration factor over the pass, except ``overhead_s``,
    which is calibrated already."""
    frames = tracer.stat("maps.point_frame")
    jets = tracer.stat("expressions.eval_jet2")
    parse = tracer.stat("expressions.parse_expression")
    christoffel = tracer.stat("charts.christoffel")
    inner = tracer.stat("linalg.InnerProduct")

    def count(value, unit="count"):
        return {"value": value, "unit": unit}

    def seconds(value):
        return {"value": value * scale, "unit": "s"}

    out = {
        "maps.point_frame.calls": count(frames.calls),
        "maps.point_frame.per_point": count(frames.calls / points, "count/point"),
        "maps.point_frame.s": seconds(frames.total_s),
        "maps.point_frame.self_s": seconds(frames.self_s),
        "expressions.eval_jet2.calls": count(jets.calls),
        "expressions.eval_jet2.self_s": seconds(jets.self_s),
        "expressions.eval_jet2.per_frame": count(
            jets.in_frame / frames.calls if frames.calls else 0.0, "count/frame"),
        "expressions.parse_expression.calls": count(parse.calls),
        "expressions.parse_expression.s": seconds(parse.total_s),
        "loader.load_map_spec.s": seconds(tracer.stat("loader.load_map_spec").total_s),
        "charts.christoffel.calls": count(christoffel.calls),
        "charts.christoffel.self_s": seconds(christoffel.self_s),
        "charts.metric_at.self_s": seconds(tracer.stat("charts.metric_at").self_s),
        "charts.complex_structure_at.self_s": seconds(
            tracer.stat("charts.complex_structure_at").self_s),
        "linalg.split_tangent.self_s": seconds(tracer.stat("linalg.split_tangent").self_s),
        "linalg.InnerProduct.calls": count(inner.calls),
        "linalg.InnerProduct.self_s": seconds(inner.self_s),
        "linalg.project.calls": count(tracer.stat("linalg.project").calls),
    }
    for name in FRAME_COUNTED:
        out[f"{name}.frames"] = count(tracer.stat(name).frames)
    out["bench.trace_overhead_s"] = {"value": overhead_s, "unit": "s"}
    return out


def traced_run(workload) -> dict:
    """Traced pass over a fixed set of cycles, after an untraced pass over
    its first ``workload.untraced_ops`` operations, which gives the tracing
    overhead and the outputs the traced ones must equal byte for byte.

    While tracing, calibration samples are taken between operations only:
    inside one they would count in the self time of the function they
    interrupted."""
    calibrator = Calibrator()
    ops = [op for i in range(workload.trace_cycles) for op in workload.cycle(i)]
    with sampling_inside(calibrator):
        plain = []
        for op in ops[:workload.untraced_ops]:
            calibrator.sample_if_due()
            plain.append(execute(op))
        calibrator.sample()
    errors = [(op.kind, op.label, error)
              for op, (_, _, error, _) in zip(ops, plain) if error is not None]
    operations = []     # (kind, label, points, start, end)
    traced_start = clock()
    with Tracer() as tracer:
        tracer.label = "setup"
        workload.setup()
        for i in range(workload.trace_cycles):
            for op in workload.cycle(i):
                calibrator.sample_if_due()
                tracer.label = op.label
                begin, end, error, signature = execute(op)
                k = len(operations)
                if error is None and k < len(plain) and signature != plain[k][3]:
                    error = "traced output differs from the untraced output"
                if error is not None:
                    errors.append((op.kind, op.label, error))
                operations.append((op.kind, op.label, op.points, begin, end))
        tracer.label = None
    traced_end = clock()
    calibrator.sample()
    scale = calibrator.factor(traced_start, traced_end)
    overhead_s = (
        statistics.median(calibrator.calibrate(o[3], o[4])
                          for o in operations[:len(plain)])
        - statistics.median(calibrator.calibrate(b, e) for b, e, _, _ in plain))
    metrics = per_layer(tracer, sum(o[2] for o in operations), scale, overhead_s)
    points = {}
    for _, label, n, _, _ in operations:
        points[label] = points.get(label, 0) + n
    trace = {
        "workload": workload.name,
        "environment": environment(),
        "time_scale": scale,
        "metrics": metrics,
        "frames_per_point": {label: tracer.frames_by_label.get(label, 0) / n
                             for label, n in points.items()},
        "operations": [[kind, label, end - begin]
                       for kind, label, _, begin, end in operations],
        "untraced_wall_s": [end - begin for begin, end, _, _ in plain],
        **tracer.to_dict(),
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"trace_{workload.name}.json").write_text(json.dumps(trace),
                                                      encoding="utf-8")
    return {"attempted": len(operations) + len(plain), "failed": len(errors),
            "errors": errors[:5], "per_layer": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    source = Path(slantmap.__file__).resolve()
    if ROOT / "src" not in source.parents:
        print(f"error: slantmap imported from {source}, not from {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](args.seed)
    start = clock()
    workload.setup()
    setup_s = clock() - start
    if args.setup_only:
        print("ready", flush=True)
        return 0

    warmup = workload.cycle(0)[0]
    _, _, warmup_error, _ = execute(warmup)
    if args.trace:
        result = traced_run(workload)
    else:
        result = timed_cycles(workload, args.seconds)
    result["attempted"] += 1
    if warmup_error is not None:
        result["failed"] += 1
        result["errors"].insert(0, ("warmup", warmup.label, warmup_error))
    result["setup_in_process_s"] = setup_s
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
