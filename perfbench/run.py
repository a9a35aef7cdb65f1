"""slantmap benchmark: runs the workloads, checks outputs, prints metrics.

    python3 perfbench/run.py                       # every workload, 15 s each
    python3 perfbench/run.py --workload rank4_files --seed 3 --seconds 15 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  Each workload runs in its own child process (``worker.py``) with
one BLAS/OpenMP thread, so set-up time and peak memory are per workload:

* ``setup_s`` is the median, over several fresh interpreters, of the time
  from starting the interpreter to the end of importing the package and
  loading every map of the workload;
* the measuring child sets up again, makes one untimed warm-up call and then
  times whole cycles of operations for ``--seconds`` (at least one cycle);
* with ``--trace 1`` it instead runs a fixed set of cycles with every layer
  wrapped, and reports the per-layer metrics; the full trace goes to
  ``perfbench/out/trace_<workload>.json``.

Times are in calibrated seconds (``calibration.py``), which a slow-down of
the whole machine does not move.  Every output is checked against
``reference.json``.  Human-readable lines come first; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 when the workloads ran (whether or not outputs were
correct) and non-zero when they could not.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import NOMINAL_START_S

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "perfbench" / "worker.py"
WORKLOADS = ("catalog_default", "rank4_files", "pointwise_api")
SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0   # one workload must finish well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchmarkError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    paths = [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def worker_command(workload: str, seed: int, *extra: str) -> list:
    return [sys.executable, str(WORKER), "--workload", workload,
            "--seed", str(seed), *extra]


def time_to_ready(command: list, env: dict) -> float:
    """Wall time from starting ``command`` to its first output line, 'ready'."""
    start = time.perf_counter()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=env,
                          cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if line.strip() != "ready" or code != 0:
        raise BenchmarkError(f"{command[1:]}: exited with {code} before 'ready'")
    return elapsed


def time_setup(workload: str, seed: int, env: dict) -> tuple:
    """Set-up times of fresh interpreters, each paired with a bare start.

    Each repeat times an interpreter that only imports numpy, then one that
    imports slantmap and loads every map of the workload.  Returns the wall
    times of the latter and their calibrated values (see calibration.py)."""
    bare = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
    setup = worker_command(workload, seed, "--setup-only")
    walls, calibrated = [], []
    for _ in range(SETUP_REPEATS):
        reference = time_to_ready(bare, env)
        wall = time_to_ready(setup, env)
        walls.append(wall)
        calibrated.append(wall * NOMINAL_START_S / reference)
    return walls, calibrated


def run_worker(workload: str, seed: int, seconds: float, trace: bool,
               env: dict, timeout: float) -> dict:
    extra = ["--seconds", repr(seconds)] + (["--trace"] if trace else [])
    try:
        proc = subprocess.run(worker_command(workload, seed, *extra),
                              capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchmarkError(f"{workload}: no result within {timeout:.0f} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr)
        raise BenchmarkError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def describe(workload: str, result: dict, setup: tuple) -> dict:
    """Print the workload's figures and return its end-to-end metrics.

    Times are in calibrated seconds (see calibration.py), with the
    wall-clock figures beside them."""
    env = result["environment"]

    def line(name, value, unit, note):
        print(f"  {name:14s} {value:<12.6g} {unit:5s} {note}")

    print(f"== {workload}: {result['attempted']} operations; nproc {env['nproc']}, "
          f"Python {env['python']}, numpy {env['numpy']}, BLAS {env['blas']} "
          f"({env['blas_threads']} thread); machine slowdown "
          f"{result['slowdown']:.3f}x of nominal")
    setup_walls, setup_calibrated = setup
    setup_s = statistics.median(setup_calibrated)
    line("setup_s", setup_s, "s", f"median of {len(setup_walls)} fresh interpreters "
         f"(wall {statistics.median(setup_walls):.4f} s; "
         f"in-process {result['setup_in_process_s']:.4f} s)")
    for kind, k in result["kinds"].items():
        line(f"{kind}_p50_s", k["p50_s"], "s",
             f"median of {k['count']} at {k['points']} samples per call "
             f"(wall {k['wall_p50_s']:.6g} s)")
        if "p99_s" in k:
            line(f"{kind}_p99_s", k["p99_s"], "s",
                 f"{k['beyond_p99']} of {k['count']} calls beyond it")
    line("op_p50_s", result["op_p50_s"], "s", "median over every timed operation")
    line("points_per_s", result["points_per_s"], "1/s",
         f"{result['points']} sample points "
         f"(wall {result['wall_points_per_s']:.6g} 1/s)")
    line("peak_rss_mb", result["peak_rss_mb"], "MB", "peak RSS of the workload process")
    line("failed_share", result["failed"] / result["attempted"], "ratio",
         f"{result['failed']} of {result['attempted']} operations, warm-up included")
    return {"setup_s": metric(setup_s, "s"),
            "op_p50_s": metric(result["op_p50_s"], "s"),
            "points_per_s": metric(result["points_per_s"], "1/s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB")}


def describe_trace(workload: str, result: dict) -> dict:
    print(f"== {workload}: traced run of {result['attempted']} operations; "
          f"trace in perfbench/out/trace_{workload}.json")
    for name, m in result["per_layer"].items():
        print(f"  {name:52s} {m['value']:<12.6g} {m['unit']}")
    return result["per_layer"]


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    start = time.monotonic()
    env = child_env()
    setup = None if trace else time_setup(workload, seed, env)
    timeout = RUN_LIMIT_S - (time.monotonic() - start)
    result = run_worker(workload, seed, seconds, trace, env, timeout)
    if trace:
        metrics = describe_trace(workload, result)
    else:
        metrics = describe(workload, result, setup)
    for kind, label, error in result["errors"]:
        print(f"  FAILED {kind} {label}: {error}")
    return result["attempted"], result["failed"], metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "slantmap" / "__init__.py").is_file():
        print(f"error: no slantmap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            n, f, m = run_workload(name, args.seed, args.seconds, bool(args.trace))
            attempted += n
            failed += f
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
