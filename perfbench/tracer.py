"""Run-time call tracing of the slantmap layers, from outside the package.

The tracer wraps public functions of the ``slantmap`` modules while it is
installed and restores them on exit; no file of the package changes.  A
function imported into several modules (``eval_jet2`` lives in
``expressions`` and is bound again in ``maps`` and ``charts``;
``point_frame`` is bound in ``maps``, ``slant`` and the package root) is
replaced in every module that holds it, so calls are caught whichever
binding the caller uses.

Two kinds of wrapper share one call stack, so every wrapped function gets a
call count, an inclusive time and a self time (inclusive minus the time of
wrapped callees):

* spans, at the coarse boundaries (``cli.main``, ``run_analysis``,
  ``classify_slant``, each check, ``point_frame``), are also kept as
  ``(id, parent_id, name, start, end)`` records;
* leaves, the hot inner calls such as ``eval_jet2`` (hundreds of thousands of
  calls per map), are only aggregated.

``point_frame`` builds are attributed to every check span open around them
(so nested checks count inclusively) and to the current ``label``; leaf
calls made inside a ``point_frame`` build are counted separately, which
gives evaluations per frame.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

PACKAGE = "slantmap"
FRAME = "maps.point_frame"

# Checks in report order, keyed by the name of the function that runs them.
CHECKS = (
    "charts.check_almost_hermitian", "charts.check_kahler",
    "maps.is_riemannian_map", "maps.check_sff_range_perp",
    "slant.check_harmonic", "slant.check_minimal_fibers",
    "slant.check_totally_geodesic", "slant.check_phi_squared_scaling",
    "slant.check_q_squared_scaling", "slant.check_lambda_mu_consistency",
    "slant.check_adapted_frame", "slant.check_omega_parallel",
    "slant.check_phi_parallel", "slant.check_omega_defect_identity",
    "slant.check_sff_q_scaling", "slant.check_harmonic_minimal_equivalence",
    "slant.check_phwc", "slant.check_pseudo_homothetic",
)
# Span boundaries that frame builds are attributed to: the checks and the
# classification that feeds the slant checks.
FRAME_OWNERS = ("slant.classify_slant",) + CHECKS
SPANS = ("cli.main", "report.run_analysis", FRAME) + FRAME_OWNERS
LEAVES = (
    "expressions.parse_expression", "expressions.eval_jet2",
    "loader.load_map_spec",
    "charts.christoffel", "charts.ChartManifold.metric_at",
    "charts.ChartManifold.complex_structure_at",
    "linalg.InnerProduct.__init__", "linalg.split_tangent", "linalg.project",
    "linalg.metric_adjoint", "linalg.gram_schmidt",
    "maps.map_point", "maps.differential", "maps.tension_field",
    "maps.second_fundamental_form",
    "slant.slant_angle", "slant.q_operator", "slant.q_matrix",
    "slant.point_operators", "slant.adapted_frame",
    "report.sample_points", "report.render_report",
)


def bindings(obj) -> list:
    """(module, attribute) of every binding of ``obj`` in the package."""
    return [(mod, attribute)
            for mod_name, mod in list(sys.modules.items())
            if mod is not None and (mod_name == PACKAGE
                                    or mod_name.startswith(PACKAGE + "."))
            for attribute, value in list(vars(mod).items()) if value is obj]


def metric_name(target: str) -> str:
    """'charts.ChartManifold.metric_at' -> 'charts.metric_at';
    'linalg.InnerProduct.__init__' -> 'linalg.InnerProduct'."""
    parts = target.split(".")
    if len(parts) == 3:
        module, cls, attr = parts
        return f"{module}.{cls}" if attr == "__init__" else f"{module}.{attr}"
    return target


class Stat:
    __slots__ = ("calls", "total_s", "self_s", "in_frame", "frames")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.in_frame = 0   # calls made inside a point_frame build
        self.frames = 0     # point_frame builds made inside this span

    def to_dict(self) -> dict:
        return {"calls": self.calls, "s": self.total_s, "self_s": self.self_s,
                "in_frame": self.in_frame, "frames": self.frames}


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self):
        self.stats = {}             # metric name -> Stat
        self.spans = []             # (id, parent_id, name, start, end)
        self.missing = []           # targets not found in this version
        self.label = None           # current operation, set by the caller
        self.frames_by_label = {}   # label -> point_frame builds
        self._stack = []            # [child time] per open wrapped call
        self._open_spans = []       # ids of open spans
        self._open_owners = []      # Stats of open checks
        self._frame_depth = 0
        self._patches = []          # (owner, attribute, original)
        self._clock = time.perf_counter

    def __enter__(self) -> "Tracer":
        for target in SPANS:
            self._install(target, span=True)
        for target in LEAVES:
            self._install(target, span=False)
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
        self._patches.clear()

    # -- installation -----------------------------------------------------

    def _install(self, target: str, span: bool) -> None:
        module_name, *path = target.split(".")
        module = importlib.import_module(f"{PACKAGE}.{module_name}")
        name = metric_name(target)
        if len(path) == 2:  # method on a class: one binding, in the class
            cls = getattr(module, path[0], None)
            original = getattr(cls, "__dict__", {}).get(path[1])
            if original is None:
                self.missing.append(target)
                return
            self._patch(cls, path[1], original, self._wrap(name, original, span))
            return
        original = getattr(module, path[0], None)
        if original is None:
            self.missing.append(target)
            return
        wrapper = self._wrap(name, original, span)
        for mod, attribute in bindings(original):
            self._patch(mod, attribute, original, wrapper)

    def _patch(self, owner, attribute, original, wrapper) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, wrapper)

    def _wrap(self, name: str, fn, span: bool):
        stat = self.stats.setdefault(name, Stat())
        stack = self._stack
        clock = self._clock
        is_frame = name == FRAME
        is_owner = name in FRAME_OWNERS

        if not span:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                entry = [0.0]
                stack.append(entry)
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    stat.calls += 1
                    stat.total_s += elapsed
                    stat.self_s += elapsed - entry[0]
                    if self._frame_depth:
                        stat.in_frame += 1
                    if stack:
                        stack[-1][0] += elapsed
            return leaf

        spans = self.spans
        open_spans = self._open_spans
        owners = self._open_owners

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span_id = len(spans)
            parent = open_spans[-1] if open_spans else None
            spans.append(None)  # reserve the id; filled on exit
            open_spans.append(span_id)
            if is_frame:
                for owner in owners:
                    owner.frames += 1
                if self.label is not None:
                    self.frames_by_label[self.label] = (
                        self.frames_by_label.get(self.label, 0) + 1)
                self._frame_depth += 1
            if is_owner:
                owners.append(stat)
            entry = [0.0]
            stack.append(entry)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                elapsed = end - start
                stack.pop()
                open_spans.pop()
                if is_frame:
                    self._frame_depth -= 1
                if is_owner:
                    owners.pop()
                stat.calls += 1
                stat.total_s += elapsed
                stat.self_s += elapsed - entry[0]
                if stack:
                    stack[-1][0] += elapsed
                spans[span_id] = (span_id, parent, name, start, end)
        return spanned

    # -- results ----------------------------------------------------------

    def stat(self, name: str) -> Stat:
        """Stat of a wrapped function; an all-zero Stat if it was absent."""
        return self.stats.get(name, Stat())

    def to_dict(self) -> dict:
        names = sorted({s[2] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "functions": {n: s.to_dict() for n, s in sorted(self.stats.items())},
            "missing": self.missing,
            "frames_by_label": self.frames_by_label,
            "span_names": names,
            "spans": [[i, p, index[n], round(a, 7), round(b, 7)]
                      for i, p, n, a, b in self.spans],
        }
