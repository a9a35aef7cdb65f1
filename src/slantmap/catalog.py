"""Built-in map catalog: one entry per structural regime plus negative controls.

All entries use Euclidean metrics and the standard pairwise complex structure
on the target unless the description says otherwise.  Parameterized entries
accept ``name(alpha=<number>)``, the number written as in JSON.  Each map is
built once per process and shared: ``MapSpec`` is frozen, so its parsed
formulas and their compiled jets are formed once.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Callable, Dict, Optional, Tuple

from .charts import ChartManifold
from .maps import MapSpec

STANDARD_J = {
    2: [["0", "-1"], ["1", "0"]],
    4: [["0", "-1", "0", "0"], ["1", "0", "0", "0"],
        ["0", "0", "0", "-1"], ["0", "0", "1", "0"]],
}


def _euclidean(dim: int, with_j: bool = False) -> ChartManifold:
    return ChartManifold.euclidean(dim, STANDARD_J[dim] if with_j else None)


def _identity2() -> MapSpec:
    return MapSpec.create(_euclidean(2), _euclidean(2, with_j=True),
                          ["x1", "x2"], name="identity2")


def _invariant() -> MapSpec:
    return MapSpec.create(_euclidean(3), _euclidean(4, with_j=True),
                          ["x1", "x2", "0", "0"], name="invariant")


def _anti_invariant() -> MapSpec:
    return MapSpec.create(_euclidean(2), _euclidean(4, with_j=True),
                          ["x1", "0", "x2", "0"], name="anti_invariant")


def _example4() -> MapSpec:
    return MapSpec.create(_euclidean(4), _euclidean(4, with_j=True),
                          ["x1", "(x2+x3)/sqrt(3)", "(x2+x3)/sqrt(6)", "0"],
                          name="example4")


def _slant_plane(alpha: float) -> MapSpec:
    c, s = math.cos(alpha), math.sin(alpha)
    return MapSpec.create(_euclidean(2), _euclidean(4, with_j=True),
                          ["x1", f"x2*{c!r}", f"x2*{s!r}", "0"],
                          name=f"slant_plane(alpha={alpha!r})")


def _compose_slant(alpha: float) -> MapSpec:
    c, s = math.cos(alpha), math.sin(alpha)
    return MapSpec.create(_euclidean(3), _euclidean(4, with_j=True),
                          ["x1", f"x2*{c!r}", f"x2*{s!r}", "0"],
                          name=f"compose_slant(alpha={alpha!r})")


def _curved_target() -> MapSpec:
    metric = [[("exp(2*x1)" if i == j else "0") for j in range(4)]
              for i in range(4)]
    target = ChartManifold.from_strings(4, metric, STANDARD_J[4])
    return MapSpec.create(_euclidean(2), target, ["0", "x1", "x2", "0"],
                          name="curved_target")


def _warped_fiber(alpha: float) -> MapSpec:
    c, s = math.cos(alpha), math.sin(alpha)
    metric = [["1 + exp(2*x1)*pow(x2,2)", "0", "exp(2*x1)*x2"],
              ["0", "1", "0"],
              ["exp(2*x1)*x2", "0", "exp(2*x1)"]]
    source = ChartManifold.from_strings(3, metric)
    return MapSpec.create(source, _euclidean(4, with_j=True),
                          ["x1", f"x2*{c!r}", f"x2*{s!r}", "0"],
                          name=f"warped_fiber(alpha={alpha!r})")


def _kahler_twist(alpha: float) -> MapSpec:
    c, s = math.cos(alpha), math.sin(alpha)
    metric = [["exp(2*x2)", "0", "0", "0"], ["0", "exp(2*x2)", "0", "0"],
              ["0", "0", "1", "0"], ["0", "0", "0", "1"]]
    target = ChartManifold.from_strings(4, metric, STANDARD_J[4])
    return MapSpec.create(_euclidean(2), target,
                          [f"x2*{s!r}", "0", "x1", f"x2*{c!r}"],
                          name=f"kahler_twist(alpha={alpha!r})")


def _nonslant() -> MapSpec:
    return MapSpec.create(_euclidean(2), _euclidean(4, with_j=True),
                          ["cos(x1)", "0", "sin(x1)", "x2"], name="nonslant")


_BUILDERS: Dict[str, Tuple[Callable, Optional[float], str]] = {
    "identity2": (_identity2, None,
                  "identity isometry of the Euclidean plane (invariant, rank 2)"),
    "invariant": (_invariant, None,
                  "linear rank-2 map R^3 -> R^4 whose image plane is preserved "
                  "by the complex structure (angle 0)"),
    "anti_invariant": (_anti_invariant, None,
                       "isometric plane immersion R^2 -> R^4 whose image rotates "
                       "into its normal space (angle pi/2)"),
    "example4": (_example4, None,
                 "rank-2 linear map R^4 -> R^4 with constant slant angle "
                 "arccos(sqrt(2/3))"),
    "slant_plane": (_slant_plane, math.pi / 4,
                    "isometric plane immersion tilted by alpha across a complex "
                    "pair (slant angle alpha)"),
    "compose_slant": (_compose_slant, math.pi / 4,
                      "coordinate submersion R^3 -> R^2 composed with a slant "
                      "plane immersion; slant angle alpha, minimal fibers"),
    "curved_target": (_curved_target, None,
                      "flat plane into a conformally scaled R^4; the second "
                      "fundamental form is nonzero but normal to the image"),
    "warped_fiber": (_warped_fiber, math.pi / 4,
                     "slant submersion-type map with the fiber direction sheared "
                     "and scaled by the source metric; fibers not minimal"),
    "kahler_twist": (_kahler_twist, 0.6,
                     "slant plane immersion into a Kaehler warped-block metric; "
                     "the normal-part operator is not parallel"),
    "nonslant": (_nonslant, None,
                 "cylinder-style isometric immersion whose angle to the complex "
                 "structure varies from point to point"),
}

_PARAM_RE = re.compile(r"^([a-z0-9_]+)\(alpha=([^)]*)\)$")
# a JSON number; float would also read 1_0, " 0.3 ", inf and nan
_NUMBER_RE = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


class CatalogError(KeyError):
    pass


def catalog_ids() -> list:
    return list(_BUILDERS)


def catalog_descriptions() -> Dict[str, str]:
    return {name: entry[2] for name, entry in _BUILDERS.items()}


def load_catalog(identifier: str) -> MapSpec:
    """The catalog map named by identifier, surrounding whitespace ignored;
    parameterized entries accept name(alpha=value), the value a JSON number.
    Repeated loads of one map return the same MapSpec."""
    name, alpha = identifier.strip(), None
    match = _PARAM_RE.match(name)
    if match:
        name, text = match.groups()
        alpha = float(text) if _NUMBER_RE.fullmatch(text) else math.nan
        if not math.isfinite(alpha):
            raise CatalogError(f"alpha={text} is not a finite number")
    if name not in _BUILDERS:
        raise CatalogError(
            f"unknown catalog id {name!r}; available: {', '.join(catalog_ids())}")
    default_alpha = _BUILDERS[name][1]
    if default_alpha is None:
        if alpha is not None:
            raise CatalogError(f"catalog entry {name!r} takes no parameter")
        return _build(name, None)
    # keyed on repr, which tells -0.0 from 0.0 (the two compare equal)
    return _build(name, repr(default_alpha if alpha is None else alpha))


@functools.lru_cache(maxsize=32)
def _build(name: str, alpha: Optional[str]) -> MapSpec:
    builder = _BUILDERS[name][0]
    return builder() if alpha is None else builder(float(alpha))
