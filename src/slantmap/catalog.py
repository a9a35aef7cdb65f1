"""Built-in map catalog: one entry per structural regime plus negative controls.

Each entry is the source, target and components of a ``slantmap/1`` map-spec
document, which the loader reads as it reads a file, with the same
validation.  Sources are Euclidean and targets carry ``standard_j`` unless
the document says otherwise.  Parameterized entries accept
``name(alpha=<number>)``, the number written as in JSON; ``{c}`` and ``{s}``
in a component stand for repr(cos alpha) and repr(sin alpha).  Each map is
built once per process and shared: ``MapSpec`` is frozen, so its parsed
formulas and their compiled jets are formed once.
"""

from __future__ import annotations

import functools
import math
import re
from typing import Dict, Optional

from .maps import MapSpec


def standard_j(dim: int) -> list:
    """The pairwise complex structure of R^dim, dim even: J e_2k-1 = e_2k and
    J e_2k = -e_2k-1, as entry strings."""
    return [["1" if i == j + 1 and j % 2 == 0 else
             "-1" if j == i + 1 and i % 2 == 0 else "0" for j in range(dim)]
            for i in range(dim)]


_R2, _R3, _R4 = ({"dim": dim} for dim in (2, 3, 4))
_C1, _C2 = ({"dim": dim, "J": standard_j(dim)} for dim in (2, 4))
_SLANT = ["x1", "x2*{c}", "x2*{s}", "0"]

# id -> (document, default alpha or None, description)
_ENTRIES: Dict[str, tuple] = {
    "identity2": ({"source": _R2, "target": _C1, "components": ["x1", "x2"]},
                  None, "identity isometry of the Euclidean plane (invariant, rank 2)"),
    "invariant": ({"source": _R3, "target": _C2, "components": ["x1", "x2", "0", "0"]},
                  None, "linear rank-2 map R^3 -> R^4 whose image plane is preserved "
                  "by the complex structure (angle 0)"),
    "anti_invariant": ({"source": _R2, "target": _C2,
                        "components": ["x1", "0", "x2", "0"]},
                       None, "isometric plane immersion R^2 -> R^4 whose image "
                       "rotates into its normal space (angle pi/2)"),
    "example4": ({"source": _R4, "target": _C2, "components":
                  ["x1", "(x2+x3)/sqrt(3)", "(x2+x3)/sqrt(6)", "0"]},
                 None, "rank-2 linear map R^4 -> R^4 with constant slant angle "
                 "arccos(sqrt(2/3))"),
    "slant_plane": ({"source": _R2, "target": _C2, "components": _SLANT},
                    math.pi / 4, "isometric plane immersion tilted by alpha "
                    "across a complex pair (slant angle alpha)"),
    "compose_slant": ({"source": _R3, "target": _C2, "components": _SLANT},
                      math.pi / 4, "coordinate submersion R^3 -> R^2 composed with "
                      "a slant plane immersion; slant angle alpha, minimal fibers"),
    "curved_target": ({"source": _R2, "components": ["0", "x1", "x2", "0"],
                       "target": {"dim": 4, "J": standard_j(4), "metric": [
                           ["exp(2*x1)" if i == j else "0" for j in range(4)]
                           for i in range(4)]}},
                      None, "flat plane into a conformally scaled R^4; the second "
                      "fundamental form is nonzero but normal to the image"),
    "warped_fiber": ({"source": {"dim": 3, "metric": [
                         ["1 + exp(2*x1)*pow(x2,2)", "0", "exp(2*x1)*x2"],
                         ["0", "1", "0"], ["exp(2*x1)*x2", "0", "exp(2*x1)"]]},
                      "target": _C2, "components": _SLANT},
                     math.pi / 4, "slant submersion-type map with the fiber direction "
                     "sheared and scaled by the source metric; fibers not minimal"),
    "kahler_twist": ({"source": _R2, "components": ["x2*{s}", "0", "x1", "x2*{c}"],
                      "target": {"dim": 4, "J": standard_j(4), "metric": [
                          ["exp(2*x2)", "0", "0", "0"], ["0", "exp(2*x2)", "0", "0"],
                          ["0", "0", "1", "0"], ["0", "0", "0", "1"]]}},
                     0.6, "slant plane immersion into a Kaehler warped-block metric; "
                     "the normal-part operator is not parallel"),
    "nonslant": ({"source": _R2, "target": _C2,
                  "components": ["cos(x1)", "0", "sin(x1)", "x2"]},
                 None, "cylinder-style isometric immersion whose angle to the "
                 "complex structure varies from point to point"),
}

_PARAM_RE = re.compile(r"^([a-z0-9_]+)\(alpha=([^)]*)\)$")
# a JSON number; float would also read 1_0, " 0.3 ", inf and nan
_NUMBER_RE = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?")


class CatalogError(KeyError):
    pass


def catalog_ids() -> list:
    return list(_ENTRIES)


def catalog_descriptions() -> Dict[str, str]:
    return {name: entry[2] for name, entry in _ENTRIES.items()}


def load_catalog(identifier: str) -> MapSpec:
    """The catalog map named by identifier, surrounding whitespace ignored;
    parameterized entries accept name(alpha=value), the value a JSON number.
    Repeated loads of one map return the same MapSpec, shared by the
    process, which with its charts keeps what analyses form on it (a
    constant frame and its members, a constant chart's point and target
    residuals; see ``maps``).  A caller that must form them anew takes a
    fresh spec: ``replace(spec, source=replace(spec.source),
    target=replace(spec.target))``, since ``replace(spec)`` keeps the
    charts."""
    name, alpha = identifier.strip(), None
    match = _PARAM_RE.match(name)
    if match:
        name, text = match.groups()
        alpha = float(text) if _NUMBER_RE.fullmatch(text) else math.nan
        if not math.isfinite(alpha):
            raise CatalogError(f"alpha={text} is not a finite number")
    if name not in _ENTRIES:
        raise CatalogError(
            f"unknown catalog id {name!r}; available: {', '.join(catalog_ids())}")
    default_alpha = _ENTRIES[name][1]
    if default_alpha is None:
        if alpha is not None:
            raise CatalogError(f"catalog entry {name!r} takes no parameter")
        return _build(name, None)
    # keyed on repr, which tells -0.0 from 0.0 (the two compare equal)
    return _build(name, repr(default_alpha if alpha is None else alpha))


@functools.lru_cache(maxsize=32)
def _build(name: str, alpha: Optional[str]) -> MapSpec:
    from .loader import map_spec_from_json  # the loader imports this module
    doc = _ENTRIES[name][0]
    if alpha is not None:
        trig = {"c": repr(math.cos(float(alpha))), "s": repr(math.sin(float(alpha)))}
        doc = dict(doc, components=[c.format(**trig) for c in doc["components"]])
        name = f"{name}(alpha={alpha})"
    return map_spec_from_json(doc, name).spec
