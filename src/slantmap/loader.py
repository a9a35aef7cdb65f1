"""Map-spec ingestion: JSON documents (schema slantmap/1) or catalog ids."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Optional

from .catalog import CatalogError, load_catalog
from .charts import ChartError, ChartManifold
from .expressions import ExpressionSyntaxError
from .maps import MapDefinitionError, MapSpec
from .result import (DEFAULT_ANGLE_TOL, DEFAULT_CHECK_TOL, DEFAULT_RANK_TOL,
                     SETTING_RULES, is_number)

SCHEMA_ID = "slantmap/1"

DEFAULT_POINTS = 50
DEFAULT_SEED = 42


class MapSpecError(ValueError):
    """Schema violation; the message carries the JSON pointer of the culprit."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


@dataclass
class AnalysisSettings:
    """The settings of one analysis, each checked by its rule
    (``result.SETTING_RULES``) as the command line and a spec file check
    it: a bad value is a ValueError that names its field."""

    points: int = DEFAULT_POINTS
    seed: int = DEFAULT_SEED
    rank_tol: float = DEFAULT_RANK_TOL
    check_tol: float = DEFAULT_CHECK_TOL
    angle_tol: float = DEFAULT_ANGLE_TOL

    def __post_init__(self):
        for name in (f.name for f in fields(self)):
            try:
                setattr(self, name, SETTING_RULES[name](getattr(self, name)))
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None


@dataclass
class LoadedMap:
    spec: MapSpec
    settings: AnalysisSettings
    origin: str       # "catalog:<id>" or file path
    digest: Optional[str] = None  # sha256 of the file bytes


def _expect(condition: bool, pointer: str, message: str) -> None:
    if not condition:
        raise MapSpecError(pointer, message)


def _expect_keys(doc: dict, pointer: str, known) -> None:
    """Reject the first key of doc that is not among the known keys, by its
    JSON pointer."""
    for key in doc:
        escaped = key.replace("~", "~0").replace("/", "~1")  # RFC 6901
        _expect(key in known, f"{pointer}/{escaped}",
                f"unknown key; expected one of {', '.join(known)}")


def _chart_from_json(doc: dict, pointer: str) -> ChartManifold:
    _expect(isinstance(doc, dict), pointer, "must be an object")
    _expect_keys(doc, pointer, ("dim", "metric", "J"))
    _expect("dim" in doc, pointer + "/dim", "missing")
    dim = doc["dim"]
    _expect(is_number(dim, int) and dim >= 1, pointer + "/dim",
            "must be a positive integer")
    for key in ("metric", "J"):
        matrix = doc.get(key)
        if matrix is not None:
            _expect(isinstance(matrix, list) and len(matrix) == dim
                    and all(isinstance(r, list) and len(r) == dim for r in matrix),
                    f"{pointer}/{key}", f"must be a {dim}x{dim} array of strings")
            for i, row in enumerate(matrix):
                for j, entry in enumerate(row):
                    _expect(isinstance(entry, str), f"{pointer}/{key}/{i}/{j}",
                            "must be an expression string")
    try:
        return ChartManifold.from_strings(dim, doc.get("metric"), doc.get("J"))
    except (ChartError, ExpressionSyntaxError) as exc:
        raise MapSpecError(pointer, str(exc))


def set_setting(settings: AnalysisSettings, attr: str, value,
                where: str) -> None:
    """Check one analysis setting by its rule and store it.  The same rule
    serves the spec file's sampling/tolerances blocks, command-line
    overrides and ``AnalysisSettings``; ``where`` (a JSON pointer or a flag)
    locates a bad value in the error."""
    try:
        value = SETTING_RULES[attr](value)
    except ValueError as exc:
        raise MapSpecError(where, str(exc)) from None
    setattr(settings, attr, value)


# each settings block's keys and the setting each one sets; the sampling.dirs
# of older files is accepted and ignored
_SETTING_KEYS = {"sampling": {"points": "points", "seed": "seed", "dirs": None},
                 "tolerances": {"rank": "rank_tol", "check": "check_tol",
                                "angle": "angle_tol"}}


def _settings_from_json(doc: dict) -> AnalysisSettings:
    settings = AnalysisSettings()
    for block, attrs in _SETTING_KEYS.items():
        values = doc.get(block, {})
        _expect(isinstance(values, dict), f"/{block}", "must be an object")
        _expect_keys(values, f"/{block}", attrs)
        for key, attr in attrs.items():
            if attr is not None and key in values:
                set_setting(settings, attr, values[key], f"/{block}/{key}")
    return settings


def map_spec_from_json(doc: dict, name: str = "") -> LoadedMap:
    _expect(isinstance(doc, dict), "", "document must be a JSON object")
    schema = doc.get("schema", SCHEMA_ID)
    _expect(schema == SCHEMA_ID, "/schema", f"unsupported schema {schema!r}")
    _expect_keys(doc, "", ("schema", "source", "target", "components",
                           "domain", "sampling", "tolerances"))
    _expect("source" in doc, "/source", "missing")
    _expect("target" in doc, "/target", "missing")
    _expect("components" in doc, "/components", "missing")
    source = _chart_from_json(doc["source"], "/source")
    target = _chart_from_json(doc["target"], "/target")
    components = doc["components"]
    _expect(isinstance(components, list) and
            all(isinstance(c, str) for c in components),
            "/components", "must be an array of expression strings")
    _expect(len(components) == target.dim, "/components",
            f"expected {target.dim} components for the target dimension, "
            f"got {len(components)}")
    box = None
    domain = doc.get("domain")
    if domain is not None:
        _expect(isinstance(domain, dict) and "box" in domain, "/domain",
                "must be an object with a 'box' array")
        _expect_keys(domain, "/domain", ("box",))
        box = domain["box"]
        _expect(isinstance(box, list) and len(box) == source.dim and
                all(isinstance(b, list) and len(b) == 2 for b in box),
                "/domain/box", "must list [lo, hi] per source coordinate")
        for i, (lo, hi) in enumerate(box):
            _expect(is_number(lo) and is_number(hi) and lo < hi,
                    f"/domain/box/{i}", "must be finite numbers lo < hi")
    try:
        spec = MapSpec.create(source, target, components, box, name=name)
    except (MapDefinitionError, ExpressionSyntaxError) as exc:
        raise MapSpecError("/components", str(exc))
    return LoadedMap(spec, _settings_from_json(doc), origin=name or "inline")


def load_map_spec(identifier: str) -> LoadedMap:
    """Resolve 'catalog:<id>' or a JSON file path into a validated map."""
    if identifier.startswith("catalog:"):
        cid = identifier[len("catalog:"):]
        try:
            spec = load_catalog(cid)
        except CatalogError as exc:
            raise MapSpecError("/map", str(exc.args[0]))
        return LoadedMap(spec, AnalysisSettings(), origin=f"catalog:{cid}")
    path = Path(identifier)
    if not path.is_file():
        raise MapSpecError("/map", f"no such file: {identifier}")
    raw = path.read_bytes()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise MapSpecError("/map", f"invalid JSON: {exc}")
    loaded = map_spec_from_json(doc, name=str(path))
    loaded.digest = hashlib.sha256(raw).hexdigest()
    return loaded
