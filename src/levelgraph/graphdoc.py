"""JSON documents bundling a graph with named rational vertex functions.

Functions are stored as "p/q" strings so combinatorial pipelines never
see floats; loading parses them exactly and saving always writes the
canonical key order, making save(load(text)) idempotent.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction

from .core import SimplicialGraph
from .errors import InputError
from .rational import as_fraction

FORMAT_VERSION = 1
# a loaded graph allocates one neighbour set per vertex before any edge is read
MAX_VERTICES = 10 ** 5


@dataclass
class GraphDocument:
    graph: SimplicialGraph
    values: dict[str, list[Fraction]] = field(default_factory=dict)


def _fail(where: str, why: str):
    raise InputError(f"{where}: {why}")


def _parse_rational(entry, where: str) -> Fraction:
    try:
        return as_fraction(entry)
    except InputError as e:
        _fail(where, str(e))


def _parse_point(entry, where: str) -> tuple[float, ...]:
    if isinstance(entry, list) and not any(isinstance(x, bool) for x in entry):
        try:
            point = tuple(float(x) for x in entry)
        except (TypeError, ValueError, OverflowError):
            pass
        else:
            if all(math.isfinite(x) for x in point):
                return point
    _fail(where, f"expected a list of finite numbers, got {entry!r}")


def loads(text: str) -> GraphDocument:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise InputError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    except (ValueError, RecursionError) as e:  # over the int-digit or nesting limit
        raise InputError(f"cannot decode document: {e}") from None
    if not isinstance(raw, dict):
        _fail("document", "top level must be an object")
    version = raw.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        _fail("format_version", f"unsupported version {version!r}")

    vertices = raw.get("vertices")
    if isinstance(vertices, int) and not isinstance(vertices, bool):
        n = vertices
    elif isinstance(vertices, list):
        n = len(vertices)
    else:
        _fail("vertices", "must be a count or a list of labels")
    if n < 0:
        _fail("vertices", f"negative count {n}")
    if n > MAX_VERTICES:
        _fail("vertices", f"{n} vertices exceed the cap of {MAX_VERTICES}")
    labels = ([tuple(v) if isinstance(v, list) else v for v in vertices]
              if isinstance(vertices, list) else None)

    edges = raw.get("edges", [])
    if not isinstance(edges, list):
        _fail("edges", "must be a list of pairs")
    seen = set()
    pairs = []
    for i, e in enumerate(edges):
        where = f"edges[{i}]"
        if not (isinstance(e, list) and len(e) == 2):
            _fail(where, f"expected a pair, got {e!r}")
        u, v = e
        if not all(isinstance(x, int) and not isinstance(x, bool) for x in (u, v)):
            _fail(where, f"vertex ids must be integers, got {e!r}")
        if not (0 <= u < n and 0 <= v < n):
            _fail(where, f"vertex out of range in {e!r} (n={n})")
        if u == v:
            _fail(where, f"self-loop at {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            _fail(where, f"duplicate edge {key}")
        seen.add(key)
        pairs.append((u, v))

    coords = raw.get("coordinates")
    if coords is not None:
        if not (isinstance(coords, list) and len(coords) == n):
            _fail("coordinates", f"expected {n} entries")
        coords = [_parse_point(p, f"coordinates[{i}]") for i, p in enumerate(coords)]
        if len({len(p) for p in coords}) > 1:
            _fail("coordinates", "entries differ in length")

    graph = SimplicialGraph(n, pairs, labels=labels, coordinates=coords)

    values: dict[str, list[Fraction]] = {}
    raw_values = raw.get("values", {})
    if not isinstance(raw_values, dict):
        _fail("values", "must be an object of named functions")
    for name, arr in raw_values.items():
        where = f"values[{name!r}]"
        if not isinstance(arr, list):
            _fail(where, "must be a list")
        if len(arr) != n:
            _fail(where, f"expected {n} entries, got {len(arr)}")
        values[name] = [_parse_rational(x, f"{where}[{i}]") for i, x in enumerate(arr)]
    return GraphDocument(graph, values)


def dumps(doc: GraphDocument) -> str:
    g = doc.graph
    raw: dict = {"format_version": FORMAT_VERSION}
    if g.labels is not None:
        raw["vertices"] = [list(l) if isinstance(l, tuple) else l for l in g.labels]
    else:
        raw["vertices"] = g.n
    raw["edges"] = [list(e) for e in g.edges()]
    if doc.values:
        raw["values"] = {name: [f"{v.numerator}/{v.denominator}" for v in vals]
                         for name, vals in doc.values.items()}
    if g.coordinates is not None:
        raw["coordinates"] = [list(p) for p in g.coordinates]
    return json.dumps(raw, sort_keys=True, indent=2) + "\n"


def load(path: str) -> GraphDocument:
    with open(path, encoding="utf-8") as fh:
        return loads(fh.read())


def save(doc: GraphDocument, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))
