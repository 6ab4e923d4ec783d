"""JSON document schemas for polygons.

Two kinds of document:

    {"kind": "spherical", "rho": 3, "vertices": [[x,y,z], ...], "closed": true}
    {"kind": "dancing-pair", "A": [[...], ...], "b": [[...], ...], "closed": true}

with homogeneous coordinates for the dancing pair.  A dancing-pair
document may carry "chart": [s, x, y, z], the unit quaternion the bridge
read its rolling states with (see bridge.pipeline_forward); it is left out
when that is the identity.  "closed" must be true or false.  An optional
"metadata" object (tolerance, seed, rho) is preserved on round-trips.
"""

import json
import math
import warnings

import numpy as np

from .dancing import DancingPair
from .geom import QUAT_ONE
from .rolling import SphericalPolygon

QUAT_NORM_WARN = 1e-6
CHART_NORM_TOL = 1e-9  # allowed | |chart| - 1 | in a dancing-pair document


class DocumentError(ValueError):
    pass


def polygon_to_doc(poly, metadata=None):
    doc = {"kind": "spherical", "rho": poly.rho,
           "vertices": poly.vertices.tolist(), "closed": poly.closed}
    if metadata:
        doc["metadata"] = metadata
    return doc


def pair_to_doc(pair, metadata=None):
    doc = {"kind": "dancing-pair", "A": pair.A.tolist(),
           "b": pair.b.tolist(), "closed": pair.closed}
    if not np.array_equal(pair.chart, QUAT_ONE):
        doc["chart"] = [float(c) for c in pair.chart]
    if metadata:
        doc["metadata"] = metadata
    return doc


def _require(cond, msg):
    if not cond:
        raise DocumentError(msg)


def _is_number(c):
    """A finite JSON number; JSON true and false are not numbers."""
    return isinstance(c, (int, float)) and not isinstance(c, bool) and math.isfinite(c)


def _check_rows(rows, name):
    _require(isinstance(rows, list) and len(rows) >= 1, "%s must be a nonempty list" % name)
    for row in rows:
        _require(isinstance(row, list) and len(row) == 3
                 and all(_is_number(c) for c in row) and any(c != 0 for c in row),
                 "%s entries must be nonzero 3-vectors of finite numbers" % name)


def _closed(doc, default):
    """The document's "closed" flag: a JSON boolean, or absent for `default`."""
    closed = doc.get("closed", default)
    _require(isinstance(closed, bool), "closed must be true or false, got %r" % (closed,))
    return closed


def check_rho(rho):
    """The radius ratio of the fixed to the rolling sphere: a finite number > 0."""
    _require(_is_number(rho) and rho > 0, "rho must be a finite number > 0, got %r" % (rho,))
    return float(rho)


def check_tol(tol):
    """A --tol option value: a finite number > 0."""
    _require(_is_number(tol) and tol > 0, "tol must be a finite number > 0, got %r" % (tol,))
    return float(tol)


def doc_to_polygon(doc):
    _require(doc.get("kind") == "spherical", "expected a spherical document")
    _check_rows(doc.get("vertices"), "vertices")
    return SphericalPolygon(doc["vertices"], closed=_closed(doc, True),
                            rho=check_rho(doc.get("rho", 3.0)))


def doc_to_pair(doc):
    _require(doc.get("kind") == "dancing-pair", "expected a dancing-pair document")
    _check_rows(doc.get("A"), "A")
    _check_rows(doc.get("b"), "b")
    _require(len(doc["A"]) == len(doc["b"]), "A and b must have equal length")
    chart = doc.get("chart", [1.0, 0.0, 0.0, 0.0])
    _require(isinstance(chart, list) and len(chart) == 4
             and all(_is_number(c) for c in chart)
             and abs(np.linalg.norm(chart) - 1.0) <= CHART_NORM_TOL,
             "chart must be a unit quaternion of four finite numbers")
    return DancingPair(doc["A"], doc["b"], closed=_closed(doc, False),
                       chart=np.array(chart, dtype=float))


def load_document(path):
    with open(path) as fh:
        doc = json.load(fh)
    _require(isinstance(doc, dict) and "kind" in doc, "document must carry a kind")
    return doc


def dump_document(doc, path=None):
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path is None:
        return text
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def parse_quaternion(text):
    """Parse 's,x,y,z'; normalizes, warning when the input is far from unit."""
    msg = "quaternion must be four comma-separated finite reals s,x,y,z, got %r" % (text,)
    try:
        q = np.array([float(p) for p in str(text).split(",")])
    except ValueError:
        raise DocumentError(msg) from None
    _require(q.shape == (4,) and np.isfinite(q).all(), msg)
    n = math.hypot(*q)
    _require(0.0 < n < math.inf, "quaternion norm must be nonzero and finite")
    if abs(n - 1.0) > QUAT_NORM_WARN:
        warnings.warn("quaternion normalized from |q| = %.9g" % n)
    return q / n
