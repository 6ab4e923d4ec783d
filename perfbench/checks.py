"""Output checks for the benchmark, written apart from the program.

Nothing here imports danceroll: every check recomputes the property it
tests from plain numpy, so a fault in the library's own certificates
cannot hide a wrong output.  Each check returns the measured defect and
raises CheckFailed when the defect exceeds its named tolerance.

Conventions follow the paper's models:

* a dancing pair is a list of vertices A_i (points of the projective
  plane) and edges b_i (lines), both as homogeneous 3-vectors;
* a quaternion is [s, x, y, z], scalar first;
* at radius ratio 3, rolling along the arc from the class of v1 to the
  class of v2 multiplies the lifted state by exp(2 delta u), with delta
  the arc length and u the unit arc normal.
"""

import math

import numpy as np

# Dancing condition: |CR1 + CR2| against the size of the two cross-ratios.
DANCING_REL_TOL = 1e-8
# Inscribed condition: |<a_i, B_i>| of the unit chord a_i = A_i x A_{i+1}
# and the unit edge intersection B_i = b_i x b_{i+1}.
INSCRIBED_TOL = 1e-8
# Lifted monodromy of a polygon given to double precision: the product of
# n closed-form edge factors, each exact to a few ulps.
MONODROMY_TOL = 1e-9
# A class moved by e moves each of its two edge factors exp(2 delta u) by at
# most 2e, so a polygon whose n classes are off by e may miss +1 by another
# EDGE_FACTOR_GAIN * n * e.
EDGE_FACTOR_GAIN = 4.0
# Round trip: the recovered start quaternion and contact classes.
Q_RECOVERY_TOL = 1e-8
CLASS_RECOVERY_TOL = 1e-8
# RK4 has global error O(h^4): the ODE's lifted monodromy may miss +1 by
# at most ODE_DEFECT_COEFF * steps**-4 (steps per edge).  The worst defect
# over the admissible polygons is 11 * steps**-4 at 250 steps per edge
# (2.9e-9) and 4.7 * steps**-4 at 500 and 1000.
ODE_DEFECT_COEFF = 50.0
# Closure relation cos(pi w'/n) = cos(pi w/n) (1 - 4 sin^2(pi w/n) sin^2 phi)
# of a solved colatitude phi.
CLOSURE_TOL = 1e-12
# Vertices of a solved regular polygon: unit, on the colatitude-phi circle.
VERTEX_TOL = 1e-12
# Smallest n with an admissible regular polygon.
MIN_ADMISSIBLE_N = 6


class CheckFailed(Exception):
    """An output of the program fails one of the benchmark's checks."""


def _require(ok, msg):
    if not ok:
        raise CheckFailed(msg)


def _unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def qmul(p, q):
    """Hamilton product of quaternions [s, x, y, z], written out."""
    s1, x1, y1, z1 = p
    s2, x2, y2, z2 = q
    return np.array([
        s1 * s2 - x1 * x2 - y1 * y2 - z1 * z2,
        s1 * x2 + x1 * s2 + y1 * z2 - z1 * y2,
        s1 * y2 - x1 * z2 + y1 * s2 + z1 * x2,
        s1 * z2 + x1 * y2 - y1 * x2 + z1 * s2,
    ])


def edge_factor(v1, v2):
    """exp(2 delta u) for the arc between the classes of v1 and v2."""
    v1, v2 = _unit(v1), _unit(v2)
    c = np.cross(v1, v2)
    s = float(np.linalg.norm(c))
    _require(s > 0.0, "edge endpoints are parallel")
    delta = math.atan2(s, float(v1 @ v2))
    return np.concatenate([[math.cos(2.0 * delta)], math.sin(2.0 * delta) * c / s])


def lifted_monodromy(vertices):
    """Ordered product of the edge factors around a closed polygon."""
    n = len(vertices)
    g = np.array([1.0, 0.0, 0.0, 0.0])
    for i in range(n):
        g = qmul(edge_factor(vertices[i], vertices[(i + 1) % n]), g)
    return g


def check_trivial_monodromy(vertices, tol=MONODROMY_TOL):
    """|g - 1| for the lifted monodromy g of a closed polygon."""
    d = float(np.linalg.norm(lifted_monodromy(vertices) - [1.0, 0.0, 0.0, 0.0]))
    _require(d <= tol, "lifted monodromy misses +1 by %.3g" % d)
    return d


def _rows(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def line_det(p, q, line):
    """The 2x2 determinant of p and q in coordinates on their common line,
    row by row.

    In an orthonormal basis (e1, e2) of the plane through the origin that
    the unit line covector l cuts out, det[[p.e1, q.e1], [p.e2, q.e2]]
    equals l . (p x q) when (e1, e2, l) is positively oriented."""
    return np.einsum("ij,ij->i", np.cross(p, q), line)


def cross_ratio(p1, p2, p3, p4, line):
    """[p1, p2; p3, p4] = [13][24] / ([14][23]) on the given line, with
    [ij] the line determinant of unit representatives, row by row.  This
    is k in p3 = p1' + p2', p4 = k p1' + p2' for rescaled p1', p2'."""
    line = _rows(line)
    p1, p2, p3, p4 = (_rows(p) for p in (p1, p2, p3, p4))
    d14, d23 = line_det(p1, p4, line), line_det(p2, p3, line)
    _require(np.all(d14 != 0.0) and np.all(d23 != 0.0),
             "coincident points in a cross-ratio")
    return line_det(p1, p3, line) * line_det(p2, p4, line) / (d14 * d23)


def dancing_defects(A, b):
    """Relative dancing defect at each vertex of a closed pair.

    At vertex i, with B_i = b_i ^ b_{i+1}, a_i = A_i A_{i+1},
    C = b_i ^ a_{i+1} and D = b_{i+2} ^ a_i, the dancing condition is
    [A_{i+1}, B_i, A_i, D] + [A_{i+1}, B_{i+1}, A_{i+2}, C] = 0; the defect
    is |CR1 + CR2| / max(1, |CR1|, |CR2|)."""
    A1, b1 = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    A2, A3 = np.roll(A1, -1, axis=0), np.roll(A1, -2, axis=0)
    b2, b3 = np.roll(b1, -1, axis=0), np.roll(b1, -2, axis=0)
    a1, a2 = np.cross(A1, A2), np.cross(A2, A3)
    B1, B2 = np.cross(b1, b2), np.cross(b2, b3)
    C, D = np.cross(b1, a2), np.cross(b3, a1)
    k1 = cross_ratio(A2, B1, A1, D, a1)
    k2 = cross_ratio(A2, B2, A3, C, a2)
    return np.abs(k1 + k2) / np.maximum(1.0, np.maximum(np.abs(k1), np.abs(k2)))


def check_dancing(A, b, tol=DANCING_REL_TOL):
    d = float(dancing_defects(A, b).max())
    _require(d <= tol, "dancing defect %.3g" % d)
    return d


def check_inscribed(A, b, tol=INSCRIBED_TOL):
    """Worst |<a_i, B_i>| over the edges of a closed pair."""
    A, b = np.asarray(A, dtype=float), np.asarray(b, dtype=float)
    a = _rows(np.cross(A, np.roll(A, -1, axis=0)))
    B = _rows(np.cross(b, np.roll(b, -1, axis=0)))
    d = float(np.abs(np.einsum("ij,ij->i", a, B)).max())
    _require(d <= tol, "inscribed defect %.3g" % d)
    return d


def check_pair(A, b):
    """The dancing and inscribed conditions of a closed pair; returns the
    worst dancing defect."""
    _require(len(A) == len(b) >= 3, "pair needs as many vertices as edges, at least 3")
    check_inscribed(A, b)
    return check_dancing(A, b)


def quat_error(q, q_expected):
    return float(np.linalg.norm(np.asarray(q, dtype=float) - _unit(q_expected)))


def class_error(vertices, expected):
    """Worst distance between the unit representatives of two lists of
    projective classes, taken over both signs."""
    _require(len(vertices) == len(expected), "vertex count changed")
    v, w = _rows(vertices), _rows(expected)
    return float(np.minimum(np.linalg.norm(v - w, axis=1),
                            np.linalg.norm(v + w, axis=1)).max())


def check_round_trip(q, classes, q_expected, expected_classes,
                     q_tol=Q_RECOVERY_TOL, class_tol=CLASS_RECOVERY_TOL):
    """The start quaternion and contact classes given back by the inverse
    transport, and the trivial monodromy of the classes; returns the two
    recovery errors."""
    dq = quat_error(q, q_expected)
    _require(dq <= q_tol, "start quaternion recovered with error %.3g" % dq)
    dc = class_error(classes, expected_classes)
    _require(dc <= class_tol, "contact classes recovered with error %.3g" % dc)
    check_trivial_monodromy(classes,
                            MONODROMY_TOL + EDGE_FACTOR_GAIN * len(classes) * dc)
    return dq, dc


def ode_defect_tol(steps_per_edge):
    return ODE_DEFECT_COEFF * float(steps_per_edge) ** -4


def check_ode_monodromy(q, steps_per_edge):
    """|q - 1| for the ODE's lifted monodromy of an admissible polygon."""
    d = float(np.linalg.norm(np.asarray(q, dtype=float) - [1.0, 0.0, 0.0, 0.0]))
    tol = ode_defect_tol(steps_per_edge)
    _require(d <= tol, "ODE monodromy misses +1 by %.3g (tolerance %.3g)" % (d, tol))
    return d


def closure_defect(n, w, wprime, phi):
    a = math.pi * w / n
    return abs(math.cos(math.pi * wprime / n)
               - math.cos(a) * (1.0 - 4.0 * math.sin(a) ** 2 * math.sin(phi) ** 2))


def check_triple(n, w, wprime, phi, tol=CLOSURE_TOL):
    """An admissible (n, w, w', phi): in range, w' = w mod 2, and the closure
    relation holds."""
    _require(isinstance(n, int) and isinstance(w, int) and isinstance(wprime, int),
             "n, w, w' must be integers")
    _require(0 < w < n / 2 and w < wprime < n and (wprime - w) % 2 == 0,
             "(%s, %s, %s) is not an admissible triple" % (n, w, wprime))
    _require(0.0 < phi < math.pi / 2, "colatitude %r out of range" % (phi,))
    d = closure_defect(n, w, wprime, phi)
    _require(d <= tol, "closure relation misses by %.3g" % d)
    return d


def check_solve_regular(doc, n, w, wprime):
    """`solve-regular --json`: the colatitude solves the closure relation,
    the vertices form the regular polygon on it, and its lifted monodromy
    is trivial."""
    _require((doc["n"], doc["w"], doc["wprime"]) == (n, w, wprime),
             "solve-regular answered another triple")
    phi = doc["phi"]
    check_triple(n, w, wprime, phi)
    V = np.asarray(doc["vertices"], dtype=float)
    _require(V.shape == (n, 3), "solve-regular gave %s vertices" % (V.shape,))
    _require(np.abs(np.linalg.norm(V, axis=1) - 1.0).max() <= VERTEX_TOL
             and np.abs(V[:, 2] - math.cos(phi)).max() <= VERTEX_TOL,
             "vertices are not unit vectors on the colatitude-phi circle")
    check_trivial_monodromy(V)
    _require(doc["trivial"] is True, "solve-regular calls the monodromy nontrivial")


def check_enumerate(rows, n_max):
    """`enumerate N_MAX --json`: every row is admissible, and there is a row
    for every n from MIN_ADMISSIBLE_N to n_max and none below."""
    ns = set()
    for row in rows:
        check_triple(row["n"], row["w"], row["wprime"], row["phi"])
        ns.add(row["n"])
    _require(ns == set(range(MIN_ADMISSIBLE_N, n_max + 1)),
             "enumerate lists n in %s" % sorted(ns))
    return len(rows)
