"""The dancing quadric {(A, b) : bA = 1}, its rank-2 distribution, the
dancing condition on inscribed polygon pairs, and the lifting of dancing
pairs to horizontal polygons.

Conventions.  A dancing pair consists of a polygon with vertices
A_1..A_n (projective points) and a polygon with edges b_1..b_n
(projective lines).  Writing B_i = b_i ^ b_{i+1} for consecutive edge
intersections and a_i = A_i A_{i+1} for the vertex chords, the pair is
*inscribed* when each B_i lies on a_i.  The dancing condition at vertex i
is

    [A_{i+1}, B_i, A_i, D] + [A_{i+1}, B_{i+1}, A_{i+2}, C] = 0

with C = b_i ^ a_{i+1} and D = b_{i+2} ^ a_i, a sum of two cross-ratios
of collinear quadruples.  Horizontal segments on the quadric are the
affine lines with b_2 - b_1 = A_1 x A_2.

A dancing pair and a horizontal polygon both store A and b as two (n, 3)
float arrays, row i holding A_i and b_i; the kernels read those rows once
as Python floats.  A single point of the quadric (QDanPoint) holds one
(3,) array each.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    ClosureFailure,
    DancingError,
    DegenerateConfiguration,
    DegenerateQuadruple,
    NotCollinear,
    NotDancing,
    NotInscribed,
)
from .geom import (
    QUAT_ONE,
    TOL,
    _cross,
    _dot,
    _unit_rep,
    as_rows,
    as_vec3,
    covec_cross,
    cross_ratio,
    fourth_point_with_cross_ratio,
    normalize_rep,
    proj_distance,
    vec_cross,
)

DANCING_TOL = 1e-6  # default acceptance level for the dancing residual
LIFT_TOL = 1e-8  # largest relative disagreement of consecutive edge lifts
NONDEG_DET = 1e-9  # non-degeneracy: |det| of normalized triples, |b_i . A_i|


@dataclass(frozen=True)
class QDanPoint:
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_vec3(self.A))
        object.__setattr__(self, "b", as_vec3(self.b))

    def membership_residual(self):
        return abs(float(self.b @ self.A) - 1.0)

    def coords(self):
        return np.concatenate([self.A, self.b])

    def __sub__(self, other):
        return np.concatenate([self.A - other.A, self.b - other.b])

    def distance(self, other):
        return float(np.linalg.norm(self - other))


@dataclass
class _Rows:
    """Rows A[i], b[i] of a polygon: (n, 3) float arrays of one length n >= 1,
    from anything numpy reads as such; ValueError otherwise."""
    A: np.ndarray
    b: np.ndarray
    closed: bool = False

    def __post_init__(self):
        self.A = as_rows(self.A)
        self.b = as_rows(self.b)
        if len(self.A) != len(self.b):
            raise ValueError("vertex and edge arrays must have equal length")

    def __len__(self):
        return len(self.A)


@dataclass
class HorizontalPolygon(_Rows):
    """Points (A[i], b[i]) of the quadric bA = 1 as rows (see _Rows), each
    joined to the next by a horizontal segment."""

    @property
    def points(self):
        """The vertices as QDanPoints, built on each access."""
        return [QDanPoint(a, b) for a, b in zip(self.A, self.b)]


@dataclass
class DancingPair(_Rows):
    """Vertex representatives A[i] and edge representatives b[i]; projective
    data, so representatives are only defined up to scale.  A and b are
    (n, 3) float arrays as in _Rows, one row per vertex and per edge.

    `chart` is the unit quaternion r with which the bridge read rolling
    states s as s r before mapping them to the pair (the identity unless
    that reading would put a vertex on the chart's excluded hyperplane);
    the inverse transport multiplies by conj(r) to undo it."""
    chart: np.ndarray = field(default_factory=lambda: QUAT_ONE.copy())

    def __post_init__(self):
        super().__post_init__()
        self.chart = np.asarray(self.chart, dtype=float)

    def vertex_indices(self):
        """Indices i at which the dancing condition applies."""
        n = len(self)
        return range(n) if self.closed else range(n - 2)

    def edge_indices(self):
        """Indices i at which the inscribed condition (B_i on a_i) applies."""
        n = len(self)
        return range(n) if self.closed else range(n - 1)


def dan_distribution_basis(p):
    """Two independent tangent directions (Adot, bdot) spanning the rank-2
    plane at p: bdot = A x Adot with b Adot = 0 (tangency to the quadric
    is then automatic, since (A x Adot) A = 0)."""
    b = p.b / np.linalg.norm(p.b)
    # two unit vectors spanning ker(b)
    u, s, vt = np.linalg.svd(b.reshape(1, 3))
    k1, k2 = vt[1], vt[2]
    return [(k1, np.cross(p.A, k1)), (k2, np.cross(p.A, k2))]


def horizontal_residual(p, q):
    """Norm of (b_2 - b_1) - A_1 x A_2 for two quadric points."""
    return float(np.linalg.norm((q.b - p.b) - np.cross(p.A, q.A)))


def _cyclic_rows(X, i, k):
    """Rows i, ..., i + k - 1 of the (n, 3) array X, indices mod n, as lists
    of floats; only those rows are converted."""
    i %= len(X)
    rows = X[i:i + k].tolist()
    while len(rows) < k:
        rows += X[:k - len(rows)].tolist()
    return rows


def dancing_residual(pair, i, tol=TOL):
    """Value of the dancing condition at vertex i (zero iff it holds)."""
    n = len(pair)
    if not pair.closed and i > n - 3:
        raise IndexError("open pair has no dancing condition at index %d" % i)
    A1, A2, A3 = _cyclic_rows(pair.A, i, 3)
    b1, b2, b3 = _cyclic_rows(pair.b, i, 3)
    B1, B2 = _cross(b1, b2), _cross(b2, b3)
    a1, a2 = _cross(A1, A2), _cross(A2, A3)
    C, D = _cross(b1, a2), _cross(b3, a1)
    try:
        return cross_ratio(A2, B1, A1, D, tol) + cross_ratio(A2, B2, A3, C, tol)
    except (NotCollinear, DegenerateQuadruple, ValueError) as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def inscribed_residual(pair, i):
    """Distance certificate that B_i = b_i ^ b_{i+1} lies on the chord a_i."""
    A1, A2 = _cyclic_rows(pair.A, i, 2)
    b1, b2 = _cyclic_rows(pair.b, i, 2)
    try:
        return abs(_dot(_unit_rep(_cross(A1, A2)), _unit_rep(_cross(b1, b2))))
    except ValueError as exc:
        raise DegenerateConfiguration(str(exc)) from exc


def nondegeneracy_report(pair):
    """Certificates of the genericity assumptions: each A_i off b_i,
    consecutive vertex triples non-collinear, consecutive edge triples
    non-concurrent.  Returns the three lists of |det| margins, triple
    products of unit representatives."""
    n = len(pair)
    A, b = ([_unit_rep(r) for r in rows.tolist()] for rows in (pair.A, pair.b))
    off_edge = [abs(_dot(bb, a)) for a, bb in zip(A, b)]
    tri_v, tri_b = ([abs(_dot(_cross(r[i], r[(i + 1) % n]), r[(i + 2) % n]))
                     for i in pair.vertex_indices()] for r in (A, b))
    return off_edge, tri_v, tri_b


def is_nondegenerate(pair, det_tol=NONDEG_DET):
    off_edge, tri_v, tri_b = nondegeneracy_report(pair)
    return (min(off_edge) > det_tol and
            (not tri_v or min(tri_v) > det_tol) and
            (not tri_b or min(tri_b) > det_tol))


def _lift_edge(a1, b1, a2, b2, tol=TOL):
    """The unique horizontal lift of an inscribed 2-gon, as two 6-float rows.

    With unit edges b_i and vertices scaled to b_i A_i = 1, the chord
    normal A_1 x A_2 lies in the pencil of b_1 and b_2: that is the
    inscribed hypothesis, tested as |chord . n| / |n| <= 1e-7 max(1, |chord|)
    with n = b_1 x b_2.  Its coordinates lam1 = [chord, b_2], lam2 =
    [b_1, chord] in the brackets of geom._line_coords give the lift
    (x_1 A_1, b_1 / x_1), (x_2 A_2, b_2 / x_2) with x_1 = cbrt(lam2 / lam1^2)
    and x_2 = -cbrt(lam1 / lam2^2), whatever the representatives' signs.
    A vertex within NONDEG_DET of its own edge is refused, the same margin
    is_nondegenerate demands.
    """
    a1, a2, b1, b2 = (_unit_rep(v) for v in (a1, a2, b1, b2))
    if math.hypot(*_cross(a1, a2)) <= tol or math.hypot(*_cross(b1, b2)) <= tol:
        raise DegenerateConfiguration("2-gon needs distinct vertices and edges")
    s1, s2 = _dot(b1, a1), _dot(b2, a2)
    if abs(s1) <= NONDEG_DET or abs(s2) <= NONDEG_DET:
        raise DegenerateConfiguration("a vertex lies on its own edge")
    A1, A2 = [c / s1 for c in a1], [c / s2 for c in a2]
    chord = _cross(A1, A2)
    n = _cross(b1, b2)
    nn = _dot(n, n)
    if abs(_dot(chord, n)) / math.sqrt(nn) > 1e-7 * max(1.0, math.hypot(*chord)):
        raise NotInscribed("edge intersection is off the vertex chord")
    lam1 = _dot(_cross(chord, b2), n) / nn
    lam2 = _dot(_cross(b1, chord), n) / nn
    if abs(lam1) <= tol or abs(lam2) <= tol:
        raise DegenerateConfiguration("chord normal degenerate in the edge pencil")
    x1 = float(np.cbrt(lam2 / lam1 ** 2))
    x2 = float(-np.cbrt(lam1 / lam2 ** 2))
    return ([x1 * c for c in A1] + [c / x1 for c in b1],
            [x2 * c for c in A2] + [c / x2 for c in b2])


def lift_dancing_pair(pair, tol=DANCING_TOL):
    """Lift a dancing pair to the horizontal polygon it projects from.

    Each edge i (cyclically for a closed pair) is lifted on its own by
    _lift_edge, and vertex i is read from edge i's lift (the last vertex of
    an open chain from the last edge's second row; an inscribed 2-gon is the
    open n = 2 case).  Two edge lifts meeting at a vertex agree exactly when
    the pair dances there; their largest relative disagreement |Q - P| /
    |(A, b)| is the certificate, and above LIFT_TOL ClosureFailure names its
    vertex and value.  NotDancing is raised first when a dancing residual
    exceeds tol.
    """
    n = len(pair)
    if n < 2:
        raise ValueError("need at least two vertices")
    for i in pair.vertex_indices():
        r = dancing_residual(pair, i)
        if abs(r) > tol:
            raise NotDancing("dancing residual %.3g at vertex %d" % (r, i))
    A, b = pair.A.tolist(), pair.b.tolist()
    edges = [_lift_edge(A[i], b[i], A[(i + 1) % n], b[(i + 1) % n])
             for i in pair.edge_indices()]
    rows = [p for p, _ in edges] + ([] if pair.closed else [edges[-1][1]])
    first = 0 if pair.closed else 1
    gaps = [math.dist(edges[i - 1][1], rows[i]) / math.hypot(*rows[i])
            for i in range(first, len(edges))]
    if gaps and max(gaps) > LIFT_TOL:
        i = int(np.argmax(gaps))
        raise ClosureFailure("consecutive edge lifts disagree by %.2g at vertex %d"
                             % (gaps[i], first + i))
    rows = np.array(rows)
    return HorizontalPolygon(rows[:, :3], rows[:, 3:], closed=pair.closed)


def project_polygon(poly):
    """DancingPair of projective classes under a horizontal polygon."""
    return DancingPair(poly.A, poly.b, closed=poly.closed)


# ---------------------------------------------------------------------------
# randomized constructions


def _unit(rng):
    while True:
        v = rng.standard_normal(3)
        n = np.linalg.norm(v)
        if n > 1e-3:
            return v / n


def random_qdan_point(rng):
    A = _unit(rng) * rng.uniform(0.7, 1.4)
    c = _unit(rng)
    c = c - (c @ A) / (A @ A) * A
    b = A / (A @ A) + 0.7 * c
    return QDanPoint(A, b)


def random_horizontal_chain(n, seed=None, rng=None, step=(0.4, 1.2)):
    """A horizontal n-chain built from random rank-2 plane steps; resamples
    until consecutive vertex triples are safely non-collinear."""
    rng = np.random.default_rng(seed) if rng is None else rng
    for _ in range(200):
        pts = [random_qdan_point(rng)]
        ok = True
        for _ in range(n - 1):
            (d1, e1), (d2, e2) = dan_distribution_basis(pts[-1])
            c = _unit(rng)[:2]
            t = rng.uniform(*step) * rng.choice([-1.0, 1.0])
            dA = t * (c[0] * d1 + c[1] * d2)
            db = t * (c[0] * e1 + c[1] * e2)
            pts.append(QDanPoint(pts[-1].A + dA, pts[-1].b + db))
            if len(pts) >= 3:
                det = np.linalg.det(np.array([normalize_rep(p.A) for p in pts[-3:]]))
                if abs(det) < 5e-3:
                    ok = False
                    break
        if ok:
            return HorizontalPolygon([p.A for p in pts], [p.b for p in pts])
    raise DegenerateConfiguration("could not sample a generic horizontal chain")


def _solve_next_edge_raw(A, bs, i):
    """The unique edge b_{i+2} making the dancing condition hold at vertex i,
    given A_i..A_{i+2}, b_i, b_{i+1}.

    The inscribed condition pins B_{i+1} = b_{i+1} ^ a_{i+1}, so b_{i+2}
    runs through a pencil of lines; the dancing condition prescribes the
    cross-ratio of the fourth point D on a_i, which determines D, and
    b_{i+2} is the line joining B_{i+1} to D.
    """
    A1, A2, A3 = A[i], A[i + 1], A[i + 2]
    b1, b2 = bs[i], bs[i + 1]
    a1 = vec_cross(A1, A2)
    a2 = vec_cross(A2, A3)
    B1 = covec_cross(b1, b2)
    B2 = covec_cross(b2, a2)
    C = covec_cross(b1, a2)
    k = -cross_ratio(A2, B2, A3, C)
    D = fourth_point_with_cross_ratio(A2, B1, A1, k)
    return vec_cross(B2, D)


def random_dancing_chain(n, seed=None, max_tries=200):
    """A random open dancing chain with n vertices.

    Vertices and the first edge are sampled uniformly on spheres of
    representatives with rejection; the second edge is a generic member of
    the pencil through b_1 ^ a_1; the remaining edges are determined
    recursively by the dancing condition (solved exactly through the
    prescribed-cross-ratio fourth point).
    """
    if n < 2:
        raise ValueError("a chain needs at least 2 vertices")
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        try:
            A = [_unit(rng) for _ in range(n)]
            ok = all(abs(np.linalg.det(np.array(A[i:i + 3]))) > 5e-3
                     for i in range(n - 2))
            if not ok:
                continue
            b1 = _unit(rng)
            if abs(b1 @ A[0]) < 5e-2 or abs(b1 @ A[1]) < 5e-2:
                continue
            P = covec_cross(b1, vec_cross(A[0], A[1]))
            b2 = vec_cross(P, _unit(rng))
            if (np.linalg.norm(b2) < 1e-3 or proj_distance(b1, b2) < 1e-2
                    or abs(normalize_rep(b2) @ normalize_rep(A[1])) < 5e-2):
                continue
            bs = [b1, normalize_rep(b2)]
            good = True
            for i in range(n - 2):
                nxt = normalize_rep(_solve_next_edge_raw(A, bs, i))
                if abs(nxt @ normalize_rep(A[i + 2])) < 5e-2:
                    good = False
                    break
                det = np.linalg.det(np.array([normalize_rep(v)
                                              for v in (bs[-2], bs[-1], nxt)]))
                if abs(det) < 5e-3:
                    good = False
                    break
                bs.append(nxt)
            if not good:
                continue
            pair = DancingPair(A, bs, closed=False)
            if not is_nondegenerate(pair, det_tol=1e-4):
                continue
            if any(abs(dancing_residual(pair, i)) > 1e-9
                   for i in pair.vertex_indices()):
                continue
            if any(inscribed_residual(pair, i) > 1e-9 for i in pair.edge_indices()):
                continue
            return pair
        except (DancingError, DegenerateQuadruple, NotCollinear):
            continue
    raise DegenerateConfiguration("no generic dancing chain found in %d tries" % max_tries)


# ---------------------------------------------------------------------------
# SL3 normal form for horizontal 3-chains


def apply_sl3(S, p):
    """The action (A, b) -> (S A, b S^-1) of a unimodular matrix."""
    return QDanPoint(S @ p.A, np.linalg.solve(S.T, p.b))


def normalize_horizontal_3chain(q1, q2, q3, tol=TOL):
    """A unimodular S putting a horizontal 3-chain in normal form.

    After the move, q2 = (e1, e^1), q1 = q2 + (e2, e^3) and
    q3 = q2 + a (e3, -e^2) for the modulus a returned alongside S.  So S^-1
    has columns A_2, u_1 = A_1 - A_2 and u_3 / a with u_3 = A_3 - A_2, and
    det S = 1 gives a = det[A_2, u_1, u_3]; the rows of S are then
    (u_1 x u_3) / a, (u_3 x A_2) / a and A_2 x u_1.
    """
    A2, b2 = q2.A.tolist(), q2.b.tolist()
    if abs(_dot(A2, b2)) <= tol * math.hypot(*b2):
        raise DegenerateConfiguration("vertex on its own edge")
    u1, u3 = (q1.A - q2.A).tolist(), (q3.A - q2.A).tolist()
    n = _cross(A2, u1)
    a = _dot(n, u3)
    if abs(a) <= tol:
        raise DegenerateConfiguration("chain directions are parallel")
    S = np.array([_cross(u1, u3), _cross(u3, A2), n])
    S[:2] /= a
    return S, a


def solve_horizontal_quad(q1, q2, q3):
    """The unique q4 joined horizontally to both q1 and q3 of a horizontal
    3-chain.  The two segment conditions give a linear line equation
    (A1 - A3) x A4 = b3 - b1 whose pencil is cut down to a point by the
    quadric equation b4 A4 = 1 (which turns out to be linear along the
    pencil)."""
    d = q1.A - q3.A
    r = q3.b - q1.b
    dd = float(d @ d)
    if dd <= TOL:
        raise DegenerateConfiguration("outer vertices coincide")
    if abs(d @ r) > 1e-8 * max(1.0, np.linalg.norm(r)):
        raise DegenerateConfiguration("incompatible two-sided constraints")
    A4p = np.cross(r, d) / dd
    slope = float(q1.b @ d)
    if abs(slope) <= TOL:
        raise DegenerateConfiguration("pencil parallel to the quadric")
    t = (1.0 - float(q1.b @ A4p)) / slope
    A4 = A4p + t * d
    b4 = q1.b + np.cross(q1.A, A4)
    return QDanPoint(A4, b4)
