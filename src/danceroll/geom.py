"""Primitives for R^3, its dual, projective points/lines and unit quaternions.

A single vector is a numpy array of shape (3,); a polygon's worth of them
is one (n, 3) float array with a row per vector (see as_rows), which the
kernels read once as rows of Python floats for _cross, _dot and
_line_coords.  Points of the projective plane are represented by nonzero
"column" vectors (class Vec3 semantics), lines by nonzero "row"
covectors.  Quaternions are arrays [s, x, y, z] with scalar part first.
"""

import math

import numpy as np

from .errors import DegenerateQuadruple, NonUnitAxis, NotCollinear

TOL = 1e-9
COLLINEAR_TOL = 1e-6  # largest |p . n| / |n| of a point on the line with normal n


def as_vec3(x):
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (v.shape,))
    return v


def as_rows(x):
    """x as an (n, 3) float array with n >= 1; ValueError otherwise."""
    v = np.array(x, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3 or len(v) == 0:
        raise ValueError("expected an (n, 3) array with n >= 1, got shape %s" % (v.shape,))
    return v


def _cross(a, b):
    """Cross product of two 3-sequences of Python floats, as a tuple."""
    a1, a2, a3 = a
    b1, b2, b3 = b
    return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _unit_rep(v, tol=TOL):
    """v / |v| for any 3-sequence v, as a tuple of floats; ValueError for a
    zero vector."""
    x, y, z = v.tolist() if isinstance(v, np.ndarray) else v
    n = math.hypot(x, y, z)
    if n <= tol:
        raise ValueError("zero vector has no projective class")
    return (x / n, y / n, z / n)


def _complement(u):
    """Two unit vectors completing the unit 3-vector u to an orthonormal
    basis, as the rows of a (2, 3) array (Duff et al., "Building an
    Orthonormal Basis, Revisited", JCGT 2017).  The branch on the sign of
    u_z keeps 1 / (sign + u_z) away from a pole; at u = e_x the rows are
    exactly (0, 0, -1) and (0, 1, 0)."""
    x, y, z = u
    sign = math.copysign(1.0, z)
    a = -1.0 / (sign + z)
    b = x * y * a
    return np.array([(1.0 + sign * x * x * a, sign * b, -sign * x),
                     (b, sign + y * y * a, -y)])


def vec_cross(a1, a2):
    """Cross product of two column vectors, read as a covector.

    Returns the row vector vol(a1, a2, .), i.e. the line through the two
    projective points [a1], [a2] in homogeneous coordinates.  Zero output
    for parallel inputs is allowed.
    """
    return np.array(_cross(as_vec3(a1).tolist(), as_vec3(a2).tolist()))


def covec_cross(b1, b2):
    """Dual cross product: two row covectors give the column vector
    vol*(b1, b2, .), i.e. the intersection point of the lines [b1], [b2]."""
    return np.array(_cross(as_vec3(b1).tolist(), as_vec3(b2).tolist()))


def normalize_rep(v, tol=TOL):
    """Canonical representative of a projective point/line: unit norm,
    first nonzero component positive."""
    v = np.array(_unit_rep(v, tol))
    for c in v:
        if abs(c) > tol:
            if c < 0:
                v = -v
            break
    return v


def proj_distance(v, w):
    """Distance between canonical representatives (0 iff same class)."""
    a = normalize_rep(v)
    b = normalize_rep(w)
    return min(np.linalg.norm(a - b), np.linalg.norm(a + b))


def _line_coords(p1, p2, points, tol):
    """Coordinates (alpha, beta) with p = alpha p1 + beta p2 of each point p
    on the line through the unit representatives p1, p2 (Python floats).

    With n = p1 x p2 and the bracket [x, y] = (x x y) . n,

        alpha = [p, p2] / [p1, p2],   beta = [p1, p] / [p1, p2],

    where [p1, p2] = |n|^2.  A point counts as collinear with p1, p2 when the
    determinant |p . n| / |n| is at most COLLINEAR_TOL.
    """
    n = _cross(p1, p2)
    nn = _dot(n, n)
    norm = math.sqrt(nn)
    if norm <= tol:
        raise DegenerateQuadruple("first two points coincide projectively")
    coords = []
    for p in points:
        off = abs(_dot(p, n)) / norm
        if off > COLLINEAR_TOL:
            raise NotCollinear("points are not collinear: det = %g" % off)
        coords.append((_dot(_cross(p, p2), n) / nn, _dot(_cross(p1, p), n) / nn))
    return coords


def cross_ratio(p1, p2, p3, p4, tol=TOL):
    """Cross-ratio of four collinear projective points.

    Writing p3 = alpha p1 + beta p2 and p4 = gamma p1 + delta p2 (see
    _line_coords) for unit p1..p4 (k is even in each point, so no sign is
    fixed), p1' = alpha p1 and p2' = beta p2 give p3 = p1' + p2' and
    p4 = k p1' + (delta / beta) p2' with k = gamma beta / (alpha delta).
    """
    q1, q2, q3, q4 = [_unit_rep(p, tol) for p in (p1, p2, p3, p4)]
    (alpha, beta), (gamma, delta) = _line_coords(q1, q2, (q3, q4), tol)
    if abs(alpha) <= tol or abs(beta) <= tol:
        raise DegenerateQuadruple("third point proportional to one of the first two")
    if abs(delta) <= tol * abs(beta):
        raise DegenerateQuadruple("fourth point proportional to the first")
    return gamma * beta / (alpha * delta)


def fourth_point_with_cross_ratio(p1, p2, p3, k, tol=TOL):
    """The unique point p4 on the line p1p2 with cross_ratio(p1,p2,p3,p4) = k.

    Uses the same normal form as cross_ratio, run backwards: with
    p3 = alpha p1 + beta p2, the point is p4 = k alpha p1 + beta p2.
    """
    q1, q2, q3 = [normalize_rep(p, tol) for p in (p1, p2, p3)]
    ((alpha, beta),) = _line_coords(q1.tolist(), q2.tolist(), (q3.tolist(),), tol)
    if abs(alpha) <= tol or abs(beta) <= tol:
        raise DegenerateQuadruple("third point proportional to one of the first two")
    return k * alpha * q1 + beta * q2


# ---------------------------------------------------------------------------
# quaternions, scalar-first convention


def quat(s, w):
    """Assemble a quaternion from scalar part s and imaginary 3-vector w."""
    q = np.empty(4)
    q[0] = s
    q[1:] = w
    return q


QUAT_ONE = np.array([1.0, 0.0, 0.0, 0.0])


def quat_mul(p, q):
    """Hamilton product p q, written out on Python floats."""
    p0, p1, p2, p3 = np.asarray(p, dtype=float).tolist()
    q0, q1, q2, q3 = np.asarray(q, dtype=float).tolist()
    return np.array([p0 * q0 - p1 * q1 - p2 * q2 - p3 * q3,
                     p0 * q1 + p1 * q0 + p2 * q3 - p3 * q2,
                     p0 * q2 - p1 * q3 + p2 * q0 + p3 * q1,
                     p0 * q3 + p1 * q2 - p2 * q1 + p3 * q0])


def quat_conj(q):
    q = np.asarray(q, dtype=float)
    return quat(q[0], -q[1:])


def quat_exp(u, t, tol=TOL):
    """cos(t) + u sin(t) for a unit imaginary axis u."""
    u = as_vec3(u)
    if abs(np.linalg.norm(u) - 1.0) > max(tol, 1e-9):
        raise NonUnitAxis("axis must be a unit vector")
    return quat(np.cos(t), np.sin(t) * u)


def quat_rotate(q, v):
    """The rotation v -> q v q^-1 of a 3-vector by a unit quaternion."""
    q = np.asarray(q, dtype=float)
    return quat_mul(quat_mul(q, quat(0.0, as_vec3(v))), quat_conj(q))[1:]


def quat_to_matrix(q):
    """Rotation matrix of the unit quaternion q (columns are rotated axes)."""
    s, x, y, z = np.asarray(q, dtype=float)
    return np.array([
        [1 - 2 * (y * y + z * z), 2 * (x * y - s * z), 2 * (x * z + s * y)],
        [2 * (x * y + s * z), 1 - 2 * (x * x + z * z), 2 * (y * z - s * x)],
        [2 * (x * z - s * y), 2 * (y * z + s * x), 1 - 2 * (x * x + y * y)],
    ])


def quat_distance(p, q):
    """Distance in S^3 ignoring nothing: plain Euclidean norm of p - q."""
    return np.linalg.norm(np.asarray(p) - np.asarray(q))
