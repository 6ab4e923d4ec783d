"""Primitives for R^3, its dual, projective points/lines and unit quaternions.

Vectors are plain numpy arrays of shape (3,).  Points of the projective
plane are represented by nonzero "column" vectors (class Vec3 semantics),
lines by nonzero "row" covectors.  Quaternions are arrays [s, x, y, z]
with scalar part first.
"""

import numpy as np

from .errors import DegenerateQuadruple, NonUnitAxis, NotCollinear

TOL = 1e-9


def as_vec3(x):
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError("expected a 3-vector, got shape %s" % (v.shape,))
    return v


def vec_cross(a1, a2):
    """Cross product of two column vectors, read as a covector.

    Returns the row vector vol(a1, a2, .), i.e. the line through the two
    projective points [a1], [a2] in homogeneous coordinates.  Zero output
    for parallel inputs is allowed.
    """
    return np.cross(as_vec3(a1), as_vec3(a2))


def covec_cross(b1, b2):
    """Dual cross product: two row covectors give the column vector
    vol*(b1, b2, .), i.e. the intersection point of the lines [b1], [b2]."""
    return np.cross(as_vec3(b1), as_vec3(b2))


def normalize_rep(v, tol=TOL):
    """Canonical representative of a projective point/line: unit norm,
    first nonzero component positive."""
    v = as_vec3(v)
    n = np.linalg.norm(v)
    if n <= tol:
        raise ValueError("zero vector has no projective class")
    v = v / n
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


def cross_ratio(p1, p2, p3, p4, tol=TOL):
    """Cross-ratio of four collinear projective points.

    Computed by expressing p3 = p1' + p2', p4 = k*p1' + p2' in a basis of
    the common 2-dimensional subspace and returning k.  The basis of the
    plane is taken from an SVD of the stacked representatives, which keeps
    the coefficient solves well conditioned.
    """
    ps = [normalize_rep(p, tol) for p in (p1, p2, p3, p4)]
    stack = np.array(ps)
    u, s, vt = np.linalg.svd(stack)
    if s[1] <= tol * s[0]:
        raise DegenerateQuadruple("points do not span a plane")
    if len(s) > 2 and s[2] > 1e-6 * s[0]:
        raise NotCollinear("four points are not collinear: s2/s0 = %g" % (s[2] / s[0]))
    basis = vt[:2]  # rows span the 2-dim subspace
    c = stack @ basis.T  # 4 x 2 plane coordinates
    m = np.column_stack([c[0], c[1]])
    det = np.linalg.det(m)
    if abs(det) <= tol:
        raise DegenerateQuadruple("first two points coincide projectively")
    alpha, beta = np.linalg.solve(m, c[2])
    if abs(alpha) <= tol or abs(beta) <= tol:
        raise DegenerateQuadruple("third point proportional to one of the first two")
    k4, m4 = np.linalg.solve(np.column_stack([alpha * c[0], beta * c[1]]), c[3])
    if abs(m4) <= tol:
        raise DegenerateQuadruple("fourth point proportional to the first")
    return k4 / m4


def fourth_point_with_cross_ratio(p1, p2, p3, k, tol=TOL):
    """The unique point p4 on the line p1p2 with cross_ratio(p1,p2,p3,p4) = k.

    Uses the same normal form as cross_ratio, run backwards: rescale
    representatives so p3 = p1' + p2', then p4 = k*p1' + p2'.
    """
    ps = [normalize_rep(p, tol) for p in (p1, p2, p3)]
    stack = np.array(ps)
    u, s, vt = np.linalg.svd(stack)
    if s[1] <= tol * s[0] or s[2] > 1e-6 * s[0]:
        raise DegenerateQuadruple("three base points not in general position on a line")
    basis = vt[:2]
    c = stack @ basis.T
    alpha, beta = np.linalg.solve(np.column_stack([c[0], c[1]]), c[2])
    if abs(alpha) <= tol or abs(beta) <= tol:
        raise DegenerateQuadruple("third point proportional to one of the first two")
    return k * alpha * ps[0] + beta * ps[1]


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


def quat_norm(q):
    return np.linalg.norm(q)


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


def matrix_to_quat(m):
    """A unit quaternion for the rotation matrix m (sign ambiguous).

    Shepperd's method: pick the largest of the four squared components.
    """
    m = np.asarray(m, dtype=float)
    tr = m[0, 0] + m[1, 1] + m[2, 2]
    choices = [tr, m[0, 0], m[1, 1], m[2, 2]]
    i = int(np.argmax(choices))
    if i == 0:
        s = np.sqrt(tr + 1.0) * 2
        return np.array([0.25 * s,
                         (m[2, 1] - m[1, 2]) / s,
                         (m[0, 2] - m[2, 0]) / s,
                         (m[1, 0] - m[0, 1]) / s])
    if i == 1:
        s = np.sqrt(1.0 + m[0, 0] - m[1, 1] - m[2, 2]) * 2
        return np.array([(m[2, 1] - m[1, 2]) / s,
                         0.25 * s,
                         (m[0, 1] + m[1, 0]) / s,
                         (m[0, 2] + m[2, 0]) / s])
    if i == 2:
        s = np.sqrt(1.0 - m[0, 0] + m[1, 1] - m[2, 2]) * 2
        return np.array([(m[0, 2] - m[2, 0]) / s,
                         (m[0, 1] + m[1, 0]) / s,
                         0.25 * s,
                         (m[1, 2] + m[2, 1]) / s])
    s = np.sqrt(1.0 - m[0, 0] - m[1, 1] + m[2, 2]) * 2
    return np.array([(m[1, 0] - m[0, 1]) / s,
                     (m[0, 2] + m[2, 0]) / s,
                     (m[1, 2] + m[2, 1]) / s,
                     0.25 * s])


def quat_distance(p, q):
    """Distance in S^3 ignoring nothing: plain Euclidean norm of p - q."""
    return np.linalg.norm(np.asarray(p) - np.asarray(q))
