"""Bridges between the three models: dancing pairs in the projective
plane, rolling states on S^2 x S^3, and rays of the null cone of the
imaginary split octonions.

The two charts are

    iota:  (A, b) with b A = 1  ->  the null imaginary octonion (1, A; b, -1),
    phi:   (v, q) in S^2 x S^3  ->  the ray of (Re(vq), v + Im(vq); v - Im(vq), ...),

and closed polygons transported through them turn trivial lifted rolling
monodromy into the dancing condition and back.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dancing import (
    DancingPair,
    QDanPoint,
    dancing_residual,
    is_nondegenerate,
    lift_dancing_pair,
)
from .errors import (
    ClosureFailure,
    DegenerateConfiguration,
    DegenerateRay,
    NonGeneric,
    NontrivialMonodromy,
    NotDancing,
    NotOnCone,
)
from .geom import (
    QUAT_ONE,
    _cross,
    _dot,
    as_vec3,
    normalize_rep,
    quat,
    quat_conj,
    quat_distance,
    quat_mul,
)
from .octonion import ImOctonion, oct_form
from .rolling import projective_edge_monodromy

GENERIC_MARGIN = 1e-8  # least |x| (on unit representatives) counted as generic
CONE_TOL = 1e-8


def _check_null(z, tol=CONE_TOL):
    n = z.norm()
    if n <= tol:
        raise DegenerateRay("zero vector spans no ray")
    if abs(oct_form(z)) > tol * n * n:
        raise NotOnCone("point is off the null cone: form = %g" % oct_form(z))


def iota(p):
    """Embed a point of the dancing quadric as a null imaginary octonion
    with x = 1."""
    z = ImOctonion(1.0, p.A, p.b)
    _check_null(z)
    return z


def iota_inv(z, margin=GENERIC_MARGIN):
    """Chart inverse of iota on rays with x bounded away from zero.

    The input ray must avoid the x = 0 hyperplane by at least `margin`
    after normalizing the representative to unit length; otherwise the ray
    has no dancing-chart image and NonGeneric is raised.
    """
    _check_null(z)
    if _chart_margin(z) < margin:
        raise NonGeneric("ray too close to the x = 0 hyperplane")
    return QDanPoint(z.A / z.x, z.b / z.x)


def _chart_margin(z):
    """|x| / |z|: how far the ray of z stays from the x = 0 hyperplane."""
    return abs(z.x) / z.norm()


def phi(v, q):
    """Map a rolling state to a null imaginary octonion spanning its ray."""
    v = as_vec3(v)
    vq = quat_mul(quat(0.0, v), np.asarray(q, dtype=float))
    x, im = float(vq[0]), vq[1:]
    return ImOctonion(x, v + im, v - im)


def phi_inv(z, tol=1e-9):
    """Rolling state (v, q) on the ray of z; requires A + b away from zero.

    The representative is rescaled so that |A + b| = 2 (a positive scaling,
    hence the same ray), after which v = (A+b)/2, s = (|A|^2 - |b|^2)/4 and
    w = (A x b)/2 - x v recover the state.
    """
    _check_null(z)
    A, b = z.A.tolist(), z.b.tolist()
    m = math.hypot(*(p + r for p, r in zip(A, b)))
    if m <= 1e-8 * z.norm():
        raise DegenerateRay("ray outside the image of the state chart (A + b = 0)")
    k = 2.0 / m
    A, b, x = [k * c for c in A], [k * c for c in b], k * z.x
    v = [0.5 * (p + r) for p, r in zip(A, b)]
    s = 0.25 * (_dot(A, A) - _dot(b, b))
    w = [0.5 * c - x * vc for c, vc in zip(_cross(A, b), v)]
    if abs(math.hypot(s, *w) - 1.0) > max(tol, 1e-7):
        raise DegenerateRay("recovered quaternion is not unit")
    return np.array(v), quat(s, w)


def horizontal_state_directions(v, q, rho=3.0):
    """Basis of the rank-2 rolling plane at a state (v, q) on S^2 x S^3.

    A contact velocity vdot tangent at v forces the angular velocity
    omega = (1 + rho) v x vdot (the unique solution of the no-slip and
    no-twist constraints) and hence qdot = omega q / 2.  Returns two pairs
    (dv, dq) for an orthonormal tangent basis at v.
    """
    v = as_vec3(v)
    q = np.asarray(q, dtype=float)
    u, s, vt = np.linalg.svd(v.reshape(1, 3))
    out = []
    for dv in (vt[1], vt[2]):
        omega = (1.0 + rho) * np.cross(v, dv)
        dq = 0.5 * quat_mul(quat(0.0, omega), q)
        out.append((dv, dq))
    return out


def antipode_equivariance_check(v, q):
    """Norm of phi(-v, q) + phi(v, q); zero because phi is odd in v."""
    return (phi(-as_vec3(v), q) + phi(v, q)).norm()


@dataclass
class RollingLift:
    """A lifted rolling polygon: (n, 3) arrays of the projective contact
    classes and their unit representatives, and the (n, 4) vertex states."""
    classes: np.ndarray
    reps: np.ndarray
    states: np.ndarray

    @property
    def start_quaternion(self):
        return self.states[0]


def _class_polygon_checks(classes, det_tol=1e-10):
    n = len(classes)
    if n < 3:
        raise ValueError("need at least three contact classes")
    rows = [c.tolist() for c in classes]
    for i in range(n):
        if abs(_dot(_cross(rows[i], rows[(i + 1) % n]), rows[(i + 2) % n])) <= det_tol:
            raise DegenerateConfiguration(
                "consecutive contact classes nearly on a great circle at %d" % i)


def _chart_candidates(n):
    """Unit quaternions r on the twisted cubic (c^3, c^2 s, c s^2, s^3),
    c = cos t, s = sin t, at 3n + 1 angles t in [0, pi), starting with the
    identity (t = 0).

    The chart coordinate Re(v s r) of a vertex state is a linear form in r,
    hence a binary cubic in (c, s) with no more than three zeros for t in
    [0, pi); so at least one candidate keeps all n vertices off x = 0.
    """
    m = 3 * n + 1
    t = np.pi * np.arange(m) / m
    c, s = np.cos(t), np.sin(t)
    r = np.stack([c ** 3, c * c * s, c * s * s, s ** 3], axis=1)
    return r / np.linalg.norm(r, axis=1, keepdims=True)


def _chart_margins(reps, states, charts):
    """The (n, m) margins |x|/|z| of phi(v_i, s_i r_j) for unit contact
    points v_i, unit states s_i and unit charts r_j (the rows of `charts`).

    The chart coordinate is x = Re(v s r) = <conj(v s), r> and
    |phi(v, s r)|^2 = 4 - x^2, so one product scores every chart.
    """
    w = np.array([quat_conj(quat_mul(quat(0.0, v), s)) for v, s in zip(reps, states)])
    x = w @ charts.T
    return np.abs(x) / np.sqrt(4.0 - x * x)


def pipeline_forward(classes, q=QUAT_ONE, monodromy_tol=1e-8, dancing_tol=1e-6):
    """From a closed polygon of contact classes (with trivial lifted
    monodromy) and a start quaternion to the closed dancing pair traced by
    the second plane.

    Each vertex state s is read in the x = 1 chart as iota_inv(phi(v, s r))
    for one unit quaternion r, the pair's `chart`.  Right multiplication by
    r commutes with every rolling edge factor, so it maps closed rolling
    polygons to closed rolling polygons (the body-frame rotations, part of
    the SO(4) in G2 that preserves the distribution).  The chart is the
    identity whenever every vertex clears GENERIC_MARGIN; otherwise it is
    the first candidate of `_chart_candidates` whose least vertex margin is
    largest.  For unit v, s and r the margin of a vertex is

        |x| / |z| = |x| / sqrt(4 - x^2),   x = Re(v s r) = <conj(v s), r>,

    so one (n, 4) x (4, 3n + 1) product scores every candidate, and phi is
    built only for the n chosen states.  So q = 1 on the doubled octant,
    whose vertex states all have x = 0, still yields a dancing pair.

    Raises NontrivialMonodromy when the lifted monodromy is not exactly
    trivial, NonGeneric when no candidate chart keeps every vertex state
    off the x = 0 hyperplane of the cone chart, NotDancing when the output
    fails the dancing condition, and DegenerateConfiguration when the
    contact classes or the output fail the genericity the dancing condition
    needs.
    """
    reps = [normalize_rep(c) for c in classes]
    _class_polygon_checks(reps)
    n = len(reps)
    mus = [projective_edge_monodromy(reps[i], reps[(i + 1) % n]) for i in range(n)]
    g = np.asarray(q, dtype=float) / np.linalg.norm(q)
    states = [g]
    for mu in mus:
        states.append(quat_mul(mu, states[-1]))
    if quat_distance(states[-1], states[0]) > monodromy_tol:
        raise NontrivialMonodromy(
            "lifted monodromy defect %.3g" % quat_distance(states[-1], states[0]))
    states = states[:n]
    candidates = _chart_candidates(n)
    least = _chart_margins(reps, states, candidates).min(axis=0)
    chart = candidates[0 if least[0] >= GENERIC_MARGIN else int(np.argmax(least))]
    points = [iota_inv(phi(v, quat_mul(s, chart))) for v, s in zip(reps, states)]
    pair = DancingPair([p.A for p in points], [p.b for p in points],
                       closed=True, chart=chart)
    for i in pair.vertex_indices():
        r = dancing_residual(pair, i)
        if abs(r) > dancing_tol:
            raise NotDancing("dancing residual %.3g at vertex %d" % (r, i))
    if not is_nondegenerate(pair):
        raise DegenerateConfiguration("transported pair fails genericity")
    return pair


def pipeline_inverse(pair, monodromy_tol=1e-8):
    """From a closed dancing pair back to a rolling polygon with trivial
    lifted monodromy.

    The pair is lifted to its horizontal polygon on the quadric, embedded
    in the null cone in the x = 1 chart (which fixes a continuous choice
    of ray representative along every straight horizontal edge), and each
    ray is read as a rolling state.  Those states are s r for the pair's
    `chart` r (see pipeline_forward), so each is multiplied on the right by
    conj(r) to give back the states s.  ClosureFailure is raised
    for an open pair, and when a recovered state misses the rolling edge
    factor times the previous one (closing edge included) by monodromy_tol.
    """
    if not pair.closed:
        raise ClosureFailure("inverse transport needs a closed pair")
    poly = lift_dancing_pair(pair)
    states = [phi_inv(ImOctonion(1.0, a, b)) for a, b in zip(poly.A, poly.b)]
    unchart = quat_conj(pair.chart)
    reps = np.array([v for v, _ in states])
    qs = np.array([quat_mul(s, unchart) for _, s in states])
    n = len(reps)
    for i in range(n):
        v1, v2 = reps[i], reps[(i + 1) % n]
        mu = projective_edge_monodromy(v1, v2)
        expected = quat_mul(mu, qs[i])
        if quat_distance(expected, qs[(i + 1) % n]) > monodromy_tol:
            raise ClosureFailure(
                "edge %d does not transport the recovered state" % i)
    classes = np.array([normalize_rep(v) for v in reps])
    return RollingLift(classes, reps, qs)
