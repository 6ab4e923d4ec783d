"""Rolling a small sphere around spherical polygons without slipping or
twisting, and the quaternion monodromy this produces.

For a radius ratio rho, rolling along a great-circle arc of length delta
rotates the moving sphere by (rho+1) delta about the arc normal, so the
lifted monodromy of the edge v1 -> v2 is exp(((rho+1) delta / 2) u) with
u = v1 x v2 normalized.  At the special ratio rho = 3 the edge factor
exp(2 delta u) only depends on the pair of antipodal classes of the
endpoints, which makes the monodromy well defined on polygons in the
projective sphere.

A spherical polygon stores its vertices as one (n, 3) float array of unit
rows.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DegenerateEdge,
    IdenticalClasses,
    NotTangent,
    ParameterOutOfRange,
)
from .geom import (
    QUAT_ONE,
    TOL,
    _cross,
    _dot,
    _unit_rep,
    as_rows,
    as_vec3,
    quat,
    quat_conj,
    quat_distance,
    quat_exp,
    quat_mul,
    quat_rotate,
)

MONODROMY_TOL = 1e-10


@dataclass
class SphericalPolygon:
    """Unit vertices as the rows of an (n, 3) float array, n >= 1; the
    constructor raises ValueError for anything else."""
    vertices: np.ndarray
    closed: bool = True
    rho: float = 3.0

    def __post_init__(self):
        self.vertices = as_rows(self.vertices)
        if (np.abs(np.linalg.norm(self.vertices, axis=1) - 1.0) > 1e-6).any():
            raise ValueError("polygon vertices must be unit vectors")

    def __len__(self):
        return len(self.vertices)

    def edges(self):
        n = len(self.vertices)
        last = n if self.closed else n - 1
        for i in range(last):
            yield self.vertices[i], self.vertices[(i + 1) % n]

    def nondegeneracy_margin(self):
        """min |det| over consecutive vertex triples and min sine over edges."""
        V = self.vertices
        c = np.cross(V, np.roll(V, -1, axis=0))
        dets = np.abs(np.einsum("ij,ij->i", c, np.roll(V, -2, axis=0)))
        if not self.closed:
            c, dets = c[:-1], dets[:-2]
        sines = np.linalg.norm(c, axis=1)
        return float(dets.min(initial=1.0)), float(sines.min(initial=1.0))


@dataclass
class MonodromyReport:
    g: np.ndarray
    factors: list = field(default_factory=list)
    tol: float = MONODROMY_TOL

    @property
    def trivial(self):
        return quat_distance(self.g, QUAT_ONE) <= self.tol

    @property
    def projectively_trivial(self):
        return min(quat_distance(self.g, QUAT_ONE),
                   quat_distance(self.g, -QUAT_ONE)) <= self.tol


def edge_angle(v1, v2):
    """Arc length between unit vectors via atan2, stable near 0 and pi."""
    return float(np.arctan2(np.linalg.norm(np.cross(v1, v2)), v1 @ v2))


def edge_monodromy(v1, v2, rho=3.0):
    """Lifted monodromy of rolling along the minor arc from v1 to v2."""
    v1 = as_vec3(v1)
    v2 = as_vec3(v2)
    c = np.cross(v1, v2)
    s = np.linalg.norm(c)
    if s <= 1e-12:
        raise DegenerateEdge("edge endpoints parallel or antipodal")
    delta = edge_angle(v1, v2)
    return quat_exp(c / s, (rho + 1.0) * delta / 2.0)


def polygon_monodromy(poly, start_index=0, tol=MONODROMY_TOL):
    """Ordered product of edge monodromies around the polygon, starting at
    the given vertex; starting elsewhere conjugates the result.  At ratio 3
    each factor is the closed form of projective_edge_monodromy, otherwise
    edge_monodromy."""
    n = len(poly)
    order = [(start_index + k) % n for k in range(n if poly.closed else n - 1)]
    V = poly.vertices.tolist()
    factors = []
    g = QUAT_ONE.copy()
    for i in order:
        v1, v2 = V[i], V[(i + 1) % n]
        if poly.rho != 3.0:
            f = edge_monodromy(v1, v2, poly.rho)
        else:
            c = _cross(v1, v2)
            if _dot(c, c) <= 1e-24:
                raise DegenerateEdge("edge endpoints parallel or antipodal")
            f = projective_edge_monodromy(v1, v2, tol=0.0)
        factors.append(f)
        g = quat_mul(f, g)
    return MonodromyReport(g, factors, tol)


def regular_polygon(n, w, phi, rho=3.0):
    """Regular spherical n-gon of winding w about the vertical axis, with
    vertices on the colatitude-phi circle; the first vertex sits in the
    xz-plane."""
    if n < 3 or not (0 < w < n / 2) or not (0.0 < phi < np.pi / 2):
        raise ParameterOutOfRange("need n >= 3, 0 < w < n/2, phi in (0, pi/2)")
    theta = 2.0 * np.pi * w / n
    q = quat_exp(np.array([0.0, 0.0, 1.0]), theta / 2.0)
    v0 = np.array([np.sin(phi), 0.0, np.cos(phi)])
    verts = [v0]
    for _ in range(n - 1):
        verts.append(quat_rotate(q, verts[-1]))
    return SphericalPolygon(verts, closed=True, rho=rho)


def closed_form_monodromy(n, w, phi):
    """Collapsed product formula (-1)^w (qbar g0)^n for the monodromy of a
    regular polygon at ratio 3, with g0 the first edge factor."""
    poly = regular_polygon(n, w, phi, rho=3.0)
    theta = 2.0 * np.pi * w / n
    q = quat_exp(np.array([0.0, 0.0, 1.0]), theta / 2.0)
    g0 = projective_edge_monodromy(poly.vertices[0], poly.vertices[1])
    p = quat_mul(quat_conj(q), g0)
    acc = QUAT_ONE.copy()
    for _ in range(n):
        acc = quat_mul(p, acc)
    return (-1.0) ** w * acc


def wprime_angle_residual(n, w, wprime, phi):
    """Defect of the closure relation
    cos(pi w'/n) = cos(pi w/n) [1 - 4 sin^2(pi w/n) sin^2 phi]."""
    a = np.pi * w / n
    return float(np.cos(np.pi * wprime / n)
                 - np.cos(a) * (1.0 - 4.0 * np.sin(a) ** 2 * np.sin(phi) ** 2))


def solve_phi(n, w, wprime):
    """Colatitude solving the closure relation, or None if out of range.

    The right-hand side decreases strictly in phi from cos(pi w/n) to
    cos(3 pi w/n), so plain bisection is exact enough; absence of a root
    is decided by that interval.
    """
    if n < 3 or not (0 < w < n / 2) or not (w < wprime < n):
        raise ParameterOutOfRange("need n >= 3, 0 < w < n/2, w < w' < n")
    a = np.pi * w / n
    target = np.cos(np.pi * wprime / n)
    # strict interior of the reachable interval; the endpoints correspond to
    # the excluded colatitudes phi = 0 and phi = pi/2 (w' = w and w' = 2n-3w
    # land exactly on the boundary and admit no admissible polygon)
    eps = 1e-12
    if not (np.cos(3 * a) + eps < target < np.cos(a) - eps):
        return None
    lo, hi = 0.0, np.pi / 2  # residual: negative at lo, positive at hi
    while hi - lo >= 1e-15:  # 51 halvings from pi/2
        mid = 0.5 * (lo + hi)
        if wprime_angle_residual(n, w, wprime, mid) > 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def traced_turning_cos(n, w, phi):
    """cos(theta'/2) for the turning angle theta' of the polygon traced on
    the moving sphere, from the right spherical triangle spanned by the
    pole, a vertex and an edge midpoint: the traced half-edge is three
    times as long, the apex angle is shared."""
    half = np.pi * w / n
    sin_half_delta = np.sin(half) * np.sin(phi)
    delta = 2.0 * np.arcsin(np.clip(sin_half_delta, -1.0, 1.0))
    sin_apex = np.cos(half) / np.cos(delta / 2.0)
    return float(sin_apex * np.cos(3.0 * delta / 2.0))


def enumerate_admissible(n_max):
    """All (n, w, w', phi) with trivial lifted monodromy at ratio 3, for
    3 <= n <= n_max, with the parity constraint w' = w (mod 2); minimal
    entries are those whose (w, w') admits no smaller n."""
    found = []
    for n in range(3, n_max + 1):
        for w in range(1, (n + 1) // 2):
            if 2 * w >= n:
                continue
            for wprime in range(w + 1, n):
                if (wprime - w) % 2 != 0:
                    continue
                phi = solve_phi(n, w, wprime)
                if phi is not None:
                    found.append((n, w, wprime, phi))
    seen = {}
    for n, w, wp, phi in found:
        seen.setdefault((w, wp), n)
    results = []
    for n, w, wp, phi in found:
        results.append({"n": n, "w": w, "wprime": wp, "phi": phi,
                        "minimal": seen[(w, wp)] == n})
    return results


def omega_from_rotation_rate(g, gdot):
    """Angular velocity vector from a rotation matrix and its rate, reading
    it off the antisymmetric part of gdot g^T."""
    m = gdot @ g.T
    return np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0], m[1, 0] - m[0, 1]]) / 2.0


def droll_membership(v, g, vdot, gdot, rho=3.0):
    """No-slip and no-twist residuals of a velocity at a rolling state."""
    v = as_vec3(v)
    if abs(np.linalg.norm(v) - 1.0) > 1e-6:
        raise NotTangent("contact point must be unit")
    if abs(float(v @ vdot)) > 1e-6 * max(1.0, np.linalg.norm(vdot)):
        raise NotTangent("contact velocity must be tangent to the sphere")
    sym = gdot @ g.T + g @ gdot.T
    if np.abs(sym).max() > 1e-6 * max(1.0, np.abs(gdot).max()):
        raise NotTangent("orientation rate not tangent to the rotation group")
    omega = omega_from_rotation_rate(g, gdot)
    slip = float(np.linalg.norm((rho + 1.0) * vdot - np.cross(omega, v)))
    twist = abs(float(omega @ v))
    return slip, twist


def projective_edge_monodromy(p1, p2, rho=3.0, tol=TOL):
    """Edge monodromy exp(2 delta u) for a pair of antipodal classes, only
    defined at ratio 3.  With d = v1 . v2 = cos delta and c = v1 x v2 =
    sin(delta) u for unit representatives it is (d^2 - |c|^2, 2 d c), even in
    each endpoint (flipping v1 or v2 negates d and c), so the four choices
    agree; dividing by d^2 + |c|^2 = 1 keeps rounding from drifting off S^3."""
    if rho != 3.0:
        raise ParameterOutOfRange("projective edge monodromy needs ratio 3")
    v1, v2 = _unit_rep(p1), _unit_rep(p2)
    d, c = _dot(v1, v2), _cross(v1, v2)
    dd, cc = d * d, _dot(c, c)
    if cc <= tol * tol:
        raise IdenticalClasses("classes coincide")
    return quat(dd - cc, [2.0 * d * x for x in c]) / (dd + cc)
