"""The 14-dimensional derivation algebra of the split octonions and the
vector fields it induces on the dancing quadric and on the covering
rolling space S^2 x S^3.

A derivation is parametrized by (T, Q, p) with T traceless 3x3, Q a
column vector and p a row covector, acting on imaginary vector matrices
(x, A; b, -x) by

    x -> p A + b Q,
    A -> T A - p x b + 2 Q x,
    b -> Q x A - b T + 2 p x

(with "x" the cross product in the middle terms).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotSymmetricTraceless
from .geom import TOL, as_vec3, quat, quat_mul, quat_conj
from .octonion import ImOctonion, im_from_components


def cross_matrix(u):
    u = as_vec3(u)
    return np.array([[0.0, -u[2], u[1]],
                     [u[2], 0.0, -u[0]],
                     [-u[1], u[0], 0.0]])


@dataclass(frozen=True)
class G2Param:
    T: np.ndarray
    Q: np.ndarray
    p: np.ndarray

    def __post_init__(self):
        T = np.asarray(self.T, dtype=float)
        if T.shape != (3, 3):
            raise ValueError("T must be 3x3")
        if abs(np.trace(T)) > 1e-9 * max(1.0, np.abs(T).max()):
            raise ValueError("T must be traceless")
        object.__setattr__(self, "T", T)
        object.__setattr__(self, "Q", as_vec3(self.Q))
        object.__setattr__(self, "p", as_vec3(self.p))

    def __add__(self, other):
        return G2Param(self.T + other.T, self.Q + other.Q, self.p + other.p)

    def scale(self, t):
        return G2Param(t * self.T, t * self.Q, t * self.p)


def rho_apply(g, z):
    """Action of the derivation parametrized by g on an imaginary octonion."""
    x, A, b = z.x, z.A, z.b
    return ImOctonion(
        float(g.p @ A + b @ g.Q),
        g.T @ A - np.cross(g.p, b) + 2.0 * g.Q * x,
        np.cross(g.Q, A) - b @ g.T + 2.0 * g.p * x,
    )


def rho_matrix(g):
    """7x7 matrix of rho_apply in (x, A, b) coordinates."""
    cols = []
    for e in np.eye(7):
        cols.append(rho_apply(g, im_from_components(e)).components())
    return np.column_stack(cols)


def g2_bracket(g1, g2):
    """Bracket of two derivation parameters; matches the commutator of the
    corresponding endomorphisms."""
    T3 = (g1.T @ g2.T - g2.T @ g1.T
          + 3.0 * (np.outer(g1.Q, g2.p) - np.outer(g2.Q, g1.p))
          + (float(g1.p @ g2.Q) - float(g2.p @ g1.Q)) * np.eye(3))
    Q3 = g1.T @ g2.Q - g2.T @ g1.Q - 2.0 * np.cross(g1.p, g2.p)
    p3 = g1.p @ g2.T - g2.p @ g1.T + 2.0 * np.cross(g1.Q, g2.Q)
    return G2Param(T3, Q3, p3)


def g2_basis():
    """14 canonical basis parameters: 8 traceless matrices, 3 vectors,
    3 covectors."""
    basis = []
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            T = np.zeros((3, 3))
            T[i, j] = 1.0
            basis.append(G2Param(T, np.zeros(3), np.zeros(3)))
    for d in (np.diag([1.0, -1.0, 0.0]), np.diag([0.0, 1.0, -1.0])):
        basis.append(G2Param(d, np.zeros(3), np.zeros(3)))
    for e in np.eye(3):
        basis.append(G2Param(np.zeros((3, 3)), e, np.zeros(3)))
    for e in np.eye(3):
        basis.append(G2Param(np.zeros((3, 3)), np.zeros(3), e))
    return basis


def qdan_field(g, p):
    """The induced vector field on the dancing quadric, in the affine chart
    where the quadric lives: returns (dA, db) at the point p."""
    A, b = p.A, p.b
    mu = float(b @ g.Q + g.p @ A)
    f = 2.0 * g.Q + g.T @ A - np.cross(g.p, b) - mu * A
    h = 2.0 * g.p - b @ g.T + np.cross(g.Q, A) - mu * b
    return f, h


# ---------------------------------------------------------------------------
# the induced field on S^2 x S^3


def cone_chart(v, s, w):
    """The linear isomorphism (v, s + w) -> (x, A; b, -x) onto the null
    cone used to transport fields: A = (1+s) v + v x w, b = (1-s) v - v x w,
    x = -v . w."""
    vxw = np.cross(v, w)
    return ImOctonion(-float(v @ w), (1.0 + s) * v + vxw, (1.0 - s) * v - vxw)


def qroll_field_general(g, v, s, w):
    """Induced field at (v, s+w) in S^2 x S^3 for an arbitrary derivation
    parameter, via the radial (Euler) quotient of the linear field on the
    null cone and the explicit derivative of the inverse chart."""
    z = cone_chart(v, s, w)
    X = rho_apply(g, z)
    dx, dA, db = X.x, X.A, X.b
    lam = 0.25 * float((z.A + z.b) @ (dA + db))
    dx -= lam * z.x
    dA = dA - lam * z.A
    db = db - lam * z.b
    dv = 0.5 * (dA + db)
    dw = 0.5 * (np.cross(z.A, db) - np.cross(z.b, dA)) - z.x * dv - v * dx
    ds = 0.5 * (float(z.A @ dA) - float(z.b @ db))
    return dv, dw, ds


def qroll_field(T, v, s, w, tol=1e-9):
    """Closed-form induced field for the symmetric traceless slice of the
    algebra (Q = p = 0)."""
    T = np.asarray(T, dtype=float)
    if (np.abs(T - T.T).max() > tol * max(1.0, np.abs(T).max())
            or abs(np.trace(T)) > tol * max(1.0, np.abs(T).max())):
        raise NotSymmetricTraceless("need T symmetric and traceless")
    vxw = np.cross(v, w)
    m = s * v + vxw
    Tm = T @ m
    Tmv = float(Tm @ v)
    f = Tm - Tmv * v
    gcomp = (np.cross((s * s - 1.0) * v + s * vxw, T @ v)
             + np.cross(m, T @ vxw)
             + float(v @ w) * Tm
             - 2.0 * Tmv * w)
    h = (float((T @ (v + s * vxw)) @ v) - s * Tmv + float((T @ vxw) @ vxw))
    return f, gcomp, h


def k_action(q1, q2, v, q):
    """Action of a pair of unit quaternions on S^2 x S^3:
    (v, q) -> (q1 v q1^-1, q1 q q2^-1)."""
    vq = quat(0.0, as_vec3(v))
    v2 = quat_mul(quat_mul(q1, vq), quat_conj(q1))[1:]
    q2n = quat_mul(quat_mul(q1, q), quat_conj(q2))
    return v2, q2n


def k_infinitesimal(v1, v2, v, q):
    """Infinitesimal version of k_action for Lie-algebra elements (v1, v2):
    (v, q) -> (2 v1 x v, v1 q - q v2)."""
    dv = 2.0 * np.cross(v1, v)
    dq = quat_mul(quat(0.0, as_vec3(v1)), q) - quat_mul(q, quat(0.0, as_vec3(v2)))
    return dv, dq


def so4_embed(v1, v2):
    """Derivation parameter whose halved action matches the infinitesimal
    pair action transported to imaginary octonions."""
    v1 = as_vec3(v1)
    v2 = as_vec3(v2)
    return G2Param(cross_matrix(3.0 * v1 + v2), v1 - v2, v2 - v1)


def k_infinitesimal_on_im(v1, v2, z):
    """The infinitesimal pair action conjugated to imaginary octonions
    through the (v, x+u) chart of the null-cone model."""
    v = 0.5 * (z.A + z.b)
    u = 0.5 * (z.A - z.b)
    q = quat(z.x, u)
    dv, dq = k_infinitesimal(v1, v2, v, q)
    dx, du = dq[0], dq[1:]
    return ImOctonion(dx, dv + du, dv - du)


def descends_to_base(g, tol=TOL):
    """Whether the induced field on S^2 x S^3 is invariant under the
    antipode in the second factor (and so lives on S^2 x SO3): true iff
    T is antisymmetric and Q = -p."""
    scale = max(1.0, np.abs(g.T).max(), np.abs(g.Q).max(), np.abs(g.p).max())
    return (np.abs(g.T + g.T.T).max() <= tol * scale
            and np.abs(g.Q + g.p).max() <= tol * scale)


def tau_involution(z):
    """The linear involution (x, A; b, -x) -> (-x, b; A, x) conjugate to the
    second-factor antipode of S^2 x S^3."""
    return ImOctonion(-z.x, z.b, z.A)
