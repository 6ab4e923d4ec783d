"""Split octonions as Zorn vector matrices.

An octonion is stored as the 2x2 "vector matrix" (x, A; b, y) with
x, y real, A a column 3-vector and b a row 3-covector.  Multiplication is

    (x, A; b, y) (x', A'; b', y') =
        (x x' - b' A,  x A' + y' A + b x b';  x' b + y b' + A x A',  y y' - b A')

where "x" between vectors is the appropriate cross product.  The norm form
is <z, z> = x y + b A, of signature (4,4); imaginary octonions are the
traceless matrices (y = -x), on which the form restricts to -x^2 + bA with
signature (3,4).
"""

from dataclasses import dataclass

import numpy as np

from .errors import NotNull, ZeroOctonion
from .geom import TOL, as_vec3

ANNIHILATOR_SV_CUTOFF = 1e-8


@dataclass(frozen=True)
class Octonion:
    x: float
    A: np.ndarray
    b: np.ndarray
    y: float

    def __post_init__(self):
        object.__setattr__(self, "A", as_vec3(self.A))
        object.__setattr__(self, "b", as_vec3(self.b))

    def norm(self):
        return float(np.sqrt(self.x ** 2 + self.y ** 2
                             + self.A @ self.A + self.b @ self.b))


@dataclass(frozen=True)
class ImOctonion:
    """Traceless vector matrix (x, A; b, -x); the y = -x entry is structural."""
    x: float
    A: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "A", as_vec3(self.A))
        object.__setattr__(self, "b", as_vec3(self.b))

    def to_octonion(self):
        return Octonion(self.x, self.A, self.b, -self.x)

    def components(self):
        """Flat length-7 coordinate vector (x, A, b)."""
        return np.concatenate([[self.x], self.A, self.b])

    def norm(self):
        return float(np.linalg.norm(self.components()))

    def scale(self, t):
        return ImOctonion(t * self.x, t * self.A, t * self.b)

    def __add__(self, other):
        return ImOctonion(self.x + other.x, self.A + other.A, self.b + other.b)

    def __sub__(self, other):
        return ImOctonion(self.x - other.x, self.A - other.A, self.b - other.b)


def im_from_components(c):
    c = np.asarray(c, dtype=float)
    return ImOctonion(c[0], c[1:4], c[4:7])


OCT_ONE = Octonion(1.0, np.zeros(3), np.zeros(3), 1.0)


def _as_oct(z):
    return z.to_octonion() if isinstance(z, ImOctonion) else z


def oct_mul(z, zp):
    z = _as_oct(z)
    zp = _as_oct(zp)
    return Octonion(
        z.x * zp.x - zp.b @ z.A,
        z.x * zp.A + zp.y * z.A + np.cross(z.b, zp.b),
        zp.x * z.b + z.y * zp.b + np.cross(z.A, zp.A),
        z.y * zp.y - z.b @ zp.A,
    )


def oct_conj(z):
    z = _as_oct(z)
    return Octonion(z.y, -z.A, -z.b, z.x)


def oct_form(z):
    """The quadratic norm form x y + bA; on imaginaries this is -x^2 + bA."""
    y = -z.x if isinstance(z, ImOctonion) else z.y
    return float(z.x * y + z.b @ z.A)


def oct_polarize(z, zp):
    """Symmetric bilinear form polarizing oct_form."""
    z = _as_oct(z)
    zp = _as_oct(zp)
    return 0.5 * float(z.x * zp.y + zp.x * z.y + z.b @ zp.A + zp.b @ z.A)


def im_gram_matrix():
    """Gram matrix of the form on imaginaries in (x, A, b) coordinates."""
    g = np.zeros((7, 7))
    g[0, 0] = -1.0
    for i in range(3):
        g[1 + i, 4 + i] = 0.5
        g[4 + i, 1 + i] = 0.5
    return g


def left_mult_matrix(z):
    """The 8x7 matrix of z' -> z z' restricted to imaginary z', as a map
    to full octonions in coordinates (x', A', b') -> (x, A, b, y)."""
    z = _as_oct(z)
    m = np.zeros((8, 7))
    basis = [im_from_components(e) for e in np.eye(7)]
    for j, e in enumerate(basis):
        w = oct_mul(z, e)
        m[0, j] = w.x
        m[1:4, j] = w.A
        m[4:7, j] = w.b
        m[7, j] = w.y
    return m


def annihilator_basis(z, tol=TOL):
    """Basis of the annihilator {z' imaginary : z z' = 0} at a null z.

    Computed as the numerical kernel of the left-multiplication map; at a
    nonzero null point the kernel is 3-dimensional and contains z itself.
    """
    if isinstance(z, Octonion):
        z = ImOctonion(z.x, z.A, z.b)
    if z.norm() <= tol:
        raise ZeroOctonion("annihilator requested at zero")
    scale = z.norm()
    if abs(oct_form(z)) > max(tol, tol * scale ** 2):
        raise NotNull("annihilator only defined on the null cone")
    m = left_mult_matrix(z)
    u, s, vt = np.linalg.svd(m)
    kernel = [vt[i] for i in range(7) if i >= len(s) or s[i] <= ANNIHILATOR_SV_CUTOFF * s[0]]
    return [im_from_components(k) for k in kernel]


def omega_horizontality_residual(z, dz):
    """Norm of Im(z dz) modulo span{z}, normalized by |z| |dz|.

    z dz is the octonion-valued 1-form omega evaluated on dz.  At a null
    point z, a direction dz is horizontal for the null-quadric distribution
    iff the imaginary part of z dz lies in the radial span of z (the form
    vanishes on radial directions and descends to the projectivized cone).
    """
    w = oct_mul(z, dz)
    im = ImOctonion(0.5 * (w.x - w.y), w.A, w.b)
    zc = z.components()
    ic = im.components()
    ic = ic - (ic @ zc) / (zc @ zc) * zc
    denom = z.norm() * max(dz.norm(), 1e-300)
    return float(np.linalg.norm(ic)) / denom
