"""Rolling as an ODE in an Euler-angle chart of the orientation group.

The moving sphere's orientation is charted as g = Rz(gamma) Ry(beta) Rx(alpha)
and the contact point as v(theta, phi) in spherical coordinates.  The
no-slip and no-twist constraints

    (1 + rho) vdot = omega x v,        omega . v = 0,

with omega the space-frame angular velocity of g, force
omega = (1 + rho) v x vdot for a unit contact point v.  The Euler-angle
rates are then M^-1 omega, with M the rate-to-omega matrix, in closed form.
Along a great-circle arc v x vdot is the arc's unit normal, so omega is
constant and the integrator takes it once per arc; the Euler-angle ODE it
integrates stays nonlinear.  The lifted quaternion is read from the Euler
half-angles in closed form, qz(gamma/2) qy(beta/2) qx(alpha/2), which is
continuous in the integrated angles and so fixes the sign of the lift
without sampling; integrating around a polygon must reproduce the
quaternion monodromy computed algebraically edge by edge, sign included.

The chart is singular at beta = +-pi/2 (the rate-to-omega matrix has
determinant cos beta) and the spherical chart at sin theta = 0.  The
integrator avoids both by conjugating every arc into a tilted band around
the equator and by re-seating the Euler chart whenever beta drifts too far.
"""

import math

import numpy as np

from .errors import ChartSingularity, DegenerateEdge
from .geom import (
    QUAT_ONE,
    _cross,
    _dot,
    as_vec3,
    quat_conj,
    quat_mul,
    quat_to_matrix,
)

RESEAT_COS_BETA = 0.5  # re-seat the chart when |cos beta| drops below this
BAND_TILT = 0.4  # tilt (radians) of the standard arc normal from the pole


def euler_to_rotation(alpha, beta, gamma):
    """Rotation matrix Rz(gamma) Ry(beta) Rx(alpha)."""
    ca, sa = math.cos(alpha), math.sin(alpha)
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    return np.array([
        [cb * cg, sa * sb * cg - ca * sg, ca * sb * cg + sa * sg],
        [cb * sg, sa * sb * sg + ca * cg, ca * sb * sg - sa * cg],
        [-sb, sa * cb, ca * cb],
    ])


def rate_to_omega_matrix(beta, gamma):
    """Matrix sending Euler-angle rates (alphadot, betadot, gammadot) to the
    space-frame angular velocity omega = gdot g^-1; det = cos(beta)."""
    cb, sb = math.cos(beta), math.sin(beta)
    cg, sg = math.cos(gamma), math.sin(gamma)
    return np.array([
        [cb * cg, -sg, 0.0],
        [cb * sg, cg, 0.0],
        [-sb, 0.0, 1.0],
    ])


def angular_velocity(angles, rates):
    """Space-frame angular velocity of the charted orientation curve."""
    _, beta, gamma = angles
    return rate_to_omega_matrix(beta, gamma) @ np.asarray(rates, dtype=float)


def contact_point(theta, phi):
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


def contact_velocity(theta, phi, thetadot, phidot):
    st, ct = math.sin(theta), math.cos(theta)
    cp, sp = math.cos(phi), math.sin(phi)
    return np.array([
        ct * cp * thetadot - st * sp * phidot,
        ct * sp * thetadot + st * cp * phidot,
        -st * thetadot,
    ])


def droll_constraint_residuals(state, rates, rho=3.0, sin_theta_floor=1e-6):
    """The four scalar constraints of the rolling distribution in the chart
    (theta, phi, alpha, beta, gamma): the three components of
    (1 + rho) vdot - omega x v followed by omega . v."""
    theta, phi, alpha, beta, gamma = state
    if abs(math.sin(theta)) < sin_theta_floor:
        raise ChartSingularity("spherical chart singular near the poles")
    thetadot, phidot, alphadot, betadot, gammadot = rates
    v = contact_point(theta, phi)
    vdot = contact_velocity(theta, phi, thetadot, phidot)
    omega = angular_velocity((alpha, beta, gamma), (alphadot, betadot, gammadot))
    slip = (1.0 + rho) * vdot - np.cross(omega, v)
    return np.array([slip[0], slip[1], slip[2], float(omega @ v)])


def solve_euler_rates(beta, gamma, v, vdot, rho=3.0):
    """Euler-angle rates satisfying the constraints at a unit contact point v
    moving with tangent velocity vdot.

    No slip and no twist force the angular velocity omega = (1+rho) v x vdot:
    then omega x v = (1+rho) vdot and omega . v = 0.  The rates are M^-1 omega
    for the rate-to-omega matrix M, in closed form (det M = cos beta).
    """
    v1, v2, v3 = v
    d1, d2, d3 = vdot
    c = 1.0 + rho
    return _rates_from_omega(beta, gamma, (c * (v2 * d3 - v3 * d2),
                                           c * (v3 * d1 - v1 * d3),
                                           c * (v1 * d2 - v2 * d1)))


def _rates_from_omega(beta, gamma, w):
    """(alphadot, betadot, gammadot) = M(beta, gamma)^-1 w on Python floats."""
    cb = math.cos(beta)
    if abs(cb) < 1e-12:
        raise ChartSingularity("rate system singular (chart too close to beta = pi/2?)")
    cg, sg = math.cos(gamma), math.sin(gamma)
    w1, w2, w3 = w
    alphadot = (cg * w1 + sg * w2) / cb
    return alphadot, cg * w2 - sg * w1, w3 + math.sin(beta) * alphadot


def _rotation_taking(n, n0):
    """The unit quaternion (1 + n.n0, n x n0) / |.| of the least rotation
    sending the unit vector n to the unit vector n0, as a tuple of floats.

    1 + n.n0 is taken as |n + n0|^2 / 2, which keeps its relative accuracy
    near n = -n0; at n = -n0 itself it is a half turn about an axis
    orthogonal to n.
    """
    w = _cross(n, n0)
    if _dot(w, w) < 1e-24 and _dot(n, n0) < 0.0:
        # pick any axis orthogonal to n for a half turn
        k = [0.0, 0.0, 0.0]
        k[min(range(3), key=lambda i: abs(n[i]))] = 1.0
        q = (0.0,) + _cross(n, k)
    else:
        m = [x + y for x, y in zip(n, n0)]
        q = (0.5 * _dot(m, m),) + w
    s = math.hypot(*q)
    return tuple(x / s for x in q)


def _euler_lift(a, b, g):
    """The lift qz(g/2) qy(b/2) qx(a/2) of Rz(g) Ry(b) Rx(a) to the unit
    quaternions; continuous in the angles, so it needs no sign tracking."""
    ca, sa = math.cos(0.5 * a), math.sin(0.5 * a)
    cb, sb = math.cos(0.5 * b), math.sin(0.5 * b)
    cg, sg = math.cos(0.5 * g), math.sin(0.5 * g)
    return (cg * cb * ca + sg * sb * sa,
            cg * cb * sa - sg * sb * ca,
            cg * sb * ca + sg * cb * sa,
            sg * cb * ca - cg * sb * sa)


def integrate_arc(v_start, normal, angle, rho=3.0, steps=10000, record=None):
    """Integrate the rolling ODE along a great-circle arc.

    The arc starts at v_start, turns about the given unit normal by the
    given angle, and the moving sphere starts at the identity orientation.
    Returns (rotation matrix, lifted quaternion) of the resulting motion.

    The arc is first conjugated so that its normal makes a fixed small
    angle with the pole; rolling about such a normal keeps the Euler chart
    uniformly far from its beta singularity, and the result is conjugated
    back at the end.  The lifted quaternion is read from the Euler
    half-angles (see _euler_lift), times the lifts of the charts left at
    each re-seat, so no sign has to be chosen by continuity.  `record`, if
    a list, receives a (t, state, rates) sample after each step, in the
    spherical chart of the conjugated frame, for diagnostics; the contact
    point and its velocity are computed only for those samples.
    """
    if steps < 1:
        raise ValueError("steps must be at least 1, got %r" % (steps,))
    v_start = as_vec3(v_start)
    normal = as_vec3(normal)
    if abs(float(normal @ v_start)) > 1e-9:
        raise DegenerateEdge("arc normal must be orthogonal to the start point")
    n0 = (math.sin(BAND_TILT), 0.0, math.cos(BAND_TILT))
    qc = _rotation_taking(normal.tolist(), n0)
    ea = (quat_to_matrix(qc) @ v_start).tolist()
    eb = _cross(n0, ea)

    h = angle / steps
    # no slip and no twist force omega = (1 + rho) v x vdot, and along the
    # arc v x vdot = ea x eb = n0, so omega is the constant (1 + rho) n0
    w = tuple((1.0 + rho) * x for x in n0)
    a, b, g = 0.0, 0.0, 0.0
    # the lifts of the re-seated charts, times the frame quaternion qc
    q_off = qc
    hh, h6 = 0.5 * h, h / 6.0

    for k in range(steps):
        a1, b1, g1 = _rates_from_omega(b, g, w)
        a2, b2, g2 = _rates_from_omega(b + hh * b1, g + hh * g1, w)
        a3, b3, g3 = _rates_from_omega(b + hh * b2, g + hh * g2, w)
        a4, b4, g4 = _rates_from_omega(b + h * b3, g + h * g3, w)
        a += h6 * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
        b += h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        g += h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        if abs(math.cos(b)) < RESEAT_COS_BETA:
            q_off = quat_mul(_euler_lift(a, b, g), q_off)
            a, b, g = 0.0, 0.0, 0.0
        if record is not None:
            t = (k + 1) * h
            ct, st = math.cos(t), math.sin(t)
            v = [ct * x + st * y for x, y in zip(ea, eb)]
            vd = [ct * y - st * x for x, y in zip(ea, eb)]
            theta = math.acos(max(-1.0, min(1.0, v[2])))
            phi = math.atan2(v[1], v[0])
            rates = solve_euler_rates(b, g, v, vd, rho)
            st2 = v[0] * v[0] + v[1] * v[1]
            record.append((
                t,
                (theta, phi, a, b, g),
                (-vd[2] / math.sqrt(st2) if st2 > 1e-12 else 0.0,
                 (v[0] * vd[1] - v[1] * vd[0]) / st2 if st2 > 1e-12 else 0.0,
                 rates[0], rates[1], rates[2]),
            ))

    # conjugate back to the original frame
    qlift = quat_mul(quat_conj(qc), quat_mul(_euler_lift(a, b, g), q_off))
    return quat_to_matrix(qlift), qlift


def integrate_roll(v1, v2, rho=3.0, steps=10000, record=None):
    """Integrate the rolling ODE along the minor arc from v1 to v2."""
    v1 = as_vec3(v1)
    v2 = as_vec3(v2)
    c = _cross(v1.tolist(), v2.tolist())
    s = math.sqrt(_dot(c, c))
    if s <= 1e-12:
        raise DegenerateEdge("arc endpoints parallel or antipodal")
    angle = math.atan2(s, float(v1 @ v2))
    return integrate_arc(v1, [x / s for x in c], angle, rho=rho, steps=steps,
                         record=record)


def integrate_polygon(poly, steps_per_edge=10000):
    """Integrate around a spherical polygon edge by edge; returns the total
    (rotation matrix, lifted quaternion) monodromy."""
    R = np.eye(3)
    q = QUAT_ONE.copy()
    for a, b in poly.edges():
        Re, qe = integrate_roll(a, b, rho=poly.rho, steps=steps_per_edge)
        R = Re @ R
        q = quat_mul(qe, q)
    return R, q


def full_equator(rho=3.0, steps=20000):
    """Roll once around the full equator; at ratio 3 the lifted monodromy
    is +1, at ratio 2 it is -1."""
    return integrate_arc(np.array([1.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0]),
                         2.0 * math.pi, rho=rho, steps=steps)
