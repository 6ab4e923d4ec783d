import math
import os
import subprocess
import sys

import numpy as np
import pytest

import danceroll
from danceroll import eulerroll as er
from danceroll import rolling as rl
from danceroll.errors import ChartSingularity, DegenerateEdge
from danceroll.geom import QUAT_ONE, quat_distance, quat_rotate, quat_to_matrix

EX, EY, EZ = np.eye(3)


class TestChart:
    def test_euler_to_rotation_factors(self):
        def rx(a):
            c, s = math.cos(a), math.sin(a)
            return np.array([[1, 0, 0], [0, c, -s], [0, s, c]])

        def ry(a):
            c, s = math.cos(a), math.sin(a)
            return np.array([[c, 0, s], [0, 1, 0], [-s, 0, c]])

        def rz(a):
            c, s = math.cos(a), math.sin(a)
            return np.array([[c, -s, 0], [s, c, 0], [0, 0, 1]])

        rng = np.random.default_rng(0)
        for _ in range(20):
            a, b, g = rng.uniform(-3, 3, 3)
            assert np.allclose(er.euler_to_rotation(a, b, g),
                               rz(g) @ ry(b) @ rx(a), atol=1e-12)

    def test_angular_velocity_is_gdot_ginv(self):
        # finite-difference oracle: omega^ = gdot g^-1
        rng = np.random.default_rng(1)
        h = 1e-7
        for _ in range(30):
            ang = rng.uniform(-1.2, 1.2, 3)
            rates = rng.uniform(-2, 2, 3)
            g0 = er.euler_to_rotation(*ang)
            g1 = er.euler_to_rotation(*(ang + h * rates))
            m = (g1 - g0) / h @ g0.T
            omega_fd = np.array([m[2, 1] - m[1, 2], m[0, 2] - m[2, 0],
                                 m[1, 0] - m[0, 1]]) / 2.0
            omega = er.angular_velocity(ang, rates)
            assert np.allclose(omega, omega_fd, atol=1e-5)

    def test_rate_matrix_determinant(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            b, g = rng.uniform(-1.4, 1.4, 2)
            m = er.rate_to_omega_matrix(b, g)
            assert np.linalg.det(m) == pytest.approx(math.cos(b), abs=1e-12)

    def test_half_angle_lift_covers_the_chart(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            a, b, g = rng.uniform(-7, 7, 3)
            assert np.allclose(quat_to_matrix(er._euler_lift(a, b, g)),
                               er.euler_to_rotation(a, b, g), atol=1e-12)

    def test_frame_quaternion_takes_n_to_n0(self):
        n0 = np.array([math.sin(er.BAND_TILT), 0.0, math.cos(er.BAND_TILT)])
        rng = np.random.default_rng(7)
        tilt = rng.standard_normal(3)
        near = -n0 + 1e-7 * np.cross(n0, tilt)
        for n in (n0, -n0, near / np.linalg.norm(near), rng.standard_normal(3)):
            n = n / np.linalg.norm(n)
            q = np.array(er._rotation_taking(n.tolist(), n0.tolist()))
            assert abs(np.linalg.norm(q) - 1.0) <= 1e-15
            assert np.abs(quat_rotate(q, n) - n0).max() <= 1e-15

    def test_chart_singularity_raised(self):
        with pytest.raises(ChartSingularity):
            er.droll_constraint_residuals((0.0, 0.0, 0.1, 0.2, 0.3),
                                          (0.1, 0, 0, 0, 0))

    def test_rate_solve_singular_at_beta_pi_2(self):
        with pytest.raises(ChartSingularity):
            er.solve_euler_rates(math.pi / 2, 0.3, EX, EY)


class TestConstraintResiduals:
    def test_solved_rates_satisfy_constraints(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            beta = rng.uniform(-0.9, 0.9)
            gamma = rng.uniform(-3, 3)
            v = rng.standard_normal(3)
            v /= np.linalg.norm(v)
            vd = rng.standard_normal(3)
            vd -= (vd @ v) * v
            rates = er.solve_euler_rates(beta, gamma, v, vd, rho=3.0)
            omega = er.angular_velocity((0.0, beta, gamma), rates)
            assert np.abs(4.0 * vd - np.cross(omega, v)).max() <= 1e-9
            assert abs(omega @ v) <= 1e-9

    def test_residuals_along_integrated_edge(self):
        rec = []
        er.integrate_roll(EX, EY, steps=200, record=rec)
        worst = 0.0
        for t, state, rates in rec:
            res = er.droll_constraint_residuals(state, rates, rho=3.0)
            worst = max(worst, np.abs(res).max())
        assert worst <= 1e-8


class TestIntegration:
    def test_edge_matches_quaternion_monodromy(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            v1 = rng.standard_normal(3)
            v1 /= np.linalg.norm(v1)
            v2 = rng.standard_normal(3)
            v2 /= np.linalg.norm(v2)
            R, q = er.integrate_roll(v1, v2, steps=1500)
            qe = rl.edge_monodromy(v1, v2, 3.0)
            assert quat_distance(q, qe) <= 1e-8
            assert np.abs(R - quat_to_matrix(qe)).max() <= 1e-8

    @pytest.mark.parametrize("sign", (1.0, -1.0))
    def test_arc_about_the_band_normal_keeps_the_sign(self, sign):
        # normal = -n0 takes the half-turn branch of the frame quaternion
        n0 = np.array([math.sin(er.BAND_TILT), 0.0, math.cos(er.BAND_TILT)])
        normal, v1, angle = sign * n0, EY, 2.5
        v2 = math.cos(angle) * v1 + math.sin(angle) * np.cross(normal, v1)
        R, q = er.integrate_arc(v1, normal, angle, steps=600)
        qe = rl.edge_monodromy(v1, v2, 3.0)
        assert quat_distance(q, qe) <= 1e-8
        assert np.abs(R - quat_to_matrix(qe)).max() <= 1e-8

    def test_reseated_chart_keeps_the_lift(self, monkeypatch):
        # no arc of the benchmark polygons re-seats, so force it
        monkeypatch.setattr(er, "RESEAT_COS_BETA", 0.99)
        lifts = []
        lift = er._euler_lift
        monkeypatch.setattr(er, "_euler_lift", lambda *a: lifts.append(a) or lift(*a))
        v2 = np.array([-0.6, 0.7, -0.39])
        v2 /= np.linalg.norm(v2)
        R, q = er.integrate_roll(EX, v2, steps=1500)
        assert len(lifts) > 2
        qe = rl.edge_monodromy(EX, v2, 3.0)
        assert quat_distance(q, qe) <= 1e-8
        assert np.abs(R - quat_to_matrix(qe)).max() <= 1e-8

    def test_other_ratio(self):
        R, q = er.integrate_roll(EX, EY, rho=1.5, steps=1500)
        qe = rl.edge_monodromy(EX, EY, rho=1.5)
        assert quat_distance(q, qe) <= 1e-9

    def test_fourth_order_convergence(self):
        v1 = EX
        v2 = np.array([0.3, 0.8, 0.52])
        v2 /= np.linalg.norm(v2)
        qe = rl.edge_monodromy(v1, v2, 3.0)
        errs = []
        for steps in (100, 200, 400):
            _, q = er.integrate_roll(v1, v2, steps=steps)
            errs.append(quat_distance(q, qe))
        orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 3.5

    def test_polygon_composition(self):
        poly = rl.SphericalPolygon([EX, EY, EZ])
        R, q = er.integrate_polygon(poly, steps_per_edge=800)
        assert quat_distance(q, rl.polygon_monodromy(poly).g) <= 1e-8

    def test_full_equator_lifts(self):
        R3, q3 = er.full_equator(rho=3.0, steps=3000)
        assert np.abs(R3 - np.eye(3)).max() <= 1e-9
        assert q3[0] == pytest.approx(1.0, abs=1e-9)
        R2, q2 = er.full_equator(rho=2.0, steps=3000)
        assert np.abs(R2 - np.eye(3)).max() <= 1e-9
        assert q2[0] == pytest.approx(-1.0, abs=1e-9)

    def test_degenerate_edge(self):
        with pytest.raises(DegenerateEdge):
            er.integrate_roll(EX, EX)

    def test_conjugation_frame_independence(self):
        # same edge fed with swapped roles must invert the monodromy
        v1, v2 = EX, EY
        _, q12 = er.integrate_roll(v1, v2, steps=800)
        _, q21 = er.integrate_roll(v2, v1, steps=800)
        prod = np.array([
            q12[0] * q21[0] - q12[1:] @ q21[1:],
            *(q12[0] * q21[1:] + q21[0] * q12[1:] + np.cross(q21[1:], q12[1:]))])
        assert min(np.linalg.norm(prod - np.array([1, 0, 0, 0])),
                   np.linalg.norm(prod + np.array([1, 0, 0, 0]))) <= 1e-8

    def test_admissible_polygons_lift_to_one(self):
        # every admissible regular polygon up to n = 16 has lifted monodromy
        # +1; RK4 at 250 steps per edge must reach it within 50 * steps^-4
        steps = 250
        for row in rl.enumerate_admissible(16):
            poly = rl.regular_polygon(row["n"], row["w"], row["phi"])
            _, q = er.integrate_polygon(poly, steps_per_edge=steps)
            assert np.linalg.norm(q - QUAT_ONE) <= 50.0 * steps ** -4, row


def test_ode_vs_quaternion_script():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    src = os.path.dirname(os.path.dirname(os.path.abspath(danceroll.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    res = subprocess.run(
        [sys.executable, os.path.join(root, "scripts", "ode_vs_quaternion.py"),
         "--edges", "3", "--steps", "400"],
        capture_output=True, text=True, env=env, timeout=120)
    assert res.returncode == 0, res.stderr
    assert "full equator at rho=3.0: lift scalar +1.000000000" in res.stdout
    assert "full equator at rho=2.0: lift scalar -1.000000000" in res.stdout
