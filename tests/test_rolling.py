import numpy as np
import pytest

from danceroll import rolling as rl
from danceroll.errors import (
    DegenerateEdge,
    IdenticalClasses,
    NotTangent,
    ParameterOutOfRange,
)
from danceroll.geom import (
    QUAT_ONE,
    quat_distance,
    quat_exp,
    quat_mul,
    quat_to_matrix,
)

EX, EY, EZ = np.eye(3)


class TestEdgeMonodromy:
    def test_octant_edge_is_minus_one(self):
        # quarter-circle edge at ratio 3: exp(2 * pi/2 * u) = -1
        g = rl.edge_monodromy(EX, EY, rho=3.0)
        assert quat_distance(g, -QUAT_ONE) <= 1e-12

    def test_angle_scaling(self):
        v1 = EX
        v2 = np.array([np.cos(0.7), np.sin(0.7), 0.0])
        g = rl.edge_monodromy(v1, v2, rho=2.0)
        assert np.allclose(g, quat_exp(EZ, 1.5 * 0.7), atol=1e-12)

    def test_degenerate_edge(self):
        with pytest.raises(DegenerateEdge):
            rl.edge_monodromy(EX, EX)
        with pytest.raises(DegenerateEdge):
            rl.edge_monodromy(EX, -EX)

    def test_rotation_action(self):
        # the edge factor rotates the arc plane by (rho+1) * delta about u
        rng = np.random.default_rng(0)
        v1 = rng.standard_normal(3)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(3)
        v2 /= np.linalg.norm(v2)
        g = rl.edge_monodromy(v1, v2, rho=3.0)
        u = np.cross(v1, v2)
        u /= np.linalg.norm(u)
        m = quat_to_matrix(g)
        assert np.allclose(m @ u, u, atol=1e-12)


class TestPolygonMonodromy:
    def test_octant(self):
        poly = rl.SphericalPolygon([EX, EY, EZ])
        rep = rl.polygon_monodromy(poly)
        assert quat_distance(rep.g, -QUAT_ONE) <= 1e-12
        assert not rep.trivial and rep.projectively_trivial

    def test_octant_twice(self):
        poly = rl.SphericalPolygon([EX, EY, EZ, EX, EY, EZ])
        rep = rl.polygon_monodromy(poly)
        assert quat_distance(rep.g, QUAT_ONE) <= 1e-12
        assert rep.trivial

    def test_start_index_conjugates(self):
        poly = rl.regular_polygon(7, 2, 0.8)
        g0 = rl.polygon_monodromy(poly, 0).g
        g2 = rl.polygon_monodromy(poly, 2).g
        h = rl.edge_monodromy(poly.vertices[1], poly.vertices[2], 3.0)
        g1 = rl.edge_monodromy(poly.vertices[0], poly.vertices[1], 3.0)
        c = quat_mul(h, g1)
        lhs = quat_mul(g2, c)
        rhs = quat_mul(c, g0)
        assert quat_distance(lhs, rhs) <= 1e-12

    def test_factors_match_trigonometric_edge_factor(self):
        # at ratio 3 the factors are the closed form, elsewhere edge_monodromy
        rng = np.random.default_rng(5)
        verts = rng.standard_normal((7, 3))
        verts /= np.linalg.norm(verts, axis=1, keepdims=True)
        for rho in (3.0, 2.0):
            poly = rl.SphericalPolygon(verts, rho=rho)
            rep = rl.polygon_monodromy(poly)
            for i, f in enumerate(rep.factors):
                qe = rl.edge_monodromy(verts[i], verts[(i + 1) % 7], rho)
                assert quat_distance(f, qe) <= 1e-14

    def test_degenerate_edge_raises(self):
        for v in (EX, -EX):
            with pytest.raises(DegenerateEdge):
                rl.polygon_monodromy(rl.SphericalPolygon([EX, v, EZ]))

    def test_factor_order(self):
        poly = rl.SphericalPolygon([EX, EY, EZ])
        rep = rl.polygon_monodromy(poly)
        acc = QUAT_ONE
        for f in rep.factors:
            acc = quat_mul(f, acc)
        assert quat_distance(acc, rep.g) <= 1e-13


class TestRegularPolygons:
    def test_vertices_on_colatitude_circle(self):
        poly = rl.regular_polygon(8, 3, 0.9)
        for v in poly.vertices:
            assert v[2] == pytest.approx(np.cos(0.9), abs=1e-12)
        # winding: successive azimuths advance by 2 pi w / n
        az = np.unwrap([np.arctan2(v[1], v[0]) for v in poly.vertices])
        steps = np.diff(az)
        assert np.allclose(steps, 2 * np.pi * 3 / 8, atol=1e-9)

    def test_closed_form_matches_product(self):
        for (n, w) in [(6, 2), (8, 3), (12, 5)]:
            phi = 0.7
            poly = rl.regular_polygon(n, w, phi)
            g = rl.polygon_monodromy(poly).g
            cf = rl.closed_form_monodromy(n, w, phi)
            assert quat_distance(g, cf) <= 1e-11

    def test_parameter_guards(self):
        with pytest.raises(ParameterOutOfRange):
            rl.regular_polygon(6, 3, 0.5)
        with pytest.raises(ParameterOutOfRange):
            rl.regular_polygon(2, 1, 0.5)
        with pytest.raises(ParameterOutOfRange):
            rl.regular_polygon(6, 2, 2.0)


class TestSolvePhi:
    def test_hexagon_closed_form(self):
        # independent oracle: sin^2(phi) = 2/3 for the (6, 2, 4) triple
        phi = rl.solve_phi(6, 2, 4)
        assert np.sin(phi) ** 2 == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_no_solution(self):
        assert rl.solve_phi(5, 2, 4) is None
        assert rl.solve_phi(7, 3, 5) is None

    def test_residual_and_monodromy(self):
        for (n, w, wp) in [(6, 2, 4), (8, 3, 5), (9, 3, 7), (10, 4, 6),
                           (11, 4, 8), (12, 4, 10), (12, 5, 7)]:
            phi = rl.solve_phi(n, w, wp)
            assert phi is not None and 0 < phi < np.pi / 2
            assert abs(rl.wprime_angle_residual(n, w, wp, phi)) <= 1e-12
            g = rl.polygon_monodromy(rl.regular_polygon(n, w, phi)).g
            assert quat_distance(g, QUAT_ONE) <= 1e-10

    def test_traced_turning_oracle(self):
        # spherical-trigonometry oracle for the closure relation
        for (n, w, wp) in [(6, 2, 4), (9, 3, 7), (12, 5, 7)]:
            phi = rl.solve_phi(n, w, wp)
            assert rl.traced_turning_cos(n, w, phi) == pytest.approx(
                np.cos(np.pi * wp / n), abs=1e-10)

    def test_closure_relation_equivalent_to_triviality(self):
        # scan phi: the monodromy is trivial exactly at the solved root
        n, w, wp = 6, 2, 4
        root = rl.solve_phi(n, w, wp)
        for phi in (0.5, 0.7, 1.1):
            g = rl.polygon_monodromy(rl.regular_polygon(n, w, phi)).g
            assert quat_distance(g, QUAT_ONE) > 1e-3
        g = rl.polygon_monodromy(rl.regular_polygon(n, w, root)).g
        assert quat_distance(g, QUAT_ONE) <= 1e-10


class TestEnumerate:
    def test_minimal_triples(self):
        rows = rl.enumerate_admissible(12)
        minimal = sorted((r["n"], r["w"], r["wprime"]) for r in rows
                         if r["minimal"])
        assert minimal == [(6, 2, 4), (8, 3, 5), (9, 3, 7), (10, 4, 6),
                           (11, 4, 8), (12, 4, 10), (12, 5, 7)]

    def test_empty_below_six(self):
        assert rl.enumerate_admissible(5) == []


class TestConstraints:
    def test_droll_membership_on_edge_motion(self):
        # rolling about a constant axis satisfies both constraints
        rng = np.random.default_rng(1)
        v1 = rng.standard_normal(3)
        v1 /= np.linalg.norm(v1)
        v2 = rng.standard_normal(3)
        v2 /= np.linalg.norm(v2)
        u = np.cross(v1, v2)
        u /= np.linalg.norm(u)
        rho = 3.0
        # path v(t), orientation exp((rho+1) t u)
        t = 0.37
        c, s = np.cos(t), np.sin(t)
        v = c * v1 + s * np.cross(u, v1)
        vdot = -s * v1 + c * np.cross(u, v1)
        ang = (rho + 1.0) * t
        g = quat_to_matrix(quat_exp(u, ang / 2.0))
        K = np.array([[0, -u[2], u[1]], [u[2], 0, -u[0]], [-u[1], u[0], 0]])
        gdot = (rho + 1.0) * K @ g
        slip, twist = rl.droll_membership(v, g, vdot, gdot, rho)
        assert slip <= 1e-10 and twist <= 1e-10

    def test_droll_membership_guards(self):
        with pytest.raises(NotTangent):
            rl.droll_membership(2 * EX, np.eye(3), EY, np.zeros((3, 3)))
        with pytest.raises(NotTangent):
            rl.droll_membership(EX, np.eye(3), EX, np.zeros((3, 3)))


class TestProjectiveMonodromy:
    def test_representative_independence_at_three(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            v1 = rng.standard_normal(3)
            v1 /= np.linalg.norm(v1)
            v2 = rng.standard_normal(3)
            v2 /= np.linalg.norm(v2)
            base = rl.edge_monodromy(v1, v2, 3.0)
            for s1 in (1.0, -1.0):
                for s2 in (1.0, -1.0):
                    g = rl.edge_monodromy(s1 * v1, s2 * v2, 3.0)
                    assert quat_distance(g, base) <= 1e-12
                    # the closed form (d^2 - |c|^2, 2 d c) against the
                    # trigonometric edge factor
                    h = rl.projective_edge_monodromy(s1 * v1, s2 * v2)
                    assert quat_distance(h, base) <= 1e-14
                    assert abs(np.linalg.norm(h) - 1.0) <= 4e-15

    def test_dependence_away_from_three(self):
        v1, v2 = EX, EY
        a = rl.edge_monodromy(v1, v2, 2.0)
        b = rl.edge_monodromy(-v1, v2, 2.0)
        assert min(quat_distance(a, b), quat_distance(a, -b)) > 1e-3

    def test_guards(self):
        with pytest.raises(ParameterOutOfRange):
            rl.projective_edge_monodromy(EX, EY, rho=2.0)
        with pytest.raises(IdenticalClasses):
            rl.projective_edge_monodromy(EX, -EX)


class TestVertexArray:
    def test_vertices_are_one_array(self):
        poly = rl.SphericalPolygon([EX, EY, EZ])
        assert isinstance(poly.vertices, np.ndarray)
        assert poly.vertices.shape == (3, 3) and poly.vertices.dtype == float

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0, 0.0], [0.0, 1.0]],  # ragged
        [[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]],  # (n, 2)
        [],  # empty
    ], ids=["ragged", "two-columns", "empty"])
    def test_malformed_vertices(self, rows):
        with pytest.raises(ValueError):
            rl.SphericalPolygon(rows)

    @pytest.mark.parametrize("closed", [True, False])
    def test_nondegeneracy_margin_matches_det(self, closed):
        V = np.random.default_rng(3).standard_normal((7, 3))
        V /= np.linalg.norm(V, axis=1, keepdims=True)
        poly = rl.SphericalPolygon(V, closed=closed)
        n = len(V)
        dets = [abs(np.linalg.det(V[[i, (i + 1) % n, (i + 2) % n]]))
                for i in range(n if closed else n - 2)]
        sines = [np.linalg.norm(np.cross(V[i], V[(i + 1) % n]))
                 for i in range(n if closed else n - 1)]
        det, sine = poly.nondegeneracy_margin()
        assert det == pytest.approx(min(dets), rel=1e-12)
        assert sine == pytest.approx(min(sines), rel=1e-12)
