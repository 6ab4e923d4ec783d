import numpy as np
import pytest

from danceroll import dancing as dc
from danceroll.errors import (
    ClosureFailure,
    NotInscribed,
)
from danceroll.geom import normalize_rep, proj_distance, vec_cross


def chain_pair(n, seed):
    return dc.random_dancing_chain(n, seed=seed)


class TestQuadricBasics:
    def test_membership_and_distribution(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p = dc.random_qdan_point(rng)
            assert p.membership_residual() <= 1e-12
            for dA, db in dc.dan_distribution_basis(p):
                # tangency to bA = 1 and the defining relation db = A x dA
                assert abs(p.b @ dA + db @ p.A) <= 1e-12
                assert np.linalg.norm(db - np.cross(p.A, dA)) <= 1e-12
                assert abs(p.b @ dA) <= 1e-12

    def test_horizontal_segment_symmetry(self):
        rng = np.random.default_rng(1)
        hp = dc.random_horizontal_chain(2, rng=rng)
        p, q = hp.points
        assert dc.horizontal_residual(p, q) <= 1e-12
        assert dc.horizontal_residual(q, p) <= 1e-12


class TestDancingResidual:
    def test_summand_oracle_on_lifts(self):
        # on a horizontal lift the two cross-ratio summands are the
        # opposite determinants -det(A1,A2,A3) and +det(A1,A2,A3)
        rng = np.random.default_rng(2)
        for _ in range(10):
            hp = dc.random_horizontal_chain(3, rng=rng)
            (q1, q2, q3) = hp.points
            pair = dc.project_polygon(hp)
            det = np.linalg.det(np.array([q1.A, q2.A, q3.A]))
            from danceroll.geom import covec_cross, cross_ratio
            B1 = covec_cross(pair.b[0], pair.b[1])
            a1 = vec_cross(pair.A[0], pair.A[1])
            D = covec_cross(pair.b[2], a1)
            s1 = cross_ratio(pair.A[1], B1, pair.A[0], D)
            assert s1 == pytest.approx(1.0 - float(q3.b @ q1.A), rel=1e-6)
            assert s1 == pytest.approx(-det, rel=1e-6)
            assert abs(dc.dancing_residual(pair, 0)) <= 1e-9

    def test_scale_invariance(self):
        pair = chain_pair(5, seed=11)
        rng = np.random.default_rng(3)
        scaled = dc.DancingPair(
            [rng.uniform(0.5, 2) * np.sign(rng.standard_normal()) * a
             for a in pair.A],
            [rng.uniform(0.5, 2) * np.sign(rng.standard_normal()) * b
             for b in pair.b],
            closed=False)
        for i in pair.vertex_indices():
            assert dc.dancing_residual(scaled, i) == pytest.approx(
                dc.dancing_residual(pair, i), abs=1e-9)

    def test_generic_inscribed_pair_is_not_dancing(self):
        pair = chain_pair(4, seed=5)
        # perturb one edge inside the inscribed family: rotate b3 about B2
        B = normalize_rep(np.cross(pair.b[1], pair.b[2]))
        other = vec_cross(B, normalize_rep(pair.A[0]) + 0.3)
        bad = dc.DancingPair(pair.A, [pair.b[0], pair.b[1], other, pair.b[3]],
                             closed=False)
        assert abs(dc.dancing_residual(bad, 0)) > 1e-4


class TestLift:
    def test_2gon_lift_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            hp = dc.random_horizontal_chain(2, rng=rng)
            p, q = hp.points
            l1, l2 = dc.lift_dancing_pair(dc.DancingPair([p.A, q.A], [p.b, q.b])).points
            # the unique lift reproduces the chain points exactly
            assert l1.distance(p) <= 1e-8 * max(1.0, np.linalg.norm(p.coords()))
            assert l2.distance(q) <= 1e-8 * max(1.0, np.linalg.norm(q.coords()))
            assert dc.horizontal_residual(l1, l2) <= 1e-9

    def test_2gon_not_inscribed_rejected(self):
        rng = np.random.default_rng(5)
        p = dc.random_qdan_point(rng)
        q = dc.random_qdan_point(rng)
        # generic pairs are not inscribed
        with pytest.raises((NotInscribed, dc.DancingError)):
            dc.lift_dancing_pair(dc.DancingPair([p.A, q.A], [p.b, q.b]))

    @pytest.mark.parametrize("n", [3, 4, 6, 8])
    def test_lift_project_roundtrip(self, n):
        pair = chain_pair(n, seed=n)
        poly = dc.lift_dancing_pair(pair)
        back = dc.project_polygon(poly)
        for a1, a2 in zip(pair.A, back.A):
            assert proj_distance(a1, a2) <= 1e-9
        for b1, b2 in zip(pair.b, back.b):
            assert proj_distance(b1, b2) <= 1e-9

    def test_project_lift_roundtrip(self):
        rng = np.random.default_rng(6)
        hp = dc.random_horizontal_chain(5, rng=rng)
        pair = dc.project_polygon(hp)
        lifted = dc.lift_dancing_pair(pair)
        for p, q in zip(hp.points, lifted.points):
            assert p.distance(q) <= 1e-9 * max(1.0, np.linalg.norm(p.coords()))

    def test_non_dancing_rejected(self):
        pair = chain_pair(5, seed=9)
        # rotate the last edge inside the pencil through a3 ^ b3: the pair
        # stays inscribed but the dancing condition at the last vertex breaks
        from danceroll.geom import covec_cross
        a3 = vec_cross(pair.A[3], pair.A[4])
        pivot = covec_cross(a3, pair.b[3])
        bad_b = list(pair.b)
        bad_b[4] = vec_cross(pivot, normalize_rep(pair.A[0]) + 0.1)
        bad = dc.DancingPair(pair.A, bad_b, closed=False)
        assert dc.inscribed_residual(bad, 3) <= 1e-9
        with pytest.raises(ClosureFailure):
            dc.lift_dancing_pair(bad)

    def test_closed_lift_roundtrip(self):
        # build a closed dancing pair through the transport pipeline
        from danceroll import bridge
        q = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        pair = bridge.pipeline_forward(list(np.eye(3)) * 2, q)
        poly = dc.lift_dancing_pair(pair)
        assert poly.closed
        assert dc.horizontal_residual(poly.points[-1], poly.points[0]) <= 1e-9

    def test_closed_lift_failure_detected(self):
        # an open chain marked closed: its closing edge is not inscribed
        pair = chain_pair(6, seed=21)
        fake = dc.DancingPair(pair.A, pair.b, closed=True)
        with pytest.raises(NotInscribed):
            dc.lift_dancing_pair(fake)


class TestRandomChains:
    def test_chain_is_dancing_and_nondegenerate(self):
        for seed in range(5):
            pair = chain_pair(6, seed=seed)
            assert dc.is_nondegenerate(pair)
            for i in pair.vertex_indices():
                assert abs(dc.dancing_residual(pair, i)) <= 1e-9
            for i in pair.edge_indices():
                assert dc.inscribed_residual(pair, i) <= 1e-9

    def test_determinism(self):
        p1 = chain_pair(5, seed=42)
        p2 = chain_pair(5, seed=42)
        assert all(np.allclose(a, b) for a, b in zip(p1.A, p2.A))
        assert all(np.allclose(a, b) for a, b in zip(p1.b, p2.b))

    def test_horizontal_chain_projects_to_dancing(self):
        for seed in range(5):
            hp = dc.random_horizontal_chain(6, seed=seed)
            pair = dc.project_polygon(hp)
            for i in pair.vertex_indices():
                assert abs(dc.dancing_residual(pair, i)) <= 1e-9


class TestNormalForm:
    def test_sl3_action_preserves_structure(self):
        rng = np.random.default_rng(7)
        hp = dc.random_horizontal_chain(3, rng=rng)
        S = rng.standard_normal((3, 3))
        S /= np.cbrt(np.linalg.det(S))
        moved = [dc.apply_sl3(S, p) for p in hp.points]
        for p in moved:
            assert p.membership_residual() <= 1e-9
        assert dc.horizontal_residual(moved[0], moved[1]) <= 1e-9
        assert dc.horizontal_residual(moved[1], moved[2]) <= 1e-9

    def test_normal_form(self):
        e = np.eye(3)
        for seed in range(5):
            hp = dc.random_horizontal_chain(3, seed=seed)
            q1, q2, q3 = hp.points
            S, a = dc.normalize_horizontal_3chain(q1, q2, q3)
            assert np.linalg.det(S) == pytest.approx(1.0, abs=1e-9)
            n1, n2, n3 = (dc.apply_sl3(S, q) for q in (q1, q2, q3))
            assert np.allclose(n2.A, e[0], atol=1e-9)
            assert np.allclose(n2.b, e[0], atol=1e-9)
            assert np.allclose(n1.A - n2.A, e[1], atol=1e-9)
            assert np.allclose(n1.b - n2.b, e[2], atol=1e-9)
            assert np.allclose(n3.A - n2.A, a * e[2], atol=1e-9)
            assert np.allclose(n3.b - n2.b, -a * e[1], atol=1e-9)


class TestSmallN:
    def test_no_horizontal_triangle(self):
        for seed in range(60):
            hp = dc.random_horizontal_chain(3, seed=seed)
            q1, q2, q3 = hp.points
            assert dc.horizontal_residual(q3, q1) > 1e-4

    def test_quadrilateral_forces_q4_equal_q2(self):
        for seed in range(60):
            hp = dc.random_horizontal_chain(3, seed=seed)
            q1, q2, q3 = hp.points
            q4 = dc.solve_horizontal_quad(q1, q2, q3)
            assert dc.horizontal_residual(q3, q4) <= 1e-8
            assert dc.horizontal_residual(q4, q1) <= 1e-8
            assert q4.distance(q2) <= 1e-6


class TestRowArrays:
    """A pair stores A and b as (n, 3) float arrays and refuses anything else."""

    cls = dc.DancingPair
    GOOD = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    def test_rows_are_one_array(self):
        pair = self.cls([np.array(r) for r in self.GOOD], self.GOOD)
        for rows in (pair.A, pair.b):
            assert isinstance(rows, np.ndarray)
            assert rows.shape == (3, 3) and rows.dtype == float

    @pytest.mark.parametrize("rows", [
        [[1.0, 0.0, 0.0], [0.0, 1.0]],  # ragged
        [[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],  # (n, 2)
        [],  # empty
    ], ids=["ragged", "two-columns", "empty"])
    def test_malformed_rows(self, rows):
        good = self.GOOD[:len(rows)]
        with pytest.raises(ValueError):
            self.cls(rows, good)
        with pytest.raises(ValueError):
            self.cls(good, rows)

    def test_unequal_lengths(self):
        with pytest.raises(ValueError):
            self.cls(self.GOOD, self.GOOD[:2])


class TestHorizontalRowArrays(TestRowArrays):
    """A horizontal polygon shares the pair's rows and their checks."""

    cls = dc.HorizontalPolygon
