import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from danceroll import geom
from danceroll.errors import DegenerateQuadruple, NonUnitAxis, NotCollinear


def affine_cross_ratio(x1, x2, x3, x4):
    """Independent oracle: the classical affine chart formula."""
    return ((x1 - x3) * (x2 - x4)) / ((x1 - x4) * (x2 - x3))


def embed(x):
    return np.array([x, 1.0, 0.0])


class TestCrossRatio:
    def test_reference_quadruple(self):
        # oracle: affine formula on (0, 1, 2, 3) gives 4/3
        pts = [embed(x) for x in (0.0, 1.0, 2.0, 3.0)]
        assert geom.cross_ratio(*pts) == pytest.approx(4.0 / 3.0, abs=1e-12)
        assert affine_cross_ratio(0.0, 1.0, 2.0, 3.0) == pytest.approx(4.0 / 3.0)

    @given(st.lists(st.floats(-20, 20), min_size=4, max_size=4, unique=True))
    @settings(max_examples=80, deadline=None)
    def test_matches_affine_oracle(self, xs):
        x1, x2, x3, x4 = xs
        if min(abs(x1 - x4), abs(x2 - x3), abs(x1 - x2), abs(x3 - x4),
               abs(x1 - x3), abs(x2 - x4)) < 1e-3:
            return
        pts = [embed(x) for x in xs]
        assert geom.cross_ratio(*pts) == pytest.approx(
            affine_cross_ratio(x1, x2, x3, x4), rel=1e-8)

    @given(st.lists(st.floats(-1, 1), min_size=6, max_size=6),
           st.lists(st.floats(-20, 20), min_size=4, max_size=4, unique=True),
           st.lists(st.floats(0.5, 3), min_size=4, max_size=4),
           st.lists(st.booleans(), min_size=4, max_size=4))
    @settings(max_examples=80, deadline=None)
    def test_matches_affine_oracle_on_random_lines(self, basis, ts, scales, flips):
        # p = t u + w is the point with affine coordinate t on the line
        # spanned by u and w; each point then gets a random signed scale
        u, w = np.array(basis[:3]), np.array(basis[3:])
        assume(min(np.linalg.norm(u), np.linalg.norm(w)) > 0.3)
        assume(np.linalg.norm(np.cross(u, w)) > 0.1 * np.linalg.norm(u) * np.linalg.norm(w))
        t1, t2, t3, t4 = ts
        assume(min(abs(t1 - t4), abs(t2 - t3), abs(t1 - t2), abs(t3 - t4),
                   abs(t1 - t3), abs(t2 - t4)) >= 1e-3)
        pts = [(-c if f else c) * (t * u + w) for t, c, f in zip(ts, scales, flips)]
        assert geom.cross_ratio(*pts) == pytest.approx(
            affine_cross_ratio(t1, t2, t3, t4), rel=1e-8)

    def test_scale_invariance(self):
        rng = np.random.default_rng(0)
        line = rng.standard_normal((2, 3))
        coeffs = [(1, 0), (0, 1), (1, 1), (2.5, 1)]
        pts = [c0 * line[0] + c1 * line[1] for c0, c1 in coeffs]
        k = geom.cross_ratio(*pts)
        scaled = [rng.uniform(0.5, 3) * np.sign(rng.standard_normal()) * p
                  for p in pts]
        assert geom.cross_ratio(*scaled) == pytest.approx(k, rel=1e-9)

    def test_sign_separation_law(self):
        # positive iff {p1,p2} does not separate {p3,p4} on the line
        non_sep = [embed(x) for x in (0.0, 1.0, 2.0, 3.0)]
        sep = [embed(x) for x in (0.0, 2.0, 1.0, 3.0)]
        assert geom.cross_ratio(*non_sep) > 0
        assert geom.cross_ratio(*sep) < 0

    def test_not_collinear(self):
        pts = [np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
               np.array([0, 0, 1.0]), np.array([1.0, 1, 1])]
        with pytest.raises(NotCollinear):
            geom.cross_ratio(*pts)

    def test_degenerate_quadruple(self):
        p = embed(0.0)
        with pytest.raises(DegenerateQuadruple):
            geom.cross_ratio(p, 2 * p, embed(1.0), embed(2.0))

    def test_fourth_point_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            line = rng.standard_normal((2, 3))
            p1, p2 = line
            p3 = line[0] + line[1]
            k = rng.uniform(-5, 5)
            if abs(k) < 1e-2 or abs(k - 1) < 1e-2:
                continue
            p4 = geom.fourth_point_with_cross_ratio(p1, p2, p3, k)
            assert geom.cross_ratio(p1, p2, p3, p4) == pytest.approx(k, rel=1e-8)

    def test_fourth_point_needs_collinear_base(self):
        with pytest.raises(NotCollinear):
            geom.fourth_point_with_cross_ratio(np.array([1.0, 0, 0]), np.array([0, 1.0, 0]),
                                               np.array([0, 0, 1.0]), 2.0)


class TestProjective:
    def test_normalize_rep_canonical(self):
        v = np.array([-2.0, 1.0, 3.0])
        r = geom.normalize_rep(v)
        assert np.linalg.norm(r) == pytest.approx(1.0)
        assert r[0] > 0
        assert np.allclose(geom.normalize_rep(5 * v), r)

    def test_duality_incidence(self):
        rng = np.random.default_rng(2)
        a1, a2 = rng.standard_normal(3), rng.standard_normal(3)
        line = geom.vec_cross(a1, a2)
        assert abs(line @ a1) < 1e-12 and abs(line @ a2) < 1e-12
        b1, b2 = rng.standard_normal(3), rng.standard_normal(3)
        pt = geom.covec_cross(b1, b2)
        assert abs(b1 @ pt) < 1e-12 and abs(b2 @ pt) < 1e-12


UNIT_VECS = st.lists(st.floats(-1, 1), min_size=3, max_size=3).map(
    np.array).filter(lambda v: np.linalg.norm(v) > 1e-2).map(
    lambda v: v / np.linalg.norm(v))


def assert_completes(u):
    basis = np.vstack([u, geom._complement(list(u))])
    assert np.abs(basis @ basis.T - np.eye(3)).max() <= 1e-15


class TestComplement:
    @pytest.mark.parametrize("u", [s * e for s in (1.0, -1.0) for e in np.eye(3)]
                             + [[1.0, 0.0, -0.0], [0.6, 0.8, 0.0], [0.6, 0.8, -0.0]])
    def test_axes_and_signed_zero(self, u):
        assert_completes(np.array(u))

    def test_exact_at_first_axis(self):
        assert geom._complement([1.0, 0.0, 0.0]).tolist() == [[0.0, 0.0, -1.0],
                                                                [0.0, 1.0, 0.0]]

    @given(UNIT_VECS)
    @settings(max_examples=50, deadline=None)
    def test_orthonormal(self, u):
        assert_completes(u)


UNIT_QUATS = st.lists(st.floats(-1, 1), min_size=4, max_size=4).map(
    np.array).filter(lambda q: np.linalg.norm(q) > 1e-2).map(
    lambda q: q / np.linalg.norm(q))


class TestQuaternions:
    @given(UNIT_QUATS, UNIT_QUATS)
    @settings(max_examples=60, deadline=None)
    def test_multiplicative_norm(self, p, q):
        assert np.linalg.norm(geom.quat_mul(p, q)) == pytest.approx(1.0, abs=1e-10)

    @given(UNIT_QUATS, UNIT_QUATS)
    @settings(max_examples=60, deadline=None)
    def test_conj_antihomomorphism(self, p, q):
        lhs = geom.quat_conj(geom.quat_mul(p, q))
        rhs = geom.quat_mul(geom.quat_conj(q), geom.quat_conj(p))
        assert np.allclose(lhs, rhs, atol=1e-12)

    @given(UNIT_QUATS, UNIT_QUATS)
    @settings(max_examples=60, deadline=None)
    def test_product_matches_rotation_matrices(self, p, q):
        # quat_to_matrix is the oracle: it shares no formula with quat_mul
        assert np.allclose(geom.quat_to_matrix(geom.quat_mul(p, q)),
                           geom.quat_to_matrix(p) @ geom.quat_to_matrix(q),
                           atol=1e-12)

    @given(UNIT_QUATS)
    @settings(max_examples=60, deadline=None)
    def test_rotation_roundtrip(self, q):
        m = geom.quat_to_matrix(q)
        assert np.allclose(m @ m.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-10)

    @given(UNIT_QUATS)
    @settings(max_examples=40, deadline=None)
    def test_rotate_matches_matrix(self, q):
        v = np.array([0.3, -1.2, 0.7])
        assert np.allclose(geom.quat_rotate(q, v), geom.quat_to_matrix(q) @ v,
                           atol=1e-12)

    def test_exp_needs_unit_axis(self):
        with pytest.raises(NonUnitAxis):
            geom.quat_exp(np.array([1.0, 1.0, 0.0]), 0.3)

    def test_exp_one_parameter_group(self):
        u = np.array([0.0, 0.6, 0.8])
        a = geom.quat_mul(geom.quat_exp(u, 0.4), geom.quat_exp(u, 0.9))
        assert np.allclose(a, geom.quat_exp(u, 1.3), atol=1e-12)
