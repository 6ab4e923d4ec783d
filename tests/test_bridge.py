import numpy as np
import pytest

from danceroll import bridge, dancing, rolling
from danceroll.errors import (
    ClosureFailure,
    DegenerateRay,
    NonGeneric,
    NontrivialMonodromy,
    NotOnCone,
)
from danceroll.geom import (
    QUAT_ONE,
    normalize_rep,
    proj_distance,
    quat_distance,
    quat_mul,
)
from danceroll.octonion import ImOctonion, oct_form, omega_horizontality_residual

EX, EY, EZ = np.eye(3)


def rand_state(rng):
    v = rng.standard_normal(3)
    v /= np.linalg.norm(v)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    return v, q


def panel_draw(k):
    """The k-th draw of default_rng(0).standard_normal(4), normalised."""
    rng = np.random.default_rng(0)
    for _ in range(k):
        q = rng.standard_normal(4)
    return q / np.linalg.norm(q)


class TestCharts:
    def test_iota_lands_on_cone(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = dancing.random_qdan_point(rng)
            z = bridge.iota(p)
            assert abs(oct_form(z)) <= 1e-12
            back = bridge.iota_inv(z)
            assert back.distance(p) <= 1e-12

    def test_iota_inv_scale_invariance(self):
        rng = np.random.default_rng(1)
        p = dancing.random_qdan_point(rng)
        z = bridge.iota(p).scale(-3.7)
        back = bridge.iota_inv(z)
        assert back.distance(p) <= 1e-12

    def test_iota_inv_nongeneric(self):
        z = ImOctonion(0.0, EX, EY)  # null: -0 + b.A = 0
        with pytest.raises(NonGeneric):
            bridge.iota_inv(z)

    def test_iota_inv_not_on_cone(self):
        with pytest.raises(NotOnCone):
            bridge.iota_inv(ImOctonion(1.0, EX, 2.0 * EX))

    def test_phi_null_and_roundtrip(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            v, q = rand_state(rng)
            z = bridge.phi(v, q)
            assert abs(oct_form(z)) <= 1e-12
            v2, q2 = bridge.phi_inv(z)
            assert np.abs(v2 - v).max() <= 1e-12
            assert np.abs(q2 - q).max() <= 1e-12

    def test_phi_inv_positive_scale_invariance(self):
        rng = np.random.default_rng(3)
        v, q = rand_state(rng)
        z = bridge.phi(v, q).scale(2.9)
        v2, q2 = bridge.phi_inv(z)
        assert np.abs(v2 - v).max() <= 1e-12
        assert np.abs(q2 - q).max() <= 1e-12

    def test_phi_inv_covers_the_whole_cone(self):
        # on the null cone A + b can never vanish (it would force
        # -x^2 - |A|^2 = 0), so the state chart covers every nonzero ray;
        # random null points always invert
        rng = np.random.default_rng(11)
        for _ in range(100):
            A = rng.standard_normal(3)
            b = rng.standard_normal(3)
            s = float(b @ A)
            if s <= 0.05:
                continue
            z = ImOctonion(np.sqrt(s) * rng.choice([-1.0, 1.0]), A, b)
            assert np.linalg.norm(z.A + z.b) > 1e-6
            v, q = bridge.phi_inv(z)
            z2 = bridge.phi(v, q)
            # same ray: proportional with positive factor
            t = z.norm() / z2.norm()
            assert (z2.scale(t) - z).norm() <= 1e-9 * z.norm()

    def test_phi_inv_degenerate_ray_guard(self):
        with pytest.raises(DegenerateRay):
            bridge.phi_inv(ImOctonion(0.0, np.zeros(3), np.zeros(3)))

    def test_antipode_equivariance(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            v, q = rand_state(rng)
            assert bridge.antipode_equivariance_check(v, q) <= 1e-12


class TestHorizontality:
    def test_finite_difference_horizontality(self):
        rng = np.random.default_rng(5)
        eps = 1e-4
        for _ in range(100):
            v, q = rand_state(rng)
            z = bridge.phi(v, q)
            for dv, dq in bridge.horizontal_state_directions(v, q):
                vp = v + eps * dv
                vp /= np.linalg.norm(vp)
                qp = q + eps * dq
                qp /= np.linalg.norm(qp)
                dz = (bridge.phi(vp, qp) - z).scale(1.0 / eps)
                assert omega_horizontality_residual(z, dz) <= 1e-6

    def test_point_check_at_first_axis(self):
        # at (e1, 1) the plane solves dw1 = dv1 = 2dv2 - dw3 = 2dv3 + dw2 = 0
        dirs = bridge.horizontal_state_directions(EX, QUAT_ONE)
        span = []
        for dv, dq in dirs:
            ds, dw = dq[0], dq[1:]
            assert ds == pytest.approx(0.0, abs=1e-15)
            assert dw[0] == pytest.approx(0.0, abs=1e-15)
            assert dv[0] == pytest.approx(0.0, abs=1e-15)
            assert 2 * dv[1] - dw[2] == pytest.approx(0.0, abs=1e-15)
            assert 2 * dv[2] + dw[1] == pytest.approx(0.0, abs=1e-15)
            span.append(np.concatenate([dv, dq]))
        assert np.linalg.matrix_rank(np.array(span)) == 2

    def test_edge_transport_matches_rolling(self):
        # transporting a state along a horizontal chart edge multiplies the
        # quaternion by the rolling edge factor
        rng = np.random.default_rng(6)
        for _ in range(20):
            v1, q1 = rand_state(rng)
            v2 = rng.standard_normal(3)
            v2 /= np.linalg.norm(v2)
            mu = rolling.edge_monodromy(v1, v2, 3.0)
            q2 = quat_mul(mu, q1)
            z1 = bridge.phi(v1, q1)
            z2 = bridge.phi(v2, q2)
            try:
                p1 = bridge.iota_inv(z1)
                p2 = bridge.iota_inv(z2)
            except NonGeneric:
                continue
            assert dancing.horizontal_residual(p1, p2) <= 1e-9


class TestPipeline:
    def octant_twice(self):
        return [EX, EY, EZ, EX, EY, EZ]

    def test_forward_rejects_nontrivial_monodromy(self):
        with pytest.raises(NontrivialMonodromy):
            bridge.pipeline_forward([EX, EY, EZ], QUAT_ONE)

    def test_forward_rejects_nongeneric_start(self):
        # q = 1 puts every vertex on the x = 0 hyperplane: each edge factor
        # is -1, so the states alternate +-1 and Re(v s) = 0 at every vertex
        classes = self.octant_twice()
        states = [QUAT_ONE]
        for i in range(len(classes) - 1):
            mu = rolling.projective_edge_monodromy(classes[i], classes[i + 1])
            states.append(quat_mul(mu, states[-1]))
        for v, s in zip(classes, states):
            with pytest.raises(NonGeneric):
                bridge.iota_inv(bridge.phi(v, s))
        # so the bridge reads the states in a chart other than the identity
        pair = bridge.pipeline_forward(classes, QUAT_ONE)
        assert quat_distance(pair.chart, QUAT_ONE) > 0.1

    def test_forward_generic_start(self):
        q = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        pair = bridge.pipeline_forward(self.octant_twice(), q)
        assert len(pair) == 6 and pair.closed
        for i in pair.vertex_indices():
            assert abs(dancing.dancing_residual(pair, i)) <= 1e-9
        assert dancing.is_nondegenerate(pair)

    def test_roundtrip_forward_inverse(self):
        rng = np.random.default_rng(7)
        q = rng.standard_normal(4)
        q /= np.linalg.norm(q)
        classes = self.octant_twice()
        pair = bridge.pipeline_forward(classes, q)
        lift = bridge.pipeline_inverse(pair)
        assert quat_distance(lift.start_quaternion, q) <= 1e-8
        for c, v in zip(lift.classes, classes):
            assert proj_distance(c, v) <= 1e-8

    def test_roundtrip_inverse_forward(self):
        q = np.array([2.0, 1.0, -1.0, 0.5])
        q /= np.linalg.norm(q)
        pair = bridge.pipeline_forward(self.octant_twice(), q)
        lift = bridge.pipeline_inverse(pair)
        pair2 = bridge.pipeline_forward(lift.reps, lift.start_quaternion)
        for a1, a2 in zip(pair.A, pair2.A):
            assert proj_distance(a1, a2) <= 1e-8
        for b1, b2 in zip(pair.b, pair2.b):
            assert proj_distance(b1, b2) <= 1e-8

    def test_regular_polygon_transport(self):
        # a solved regular polygon has trivial lifted monodromy, so it
        # transports for generic q
        phi = rolling.solve_phi(6, 2, 4)
        poly = rolling.regular_polygon(6, 2, phi)
        q = np.array([1.0, 0.3, -0.2, 0.8])
        q /= np.linalg.norm(q)
        pair = bridge.pipeline_forward(poly.vertices, q)
        for i in pair.vertex_indices():
            assert abs(dancing.dancing_residual(pair, i)) <= 1e-8
        lift = bridge.pipeline_inverse(pair)
        assert quat_distance(lift.start_quaternion, q) <= 1e-8


class TestChartScore:
    def unit_start_polygons(self):
        for row in rolling.enumerate_admissible(16):
            yield rolling.regular_polygon(row["n"], row["w"], row["phi"]).vertices
        yield [EX, EY, EZ] * 2

    def vertex_states(self, classes):
        reps = [normalize_rep(c) for c in classes]
        states = [QUAT_ONE]
        for i in range(len(reps) - 1):
            mu = rolling.projective_edge_monodromy(reps[i], reps[i + 1])
            states.append(quat_mul(mu, states[-1]))
        return reps, states

    def test_batched_margins_and_unit_start_roundtrip(self):
        # q = 1 puts vertex states on x = 0 for every polygon here, so each
        # takes the chart search; the one-product score must agree with the
        # margins of the octonions phi builds, and the chosen chart must
        # attain the largest least margin
        for classes in self.unit_start_polygons():
            reps, states = self.vertex_states(classes)
            candidates = bridge._chart_candidates(len(reps))
            batched = bridge._chart_margins(reps, states, candidates)
            direct = np.array([[bridge._chart_margin(bridge.phi(v, quat_mul(s, r)))
                                for r in candidates]
                               for v, s in zip(reps, states)])
            assert direct[:, 0].min() < bridge.GENERIC_MARGIN
            assert np.abs(batched - direct).max() <= 1e-12
            pair = bridge.pipeline_forward(classes, QUAT_ONE)
            chosen = min(bridge._chart_margin(bridge.phi(v, quat_mul(s, pair.chart)))
                         for v, s in zip(reps, states))
            assert chosen >= direct.min(axis=0).max() - 1e-12
            lift = bridge.pipeline_inverse(pair)
            assert quat_distance(lift.start_quaternion, QUAT_ONE) <= 1e-8


class TestFamilyRoundTrip:
    def polygons(self):
        for row in rolling.enumerate_admissible(16):
            yield rolling.regular_polygon(row["n"], row["w"], row["phi"]).vertices
        yield [EX, EY, EZ] * 2

    def starts(self):
        rng = np.random.default_rng(8)
        yield QUAT_ONE
        for _ in range(2):
            q = rng.standard_normal(4)
            yield q / np.linalg.norm(q)

    def test_roundtrip_recovers_or_refuses(self):
        # the per-edge lift either gives the start and the classes back or
        # raises ClosureFailure; it never returns a worse result silently
        for classes in self.polygons():
            for q in self.starts():
                pair = bridge.pipeline_forward(classes, q)
                try:
                    lift = bridge.pipeline_inverse(pair)
                except ClosureFailure:
                    continue
                s = lift.start_quaternion
                assert min(quat_distance(s, q), quat_distance(s, -q)) <= 1e-8
                for c, v in zip(lift.classes, classes):
                    assert proj_distance(c, v) <= 1e-8

    def test_lift_gives_back_the_chart_rows(self):
        # the forward pair's rows are its points in the x = 1 chart, which
        # the horizontal lift of the pair must give back, row by row
        rng = np.random.default_rng(9)
        rows = rolling.enumerate_admissible(16)
        assert len(rows) == 67
        for row in rows:
            V = rolling.regular_polygon(row["n"], row["w"], row["phi"]).vertices
            pair = bridge.pipeline_forward(V, rng.standard_normal(4))
            poly = dancing.lift_dancing_pair(pair)
            got, want = np.hstack([poly.A, poly.b]), np.hstack([pair.A, pair.b])
            err = np.linalg.norm(got - want, axis=1) / np.linalg.norm(want, axis=1)
            assert err.max() <= 1e-9, row
            lift = bridge.pipeline_inverse(pair)
            n = len(V)
            assert lift.classes.shape == lift.reps.shape == (n, 3)
            assert lift.states.shape == (n, 4)

    @pytest.mark.parametrize("triple, q", [((6, 2, 4), panel_draw(24)),
                                           ((11, 4, 8), np.full(4, 0.5)),
                                           ((15, 4, 8), panel_draw(136))])
    def test_pairs_the_chained_lift_refused(self, triple, q):
        # thin non-degeneracy margins; chaining one vertex onto the next
        # drifted past the old fixed closure thresholds on each
        poly = rolling.regular_polygon(*triple[:2], rolling.solve_phi(*triple))
        lift = bridge.pipeline_inverse(bridge.pipeline_forward(poly.vertices, q))
        assert quat_distance(lift.start_quaternion, q) <= 1e-9
