"""Each output check of the benchmark accepts the program's output and
rejects the same output perturbed by 1e-6.

    python3 -m pytest perfbench -q
"""

import math
import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
from checks import CheckFailed  # noqa: E402
from danceroll import bridge, eulerroll, rolling  # noqa: E402

NUDGE = 1e-6
UNIT = np.array([1.0, 0.0, 0.0, 0.0])
Q = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0


def nudged(rows, i, direction=(0.3, -0.5, 0.8)):
    rows = [np.array(r, dtype=float) for r in rows]
    rows[i] = rows[i] + NUDGE * np.linalg.norm(rows[i]) * np.asarray(direction)
    return rows


TRIPLE = (16, 5, 11)


@pytest.fixture(scope="module")
def polygon():
    return rolling.regular_polygon(TRIPLE[0], TRIPLE[1], rolling.solve_phi(*TRIPLE))


@pytest.fixture(scope="module")
def round_trip(polygon):
    pair = bridge.pipeline_forward(polygon.vertices, Q)
    return pair, bridge.pipeline_inverse(pair)


def test_cross_ratio_is_k_of_the_normal_form():
    rng = np.random.default_rng(5)
    p1, p2 = rng.standard_normal(3), rng.standard_normal(3)
    a, b, c, d = rng.uniform(0.5, 2.0, 4)
    # p3 = p1' + p2' and p4 = k p1' + p2' for p1' = a p1, p2' = b p2
    k = checks.cross_ratio([p1], [p2], [a * p1 + b * p2], [c * p1 + d * p2],
                           [np.cross(p1, p2)])[0]
    assert k == pytest.approx((c / a) / (d / b), rel=1e-12)


def test_pair_checks_accept_the_program_output(round_trip):
    pair, _ = round_trip
    assert checks.check_pair(pair.A, pair.b) <= checks.DANCING_REL_TOL
    assert checks.check_inscribed(pair.A, pair.b) <= checks.INSCRIBED_TOL


@pytest.mark.parametrize("i", [0, 5])
def test_dancing_check_rejects_a_nudged_vertex(round_trip, i):
    pair, _ = round_trip
    with pytest.raises(CheckFailed, match="dancing"):
        checks.check_dancing(nudged(pair.A, i), pair.b)


@pytest.mark.parametrize("i", [0, 7])
def test_inscribed_check_rejects_a_nudged_edge(round_trip, i):
    pair, _ = round_trip
    with pytest.raises(CheckFailed, match="inscribed"):
        checks.check_inscribed(pair.A, nudged(pair.b, i))
    with pytest.raises(CheckFailed):
        checks.check_pair(pair.A, nudged(pair.b, i))


def test_round_trip_check_accepts_the_program_output(polygon, round_trip):
    _, lift = round_trip
    dq, dc = checks.check_round_trip(lift.start_quaternion, lift.classes, Q,
                                     polygon.vertices)
    assert dq <= checks.Q_RECOVERY_TOL and dc <= checks.CLASS_RECOVERY_TOL


def test_round_trip_check_rejects_a_quaternion_off_by_1e_6(polygon, round_trip):
    _, lift = round_trip
    q = lift.start_quaternion + NUDGE * np.array([0.0, 1.0, 0.0, 0.0])
    with pytest.raises(CheckFailed, match="quaternion"):
        checks.check_round_trip(q, lift.classes, Q, polygon.vertices)


def test_round_trip_check_rejects_a_nudged_class(polygon, round_trip):
    _, lift = round_trip
    with pytest.raises(CheckFailed, match="classes"):
        checks.check_round_trip(lift.start_quaternion, nudged(lift.classes, 3), Q,
                                polygon.vertices)


def test_undance_check_wants_q_equal_to_one(polygon):
    checks.check_round_trip(UNIT, polygon.vertices, UNIT, polygon.vertices)
    with pytest.raises(CheckFailed, match="quaternion"):
        checks.check_round_trip(-UNIT, polygon.vertices, UNIT, polygon.vertices)


def test_monodromy_check_rejects_a_nudged_vertex(polygon):
    assert checks.check_trivial_monodromy(polygon.vertices) <= checks.MONODROMY_TOL
    with pytest.raises(CheckFailed, match="monodromy"):
        checks.check_trivial_monodromy(nudged(polygon.vertices, 2))


def test_monodromy_check_rejects_the_single_octant():
    # rolling once around the octant gives -1, twice gives +1
    octant = list(np.eye(3))
    checks.check_trivial_monodromy(octant * 2)
    with pytest.raises(CheckFailed):
        checks.check_trivial_monodromy(octant)


def test_ode_check_scales_as_h4_and_rejects_1e_6(polygon):
    steps = 250
    _, q = eulerroll.integrate_polygon(polygon, steps_per_edge=steps)
    assert checks.check_ode_monodromy(q, steps) <= checks.ode_defect_tol(steps)
    assert checks.ode_defect_tol(2 * steps) == pytest.approx(checks.ode_defect_tol(steps) / 16)
    with pytest.raises(CheckFailed, match="ODE"):
        checks.check_ode_monodromy(q + NUDGE * np.array([0.0, 0.0, 1.0, 0.0]), steps)
    with pytest.raises(CheckFailed):
        checks.check_ode_monodromy(-q, steps)


def test_solve_regular_check_rejects_a_nudged_colatitude(polygon):
    n, w, wp = TRIPLE
    phi = rolling.solve_phi(n, w, wp)
    doc = {"n": n, "w": w, "wprime": wp, "phi": phi, "trivial": True,
           "vertices": [list(v) for v in polygon.vertices]}
    checks.check_solve_regular(doc, n, w, wp)
    with pytest.raises(CheckFailed, match="closure"):
        checks.check_solve_regular(dict(doc, phi=phi + NUDGE), n, w, wp)
    with pytest.raises(CheckFailed):
        checks.check_solve_regular(dict(doc, vertices=[list(v) for v in nudged(
            polygon.vertices, 1)]), n, w, wp)


def test_enumerate_check_wants_every_n_from_6_and_none_below():
    rows = rolling.enumerate_admissible(16)
    assert checks.check_enumerate(rows, 16) == len(rows)
    with pytest.raises(CheckFailed, match="lists n"):
        checks.check_enumerate([r for r in rows if r["n"] != 11], 16)
    a = math.pi / 5
    # (5, 1, 3) is in range and of the right parity but has no solution
    with pytest.raises(CheckFailed):
        checks.check_enumerate(rows + [{"n": 5, "w": 1, "wprime": 3, "phi": a}], 16)
    bad = dict(rows[0], phi=rows[0]["phi"] + NUDGE)
    with pytest.raises(CheckFailed, match="closure"):
        checks.check_enumerate([bad] + rows[1:], 16)
