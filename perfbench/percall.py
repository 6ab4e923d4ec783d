"""Per-call times of each layer's kernels, the table of ROADMAP item 1.

    env OPENBLAS_NUM_THREADS=1 python3 perfbench/percall.py

Each call is timed with time.perf_counter over repeated runs and the
minimum is kept.  The hexagon is the doubled octant with start quaternion
(1, 1, 1, 1)/2.  Prints a markdown table.
"""

import os
import subprocess
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path.insert(0, SRC)

from danceroll import bridge, dancing, eulerroll, g2, geom, octonion, rolling  # noqa: E402


def best(fn, repeat=7, number=None):
    """Minimum time per call in seconds; `number` calls per repeat, chosen
    so that a repeat takes about 50 ms when not given."""
    if number is None:
        t0 = time.perf_counter()
        fn()
        once = time.perf_counter() - t0
        number = max(1, int(0.05 / max(once, 1e-7)))
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        times.append((time.perf_counter() - t0) / number)
    return min(times)


def child_s(argv, repeat=5):
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        subprocess.run([sys.executable] + argv, env=env, check=True, capture_output=True)
        times.append(time.perf_counter() - t0)
    return min(times)


def fmt(s):
    if s >= 0.1:
        return "%.2f s" % s
    if s >= 1e-3:
        return "%.2f ms" % (1e3 * s)
    return "%.1f µs" % (1e6 * s)


def main():
    ex, ey, ez = np.eye(3)
    hexagon = [ex, ey, ez, ex, ey, ez]
    q = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
    pair = bridge.pipeline_forward(hexagon, q)
    p, r = np.array([0.2, 0.5, 0.1, 0.9]), np.array([0.7, -0.1, 0.3, 0.2])
    a1, a2 = np.array([1.0, 2.0, 0.5]), np.array([-0.3, 0.4, 1.0])
    collinear = [a1, a2, a1 + 2 * a2, 3 * a1 - a2]
    v2 = np.array([0.3, 0.8, 0.52]) / np.linalg.norm([0.3, 0.8, 0.52])
    z = bridge.phi(ex, q)
    gp = g2.g2_basis()[9]
    rows = [
        ("geom", "quat_mul", lambda: geom.quat_mul(p, r)),
        ("geom", "cross_ratio", lambda: geom.cross_ratio(*collinear)),
        ("rolling", "edge_monodromy", lambda: rolling.edge_monodromy(ex, v2)),
        ("rolling", "enumerate_admissible(12)", lambda: rolling.enumerate_admissible(12)),
        ("eulerroll", "solve_euler_rates",
         lambda: eulerroll.solve_euler_rates(0.1, 0.2, [0.6, 0.0, 0.8], [0.0, 1.0, 0.0])),
        ("eulerroll", "integrate_roll, 10k steps",
         lambda: eulerroll.integrate_roll(ex, v2, steps=10000)),
        ("dancing", "dancing_residual", lambda: dancing.dancing_residual(pair, 0)),
        ("dancing", "lift_dancing_pair (hexagon)", lambda: dancing.lift_dancing_pair(pair)),
        ("dancing", "random_dancing_chain(8)", lambda: dancing.random_dancing_chain(8, seed=0)),
        ("bridge", "pipeline_forward (hexagon)", lambda: bridge.pipeline_forward(hexagon, q)),
        ("bridge", "pipeline_inverse (hexagon)", lambda: bridge.pipeline_inverse(pair)),
        ("bridge", "pipeline_forward (hexagon, q = 1)",
         lambda: bridge.pipeline_forward(hexagon, geom.QUAT_ONE)),
        ("octonion", "oct_mul", lambda: octonion.oct_mul(z, z)),
        ("octonion", "annihilator_basis", lambda: octonion.annihilator_basis(z)),
        ("g2", "rho_matrix", lambda: g2.rho_matrix(gp)),
    ]
    print("| layer | call | time |")
    print("|---|---|---|")
    for layer, call, fn in rows:
        repeat = 3 if "10k" in call else 7
        print("| %s | `%s` | %s |" % (layer, call, fmt(best(fn, repeat=repeat))), flush=True)
    print("| end-to-end | `python -c pass` | %s |" % fmt(child_s(["-c", "pass"])))
    print("| end-to-end | `python -c 'import danceroll.cli'` | %s |"
          % fmt(child_s(["-c", "import danceroll.cli"])))
    print("| end-to-end | `danceroll solve-regular 6 2 4` | %s |"
          % fmt(child_s(["-m", "danceroll.cli", "solve-regular", "6", "2", "4"])))


if __name__ == "__main__":
    main()
