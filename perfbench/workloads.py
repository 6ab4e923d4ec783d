"""The benchmark's workloads: their inputs, their operations and the checks
of each operation's output.

Every workload builds a fixed list of operations from its seed, and a run
repeats whole passes over that list, so every run does the same work.
An operation fails when the program raises one of its own errors (or,
for `cli`, exits with a code other than 0), or when its output fails a
check of `checks`.  See README.md for why each workload exists.
"""

import contextlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import xml.etree.ElementTree as ET

import numpy as np

import checks
from danceroll import bridge, eulerroll, rolling

N_MAX = 16  # polygons from rolling.enumerate_admissible(N_MAX)
PANEL_SEED = 0  # generator of the fixed start-quaternion panel of `roundtrip`
STARTS_PER_POLYGON = 3
ODE_STEPS_PER_EDGE = 250
CLI_SIZES = (11, 16)  # `cli` takes one seeded admissible polygon of each n
UNIT = np.array([1.0, 0.0, 0.0, 0.0])
OCTANT_TWICE = [np.eye(3)[i % 3] for i in range(6)]


def admissible_polygons():
    """[(label, (n, w, w'), vertices)] for every admissible regular polygon,
    and the time enumerate_admissible took."""
    t0 = time.perf_counter()
    rows = rolling.enumerate_admissible(N_MAX)
    enumerate_s = time.perf_counter() - t0
    polys = []
    for row in rows:
        triple = (row["n"], row["w"], row["wprime"])
        poly = rolling.regular_polygon(row["n"], row["w"], row["phi"])
        polys.append(("%d-%d-%d" % triple, triple, poly))
    return polys, enumerate_s


class ExitCode(Exception):
    """A `cli` child process exited with a code other than 0."""


class Certificates:
    """Worst accuracy figures seen over a run's checked outputs."""

    def __init__(self):
        self.q_error = 0.0
        self.class_error = 0.0
        self.check_residual = 0.0
        self.ode_defect = 0.0
        self.chart_ops = 0

    def round_trip(self, dancing, dq, dc):
        self.check_residual = max(self.check_residual, dancing)
        self.q_error = max(self.q_error, dq)
        self.class_error = max(self.class_error, dc)


class Workload:
    """A fixed list of operations; subclasses define `ops`, `run` and `check`."""

    # op_p50_ms and op_tail_ms are taken over each operation's median over
    # the run's passes, which a slow spell of the machine during one pass
    # does not move.  tail_pct is the highest percentile with ten operations
    # beyond it; see README.md.
    per_op_median = True
    tail_pct = None
    min_passes = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = workdir
        self.cert = Certificates()
        self.enumerate_s = 0.0

    def warm_up(self):
        self.run(self.warm_op)

    def peak_rss_mb(self):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def _order(self, ops):
        order = np.random.default_rng(self.seed).permutation(len(ops))
        return [ops[i] for i in order]


class RoundTrip(Workload):
    """pipeline_forward then pipeline_inverse on every admissible polygon and
    the doubled octant, from each start quaternion of a fixed panel."""

    tail_pct = 95

    def __init__(self, seed, workdir, unit_start=False):
        super().__init__(seed, workdir)
        polys, self.enumerate_s = admissible_polygons()
        polys = [(label, list(p.vertices)) for label, _, p in polys]
        polys.append(("octant-twice", OCTANT_TWICE))
        panel = np.random.default_rng(PANEL_SEED)
        ops = []
        for label, verts in polys:
            if unit_start:
                ops.append((label, verts, UNIT))
                continue
            for _ in range(STARTS_PER_POLYGON):
                q = panel.standard_normal(4)
                ops.append((label, verts, q / np.linalg.norm(q)))
        self.warm_op = ops[-1]
        self.ops = self._order(ops)

    def run(self, op):
        _, verts, q = op
        pair = bridge.pipeline_forward(verts, q)
        return pair, bridge.pipeline_inverse(pair)

    def check(self, op, out):
        _, verts, q = op
        pair, lift = out
        residual = checks.check_pair(pair.A, pair.b)
        dq, dc = checks.check_round_trip(lift.start_quaternion, lift.classes, q, verts)
        self.cert.round_trip(residual, dq, dc)
        self.cert.chart_ops += not np.array_equal(pair.chart, UNIT)


class UnitStart(RoundTrip):
    """The round trip from q = 1, the default of `danceroll dance --q`."""

    tail_pct = 85

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, unit_start=True)


class Ode(Workload):
    """eulerroll.integrate_polygon on every admissible polygon."""

    tail_pct = 85

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        polys, self.enumerate_s = admissible_polygons()
        ops = [(label, p) for label, _, p in polys]
        self.warm_op = ops[0]
        self.ops = self._order(ops)
        self.rk4_steps = ODE_STEPS_PER_EDGE * sum(len(p) for _, p in ops)

    def run(self, op):
        return eulerroll.integrate_polygon(op[1], steps_per_edge=ODE_STEPS_PER_EDGE)

    def check(self, op, out):
        d = checks.check_ode_monodromy(out[1], ODE_STEPS_PER_EDGE)
        self.cert.ode_defect = max(self.cert.ode_defect, d)


class CliResult:
    def __init__(self, code, stdout, stderr, maxrss_kb):
        self.code = code
        self.stdout = stdout
        self.stderr = stderr
        self.maxrss_kb = maxrss_kb


def _parse_quat(text, prefix):
    """The quaternion printed as `prefix[s x y z]` on a line of text."""
    for line in text.splitlines():
        if line.startswith(prefix):
            return np.array([float(c) for c in line[len(prefix):].strip(" []").split()])
    raise checks.CheckFailed("no line starting with %r" % prefix)


class Cli(Workload):
    """The README's commands as `python -m danceroll.cli` child processes,
    one at a time, on one seeded admissible polygon of each size in
    CLI_SIZES, with the default start quaternion q = 1."""

    # A pass holds 12 operations, too few for a tail, so both figures are
    # taken over every timing, and six passes give ten beyond the 85th
    # percentile.
    per_op_median = False
    tail_pct = 85
    min_passes = 6
    COMMANDS = ("solve-regular", "enumerate", "roll", "dance", "undance", "verify")

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        polys, self.enumerate_s = admissible_polygons()
        rng = np.random.default_rng(seed)
        os.makedirs(workdir, exist_ok=True)
        self.env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(bridge.__file__))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.max_child_rss_kb = 0
        self.in_process = False
        self.ops = []
        for n in CLI_SIZES:
            sized = [p for p in polys if p[1][0] == n]
            label, (n, w, wp), poly = sized[int(rng.integers(len(sized)))]
            verts = [list(map(float, v)) for v in poly.vertices]
            files = {k: os.path.join(workdir, "%s.%s" % (label, k))
                     for k in ("poly.json", "pair.json", "pair.svg", "back.json")}
            with open(files["poly.json"], "w") as fh:
                json.dump({"kind": "spherical", "rho": 3.0, "vertices": verts,
                           "closed": True}, fh)
            ctx = (label, (n, w, wp), verts, files)
            self.ops += [
                ("solve-regular", ["solve-regular", str(n), str(w), str(wp), "--json"], ctx),
                ("enumerate", ["enumerate", str(N_MAX), "--json"], ctx),
                ("roll", ["roll", files["poly.json"]], ctx),
                ("dance", ["dance", files["poly.json"], "--out", files["pair.json"],
                           "--svg", files["pair.svg"]], ctx),
                ("undance", ["undance", files["pair.json"], "--out", files["back.json"]], ctx),
                ("verify", ["verify", files["pair.json"]], ctx),
            ]
        self.warm_op = ("solve-regular", ["solve-regular", "6", "2", "4", "--json"], None)

    def child(self, argv):
        """Run one child process to its end; returns its exit code, output and
        peak resident memory."""
        out_path = os.path.join(self.workdir, "child.out")
        err_path = os.path.join(self.workdir, "child.err")
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen([sys.executable] + argv, stdout=out,
                                    stderr=err, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as out, open(err_path) as err:
            return CliResult(proc.returncode, out.read(), err.read(), usage.ru_maxrss)

    def run(self, op):
        if self.in_process:
            res = self.run_in_process(op[1])
        else:
            res = self.child(["-m", "danceroll.cli"] + op[1])
            self.max_child_rss_kb = max(self.max_child_rss_kb, res.maxrss_kb)
        if res.code != 0:
            raise ExitCode("exit code %d: %s" % (res.code, res.stderr.strip()[-200:]))
        return res

    def run_in_process(self, argv):
        """The command run by danceroll.cli.main in this process, for the
        traced run."""
        from danceroll import cli
        out, err = io.StringIO(), io.StringIO()
        code = 0
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                cli.main.main(argv, prog_name="danceroll", standalone_mode=False)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return CliResult(code, out.getvalue(), err.getvalue(), 0)

    def peak_rss_mb(self):
        return self.max_child_rss_kb / 1024.0

    def check(self, op, res):
        command, _, (_, triple, verts, files) = op
        stdout, stderr = res.stdout, res.stderr
        if command == "solve-regular":
            checks.check_solve_regular(json.loads(stdout), *triple)
        elif command == "enumerate":
            checks.check_enumerate(json.loads(stdout), N_MAX)
        elif command == "roll":
            g = _parse_quat(stdout, "monodromy (quat) =")
            d = float(np.linalg.norm(g - UNIT))
            if d > checks.MONODROMY_TOL or "trivial: True" not in stdout:
                raise checks.CheckFailed("roll reports monodromy %s" % g)
        elif command == "dance":
            with open(files["pair.json"]) as fh:
                doc = json.load(fh)
            residual = checks.check_pair(doc["A"], doc["b"])
            self.cert.check_residual = max(self.cert.check_residual, residual)
            self.cert.chart_ops += "chart" in doc
            root = ET.parse(files["pair.svg"]).getroot()
            dots = [c for c in root.iter("{http://www.w3.org/2000/svg}circle")
                    if c.get("r") == "4"]
            if not root.tag.endswith("svg") or len(dots) != len(verts):
                raise checks.CheckFailed("SVG shows %d of %d vertices" % (len(dots), len(verts)))
        elif command == "undance":
            with open(files["back.json"]) as fh:
                back = json.load(fh)["vertices"]
            q = _parse_quat(stderr, "start quaternion")
            dq, dc = checks.check_round_trip(q, back, UNIT, verts)
            self.cert.q_error = max(self.cert.q_error, dq)
            self.cert.class_error = max(self.cert.class_error, dc)
        elif command == "verify":
            if "FAIL" in stdout:
                raise checks.CheckFailed("verify printed FAIL")


WORKLOADS = {"roundtrip": RoundTrip, "unit-start": UnitStart, "ode": Ode, "cli": Cli}


def median_child_ms(workload, argv, runs):
    """Median wall time in ms of a child `python argv`, over several runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        res = workload.child(argv)
        times.append(time.perf_counter() - t0)
        if res.code != 0:
            raise RuntimeError("child %s failed: %s" % (argv, res.stderr[-300:]))
    return 1e3 * statistics.median(times)


def import_times_ms(workload, runs):
    """Median import times from `-X importtime` of `import danceroll.cli`:
    cumulative for numpy and click, self for each danceroll module."""
    samples = {}
    for _ in range(runs):
        res = workload.child(["-X", "importtime", "-c", "import danceroll.cli"])
        for line in res.stderr.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            own, cumulative, name = (f.strip() for f in line[12:].split("|"))
            if not own.isdigit():
                continue
            if name in ("numpy", "click"):
                samples.setdefault(name, []).append(int(cumulative) / 1e3)
            elif name == "danceroll" or name.startswith("danceroll."):
                samples.setdefault(name, []).append(int(own) / 1e3)
    return {name: statistics.median(v) for name, v in samples.items()}


def percentile(values, pct):
    return float(np.percentile(values, pct))


def tail_is_resolved(n_samples, pct):
    """At least ten samples lie beyond the pct-th percentile."""
    return math.floor(n_samples * (100 - pct) / 100.0) >= 10


def op_times(wl, timings):
    """The samples of op_p50_ms and op_tail_ms, from the timings of each
    operation (one list per operation, one entry per pass)."""
    if wl.per_op_median:
        return [statistics.median(t) for t in timings]
    return [dt for t in timings for dt in t]
