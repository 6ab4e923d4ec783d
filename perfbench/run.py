"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload roundtrip --seed 1 --seconds 25 --trace 0

Run from the repository root; BENCHMARK.json gives the full command, which
pins the BLAS thread count.  The program is imported from ./src.  The
last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-layer metrics of a traced run with `--trace 1`.
The line before it records the machine and the run's make-up.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import collections  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(HERE, "_work")
OUTDIR = os.path.join(HERE, "_out")  # the traced runs' full per-function tables
SETUP_REPEATS = 4  # set-up is also timed in this many fresh child processes
INTERPRETER_RUNS = 5  # child runs behind each cli.interpreter_ms / import figure
WALL_LIMIT_S = 120.0  # no new pass starts after this much wall time

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("roundtrip", "unit-start", "ode", "cli"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, warm up, print the set-up time and exit")
    return ap.parse_args(argv)


def load_program():
    """Put ./src first on the import path; exit 2 when it holds no danceroll."""
    if not os.path.isfile(os.path.join(SRC, "danceroll", "__init__.py")):
        print("run.py: no danceroll package under %s; run from a checkout "
              "of the repository" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, SRC)


def set_up(args):
    """Import the program, build the workload's inputs and warm it up."""
    load_program()
    import workloads  # imports numpy and danceroll
    wl = workloads.WORKLOADS[args.workload](
        args.seed, os.path.join(WORKDIR, "%s-%d" % (args.workload, os.getpid())))
    wl.warm_up()
    return workloads, wl


def child_setup_seconds(args):
    """Set-up time of the same workload in fresh processes, one at a time."""
    out = []
    for _ in range(SETUP_REPEATS):
        res = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-only"],
            capture_output=True, text=True, cwd=ROOT, check=True)
        out.append(float(res.stdout.strip().splitlines()[-1]))
    return out


class Run:
    """Whole passes over a workload's operations, each output checked."""

    def __init__(self, workloads, wl):
        self.workloads = workloads
        self.wl = wl
        self.attempted = 0
        self.timings = [[] for _ in wl.ops]  # per operation, one per pass
        self.timed = 0.0
        self.passes = 0
        self.failed = 0
        self.wrong = []
        self.failed_by_class = collections.Counter()

    def one_pass(self):
        from checks import CheckFailed
        from danceroll.errors import DancerollError
        clock = time.perf_counter
        wl = self.wl
        pass_time = 0.0
        for op, timings in zip(wl.ops, self.timings):
            t0 = clock()
            try:
                out = wl.run(op)
                err = None
            except (DancerollError, self.workloads.ExitCode) as exc:
                err = exc
            dt = clock() - t0
            self.attempted += 1
            timings.append(dt)
            pass_time += dt
            if err is None:
                try:
                    wl.check(op, out)
                except CheckFailed as exc:
                    err = exc
                    self.wrong.append("%s: %s" % (op[0], exc))
            if err is not None:
                self.failed += 1
                self.failed_by_class[type(err).__name__] += 1
        self.timed += pass_time
        self.passes += 1
        return pass_time

    def run_for(self, seconds, min_passes):
        """Passes until `seconds` of operation time is reached, to the nearest
        whole pass, and at least `min_passes` of them."""
        while True:
            self.one_pass()
            mean_pass = self.timed / self.passes
            n = len(self.workloads.op_times(self.wl, self.timings))
            done = (self.passes >= min_passes
                    and self.timed + 0.5 * mean_pass >= seconds
                    and self.workloads.tail_is_resolved(n, self.wl.tail_pct))
            if done or time.perf_counter() - T_START > WALL_LIMIT_S:
                return


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, workloads, wl, setup_s):
    run = Run(workloads, wl)
    run.run_for(args.seconds, wl.min_passes)
    setups = [setup_s] + child_setup_seconds(args)
    ms = [1e3 * s for s in workloads.op_times(wl, run.timings)]
    metrics = {
        "ops_per_s": metric(run.attempted / run.timed, "1/s"),
        "op_p50_ms": metric(statistics.median(ms), "ms"),
        "op_tail_ms": metric(workloads.percentile(ms, wl.tail_pct), "ms"),
        "setup_s": metric(statistics.median(setups), "s"),
        "peak_rss_mb": metric(wl.peak_rss_mb(), "MB"),
    }
    info = {"passes": run.passes, "ops_per_pass": len(wl.ops),
            "tail_percentile": wl.tail_pct, "samples": len(ms),
            "per_op_median": wl.per_op_median,
            "setup_samples_s": setups}
    return run, metrics, info


def per_layer(args, workloads, wl, setup_s):
    """The traced run: one untraced pass for reference, then traced passes."""
    import tracing
    if args.workload == "cli":
        wl.in_process = True
        import danceroll.cli  # noqa: F401  (wrapped with the other layers)
    reference = Run(workloads, wl)
    plain_pass = reference.one_pass()
    tracer = tracing.Tracer()
    tracer.install()
    wl.cert = workloads.Certificates()
    run = Run(workloads, wl)
    try:
        while True:
            run.one_pass()
            if run.timed >= args.seconds or time.perf_counter() - T_START > WALL_LIMIT_S:
                break
    finally:
        tracer.uninstall()
    per_command = collections.defaultdict(list)
    for op, timings in zip(wl.ops, run.timings):
        per_command[op[0]] += timings
    ops = run.attempted
    m = {}

    def calls(name):
        m[name + ".calls"] = metric(tracer.stat(name).calls / ops, "calls/op")

    def self_ms(name):
        m[name + ".self_ms"] = metric(1e3 * tracer.stat(name).self_time / ops, "ms/op")

    def mean_ms(name):
        st = tracer.stat(name)
        m[name + ".ms"] = metric(1e3 * st.total / st.calls if st.calls else 0.0, "ms")

    for name in ("geom.cross_ratio", "geom.normalize_rep", "geom.quat_mul",
                 "rolling.projective_edge_monodromy", "dancing.dancing_residual",
                 "bridge.phi", "octonion.oct_form"):
        calls(name)
        self_ms(name)
    for name in ("dancing.lift_dancing_pair", "dancing.nondegeneracy_report",
                 "bridge.pipeline_forward", "bridge.pipeline_inverse",
                 "eulerroll.integrate_arc"):
        self_ms(name)
    calls("bridge.iota_inv")
    calls("bridge.phi_inv")
    m["rolling.enumerate_admissible.ms"] = metric(1e3 * wl.enumerate_s, "ms")
    m["dancing.lift_dancing_pair.failed"] = metric(
        tracer.stat("dancing.lift_dancing_pair").failed / run.passes, "count/pass")
    m["bridge.chart_ops"] = metric(wl.cert.chart_ops / run.passes, "ops/pass")
    arc = tracer.stat("eulerroll.integrate_arc")
    steps = getattr(wl, "rk4_steps", 0) * run.passes
    m["eulerroll.rk4_steps_per_s"] = metric(steps / arc.total if arc.total else 0.0, "1/s")
    for name in ("docio.load_document", "docio.dump_document", "svg.render_pair_svg"):
        mean_ms(name)
    commands = workloads.Cli.COMMANDS
    for command in commands:
        times = per_command.get(command, [])
        m["cli.%s.ms" % command] = metric(
            1e3 * statistics.mean(times) if times else 0.0, "ms")
    imports = {}
    interpreter_ms = import_ms = 0.0
    if args.workload == "cli":
        interpreter_ms = workloads.median_child_ms(wl, ["-c", "pass"], INTERPRETER_RUNS)
        import_ms = workloads.median_child_ms(
            wl, ["-c", "import danceroll.cli"], INTERPRETER_RUNS) - interpreter_ms
        imports = workloads.import_times_ms(wl, INTERPRETER_RUNS)
    m["cli.interpreter_ms"] = metric(interpreter_ms, "ms")
    m["cli.import_ms"] = metric(import_ms, "ms")
    for name in ["numpy", "click", "danceroll"] + [
            "danceroll." + layer for layer in
            ("errors", "geom", "dancing", "octonion", "rolling", "bridge",
             "docio", "eulerroll", "g2", "svg", "cli")]:
        m["cli.import.%s_ms" % name] = metric(imports.get(name, 0.0), "ms")
    m["bridge.q_error.max"] = metric(wl.cert.q_error, "1")
    m["bridge.class_error.max"] = metric(wl.cert.class_error, "1")
    m["dancing.check_residual.max"] = metric(wl.cert.check_residual, "1")
    m["eulerroll.defect.max"] = metric(wl.cert.ode_defect, "1")
    m["trace.overhead_ratio"] = metric(
        (run.timed / run.passes) / plain_pass if plain_pass else 0.0, "ratio")
    info = {"passes": run.passes, "ops_per_pass": len(wl.ops),
            "untraced_pass_s": plain_pass, "traced_pass_s": run.timed / run.passes,
            "layers": {name: {"calls": st.calls, "failed": st.failed,
                              "total_ms": 1e3 * st.total, "self_ms": 1e3 * st.self_time}
                       for name, st in sorted(tracer.stats.items()) if st.calls}}
    os.makedirs(OUTDIR, exist_ok=True)
    with open(os.path.join(OUTDIR, "trace-%s-%d.json" % (args.workload, args.seed)), "w") as fh:
        json.dump({"metrics": m, "info": info}, fh, indent=1)
    return run, m, info


def main(argv=None):
    args = parse_args(argv)
    workloads, wl = set_up(args)
    setup_s = time.perf_counter() - T_START
    try:
        if args.setup_only:
            print(repr(setup_s))
            return 0
        measure = per_layer if args.trace else end_to_end
        run, metrics, info = measure(args, workloads, wl, setup_s)
    finally:
        shutil.rmtree(wl.workdir, ignore_errors=True)
    import numpy
    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "failed_by_class": dict(run.failed_by_class), "wrong_outputs": run.wrong[:10],
    })
    print(json.dumps({"info": info}))
    print(json.dumps({"correct": not run.wrong, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
