"""Command-line driver.

Subcommands:

    solve-regular N W WPRIME   closure colatitude for a regular polygon
    enumerate N_MAX            all admissible regular-polygon triples
    roll FILE                  monodromy of a spherical polygon
    dance FILE                 spherical polygon -> dancing pair
    undance FILE               dancing pair -> spherical polygon + quaternion
    verify FILE                residual report for a dancing-pair file
"""

import json
import sys

import click
import numpy as np

from . import bridge, docio, eulerroll, rolling, svg
from .dancing import (NONDEG_DET, dancing_residual, inscribed_residual,
                      nondegeneracy_report)
from .errors import (
    ClosureFailure,
    DancerollError,
    DegenerateConfiguration,
    NonGeneric,
    NontrivialMonodromy,
    NotDancing,
    NotInscribed,
)
from .geom import quat_distance

# The exit code and message of each failure that dance and undance report.
EXIT_CODES = {
    NontrivialMonodromy: (2, "nontrivial monodromy"),
    NonGeneric: (4, "non-generic configuration"),
    DegenerateConfiguration: (4, "non-generic configuration"),
    ClosureFailure: (5, "pair does not lift back"),
    NotDancing: (5, "pair does not lift back"),
    NotInscribed: (5, "pair does not lift back"),
}


@click.group()
def main():
    """Dancing pairs, rolling monodromy and the null-quadric bridge."""


def _fmt_quat(q):
    return "[% .12f % .12f % .12f % .12f]" % tuple(q)


def _checked(fn, *args):
    """fn(*args); a ValueError (malformed or too small an input, or a bad
    option value) ends the command with a one-line error and exit code 1."""
    try:
        return fn(*args)
    except ValueError as exc:
        raise click.ClickException(str(exc))


def _load(path, convert):
    return _checked(lambda: convert(docio.load_document(path)))


def _exit_on_failure(exc):
    code, what = EXIT_CODES[type(exc)]
    click.echo("%s (%s): %s" % (what, type(exc).__name__, exc), err=True)
    sys.exit(code)


@main.command("solve-regular")
@click.argument("n", type=int)
@click.argument("w", type=int)
@click.argument("wprime", type=int)
@click.option("--tol", type=float, default=1e-10, show_default=True)
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cmd_solve_regular(n, w, wprime, tol, as_json):
    """Solve for the colatitude giving trivial lifted monodromy."""
    tol = _checked(docio.check_tol, tol)
    try:
        phi = rolling.solve_phi(n, w, wprime)
    except DancerollError as exc:
        raise click.ClickException(str(exc))
    if phi is None:
        if as_json:
            click.echo(json.dumps({"n": n, "w": w, "wprime": wprime, "phi": None}))
        else:
            click.echo("none")
        sys.exit(2)
    poly = rolling.regular_polygon(n, w, phi)
    report = rolling.polygon_monodromy(poly, tol=tol)
    traced_cos = rolling.traced_turning_cos(n, w, phi)
    traced_defect = abs(traced_cos - np.cos(np.pi * wprime / n))
    if as_json:
        click.echo(json.dumps({
            "n": n, "w": w, "wprime": wprime, "phi": phi,
            "vertices": poly.vertices.tolist(),
            "monodromy": [float(c) for c in report.g],
            "trivial": bool(report.trivial),
            "traced_turning_defect": traced_defect,
        }))
    else:
        click.echo("phi = %.12f" % phi)
        for i, v in enumerate(poly.vertices):
            click.echo("  v%d = [% .9f % .9f % .9f]" % ((i,) + tuple(v)))
        click.echo("monodromy = %s  trivial: %s" % (_fmt_quat(report.g), report.trivial))
        click.echo("traced polygon winding w' = %d (cosine defect %.3g)"
                   % (wprime, traced_defect))
    if not report.trivial:
        raise click.ClickException("monodromy of the solved polygon is not trivial")


@main.command("enumerate")
@click.argument("n_max", type=int)
@click.option("--json", "as_json", is_flag=True, help="machine-readable output")
def cmd_enumerate(n_max, as_json):
    """List admissible (n, w, w') triples up to N_MAX."""
    rows = rolling.enumerate_admissible(n_max)
    if as_json:
        click.echo(json.dumps(rows))
        return
    if not rows:
        click.echo("no admissible triples for n <= %d" % n_max)
        return
    for row in rows:
        click.echo("n=%2d w=%2d w'=%2d phi=%.9f%s"
                   % (row["n"], row["w"], row["wprime"], row["phi"],
                      "  (minimal)" if row["minimal"] else ""))


@main.command("roll")
@click.argument("polygon_file", type=click.Path(exists=True))
@click.option("--rho", type=float, default=None, help="override the file's ratio")
@click.option("--method", type=click.Choice(["quat", "ode"]), default="quat",
              show_default=True)
@click.option("--verify", is_flag=True, help="cross-check both methods")
@click.option("--steps", type=int, default=10000, show_default=True,
              help="integration steps per edge for the ode method")
@click.option("--tol", type=float, default=1e-5, show_default=True,
              help="method agreement tolerance with --verify")
def cmd_roll(polygon_file, rho, method, verify, steps, tol):
    """Rolling monodromy of a closed spherical polygon."""
    tol = _checked(docio.check_tol, tol)
    poly = _load(polygon_file, docio.doc_to_polygon)
    if rho is not None:
        poly.rho = _checked(docio.check_rho, rho)
    det_margin, sine_margin = poly.nondegeneracy_margin()
    if sine_margin <= 1e-9:
        click.echo("degenerate polygon: an edge has parallel endpoints", err=True)
        sys.exit(2)
    report = rolling.polygon_monodromy(poly)
    g_ode = None
    if method == "ode" or verify:
        _, g_ode = _checked(eulerroll.integrate_polygon, poly, steps)
    g = g_ode if method == "ode" else report.g
    click.echo("monodromy (%s) = %s" % (method, _fmt_quat(g)))
    click.echo("trivial: %s   projectively trivial: %s"
               % (report.trivial, report.projectively_trivial))
    for i, f in enumerate(report.factors):
        click.echo("  edge %d factor %s" % (i, _fmt_quat(f)))
    if verify:
        d = quat_distance(report.g, g_ode)
        click.echo("method agreement |quat - ode| = %.3g" % d)
        if d > tol:
            click.echo("methods disagree beyond tolerance", err=True)
            sys.exit(3)


@main.command("dance")
@click.argument("polygon_file", type=click.Path(exists=True))
@click.option("--q", "q_text", default="1,0,0,0", show_default=True,
              help="start quaternion s,x,y,z")
@click.option("--out", type=click.Path(), default=None,
              help="write the dancing-pair JSON here instead of stdout")
@click.option("--svg", "svg_path", type=click.Path(), default=None,
              help="also draw the pair to this SVG file")
@click.option("--chart", type=click.Choice(["x", "y", "z"]), default="z",
              show_default=True, help="affine chart for the SVG")
@click.option("--tol", type=float, default=1e-8, show_default=True)
def cmd_dance(polygon_file, q_text, out, svg_path, chart, tol):
    """Transport a trivial-monodromy spherical polygon to a dancing pair.

    Exits 2 on nontrivial monodromy, 4 on a non-generic configuration and
    5 when the transported pair fails the dancing condition."""
    tol = _checked(docio.check_tol, tol)
    poly = _load(polygon_file, docio.doc_to_polygon)
    q = _checked(docio.parse_quaternion, q_text)
    try:
        pair = _checked(bridge.pipeline_forward, poly.vertices, q, tol)
    except tuple(EXIT_CODES) as exc:
        _exit_on_failure(exc)
    doc = docio.pair_to_doc(pair, metadata={"tolerance": tol,
                                            "q": [float(c) for c in q]})
    text = docio.dump_document(doc, out)
    if out is None:
        click.echo(text)
    for i in pair.vertex_indices():
        click.echo("vertex %d dancing residual %.3g"
                   % (i, abs(dancing_residual(pair, i))), err=True)
    if svg_path is not None:
        with open(svg_path, "w") as fh:
            fh.write(svg.render_pair_svg(pair, chart=chart))


@main.command("undance")
@click.argument("pair_file", type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None,
              help="write the spherical JSON here instead of stdout")
@click.option("--tol", type=float, default=1e-8, show_default=True)
def cmd_undance(pair_file, out, tol):
    """Transport a closed dancing pair back to a spherical polygon.

    Exits 2 on nontrivial monodromy, 4 on a non-generic configuration and
    5 when the pair does not lift back to a closed horizontal polygon."""
    tol = _checked(docio.check_tol, tol)
    pair = _load(pair_file, docio.doc_to_pair)
    try:
        lift = _checked(bridge.pipeline_inverse, pair, tol)
    except tuple(EXIT_CODES) as exc:
        _exit_on_failure(exc)
    poly = rolling.SphericalPolygon(lift.classes, closed=True, rho=3.0)
    doc = docio.polygon_to_doc(poly, metadata={"tolerance": tol})
    text = docio.dump_document(doc, out)
    if out is None:
        click.echo(text)
    click.echo("start quaternion %s" % _fmt_quat(lift.start_quaternion), err=True)


@main.command("verify")
@click.argument("pair_file", type=click.Path(exists=True))
@click.option("--tol", type=float, default=1e-6, show_default=True)
def cmd_verify(pair_file, tol):
    """Check the dancing condition and genericity of a dancing-pair file."""
    tol = _checked(docio.check_tol, tol)
    pair = _load(pair_file, docio.doc_to_pair)
    failed = []
    for i in pair.vertex_indices():
        try:
            r = abs(dancing_residual(pair, i))
        except DancerollError as exc:
            click.echo("vertex %d: degenerate (%s)" % (i, exc))
            failed.append(i)
            continue
        ok = r <= tol
        click.echo("vertex %d: dancing residual %.3g  %s"
                   % (i, r, "ok" if ok else "FAIL"))
        if not ok:
            failed.append(i)
    for i in pair.edge_indices():
        try:
            r = inscribed_residual(pair, i)
        except DegenerateConfiguration as exc:
            click.echo("edge %d: degenerate (%s)" % (i, exc))
            failed.append(i)
            continue
        ok = r <= max(tol, 1e-8)
        click.echo("edge %d: inscribed residual %.3g  %s"
                   % (i, r, "ok" if ok else "FAIL"))
        if not ok:
            failed.append(i)
    off_edge, tri_v, tri_b = nondegeneracy_report(pair)
    m = min([1.0] + tri_v + tri_b + off_edge)
    ok = m > NONDEG_DET
    click.echo("non-degeneracy margin %.3g  %s" % (m, "ok" if ok else "FAIL"))
    if not ok:
        failed.append(-1)
    if failed:
        click.echo("verification failed at indices %s" % sorted(set(failed)), err=True)
        sys.exit(1)


if __name__ == "__main__":
    main()
