import json
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

import danceroll
from danceroll import bridge, dancing, docio, rolling, svg
from danceroll.cli import main

EX, EY, EZ = np.eye(3)


def octant_doc(times=1):
    return {"kind": "spherical", "rho": 3,
            "vertices": [[1, 0, 0], [0, 1, 0], [0, 0, 1]] * times,
            "closed": True}


@pytest.fixture
def runner():
    return CliRunner()


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestDocio:
    def test_spherical_roundtrip(self):
        poly = rolling.regular_polygon(6, 2, 0.955316618124509)
        doc = docio.polygon_to_doc(poly, metadata={"seed": 1})
        text = docio.dump_document(doc)
        poly2 = docio.doc_to_polygon(json.loads(text))
        assert all(np.allclose(a, b) for a, b in zip(poly.vertices,
                                                     poly2.vertices))
        assert poly2.rho == poly.rho and poly2.closed
        # bit-identical re-serialization
        assert docio.dump_document(docio.polygon_to_doc(poly2,
                                                        metadata={"seed": 1})) == text

    def test_pair_roundtrip(self):
        pair = dancing.random_dancing_chain(5, seed=1)
        doc = docio.pair_to_doc(pair)
        pair2 = docio.doc_to_pair(json.loads(docio.dump_document(doc)))
        assert all(np.allclose(a, b) for a, b in zip(pair.A, pair2.A))
        assert all(np.allclose(a, b) for a, b in zip(pair.b, pair2.b))

    def test_horizontal_roundtrip(self):
        hp = dancing.random_horizontal_chain(4, seed=2)
        doc = docio.horizontal_to_doc(hp)
        hp2 = docio.doc_to_horizontal(json.loads(docio.dump_document(doc)))
        for p, q in zip(hp.points, hp2.points):
            assert p.distance(q) <= 1e-15

    def test_schema_validation(self):
        with pytest.raises(docio.DocumentError):
            docio.doc_to_polygon({"kind": "spherical", "vertices": [[1, 0]]})
        with pytest.raises(docio.DocumentError):
            docio.doc_to_pair({"kind": "dancing-pair", "A": [[1, 0, 0]],
                               "b": []})

    def test_pair_chart(self):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        plain = docio.pair_to_doc(bridge.pipeline_forward([EX, EY, EZ] * 2, q))
        assert "chart" not in plain
        pair = bridge.pipeline_forward([EX, EY, EZ] * 2, [1, 0, 0, 0])
        doc = json.loads(docio.dump_document(docio.pair_to_doc(pair)))
        assert np.array_equal(docio.doc_to_pair(doc).chart, pair.chart)
        for bad in ([1, 0, 0], [2, 0, 0, 0], [float("nan"), 0, 0, 1],
                    [True, 0, 0, 0], "1,0,0,0"):
            with pytest.raises(docio.DocumentError):
                docio.doc_to_pair(dict(doc, chart=bad))

    def test_parse_quaternion(self):
        q = docio.parse_quaternion("1,0,0,0")
        assert np.allclose(q, [1, 0, 0, 0])
        with pytest.warns(UserWarning):
            q = docio.parse_quaternion("2,0,0,0")
        assert np.allclose(q, [1, 0, 0, 0])
        with pytest.raises(docio.DocumentError):
            docio.parse_quaternion("1,2,3")
        for bad in ("1,x,0,0", "nan,0,0,0", "1,inf,0,0", "0,0,0,0", ""):
            with pytest.raises(docio.DocumentError):
                docio.parse_quaternion(bad)


class TestSolveRegular:
    def test_solution(self, runner):
        res = runner.invoke(main, ["solve-regular", "6", "2", "4"])
        assert res.exit_code == 0
        assert "0.955316618" in res.output

    def test_no_solution_exits_2(self, runner):
        res = runner.invoke(main, ["solve-regular", "5", "2", "4"])
        assert res.exit_code == 2
        assert "none" in res.output

    def test_exists(self, runner):
        res = runner.invoke(main, ["solve-regular", "8", "3", "5"])
        assert res.exit_code == 0

    def test_json_output(self, runner):
        res = runner.invoke(main, ["solve-regular", "6", "2", "4", "--json"])
        data = json.loads(res.output)
        assert data["trivial"] is True
        assert np.sin(data["phi"]) ** 2 == pytest.approx(2 / 3, abs=1e-12)


class TestEnumerate:
    def test_twelve(self, runner):
        res = runner.invoke(main, ["enumerate", "12", "--json"])
        rows = json.loads(res.output)
        minimal = sorted((r["n"], r["w"], r["wprime"]) for r in rows
                         if r["minimal"])
        assert minimal == [(6, 2, 4), (8, 3, 5), (9, 3, 7), (10, 4, 6),
                           (11, 4, 8), (12, 4, 10), (12, 5, 7)]

    def test_empty(self, runner):
        res = runner.invoke(main, ["enumerate", "5", "--json"])
        assert json.loads(res.output) == []


class TestRoll:
    def test_octant(self, runner, tmp_path):
        path = write(tmp_path, "oct.json", octant_doc())
        res = runner.invoke(main, ["roll", path])
        assert res.exit_code == 0
        assert "-1.0" in res.output and "projectively trivial: True" in res.output

    def test_octant_twice(self, runner, tmp_path):
        path = write(tmp_path, "oct2.json", octant_doc(2))
        res = runner.invoke(main, ["roll", path])
        assert res.exit_code == 0
        assert "trivial: True" in res.output

    def test_degenerate_exits_2(self, runner, tmp_path):
        doc = {"kind": "spherical", "rho": 3, "closed": True,
               "vertices": [[1, 0, 0], [1, 0, 0], [0, 0, 1]]}
        path = write(tmp_path, "bad.json", doc)
        res = runner.invoke(main, ["roll", path])
        assert res.exit_code == 2

    def test_ode_verify_agreement(self, runner, tmp_path):
        path = write(tmp_path, "oct.json", octant_doc())
        res = runner.invoke(main, ["roll", path, "--method", "ode",
                                   "--verify", "--steps", "600"])
        assert res.exit_code == 0
        assert "method agreement" in res.output

    def test_verify_disagreement_exits_3(self, runner, tmp_path):
        path = write(tmp_path, "oct.json", octant_doc())
        res = runner.invoke(main, ["roll", path, "--verify", "--steps", "2",
                                   "--tol", "1e-12"])
        assert res.exit_code == 3
        assert "methods disagree" in res.output

    def test_verify_rejects_a_lift_of_the_wrong_sign(self, runner, tmp_path, monkeypatch):
        # the sign of the lift is what the ODE certifies, so -g must not pass
        from danceroll import eulerroll
        integrate = eulerroll.integrate_polygon

        def flipped(poly, steps):
            R, q = integrate(poly, steps)
            return R, -q

        monkeypatch.setattr(eulerroll, "integrate_polygon", flipped)
        path = write(tmp_path, "oct.json", octant_doc())
        res = runner.invoke(main, ["roll", path, "--verify", "--steps", "400"])
        assert res.exit_code == 3
        assert "methods disagree" in res.output


class TestDanceUndance:
    def test_nongeneric_q_exits_4(self, runner, tmp_path):
        # the first three contact classes lie on the equator z = 0
        doc = {"kind": "spherical", "rho": 3, "closed": True,
               "vertices": [[1, 0, 0], [0, 1, 0], [0.6, 0.8, 0],
                            [0, 0, 1]]}
        path = write(tmp_path, "flat.json", doc)
        res = runner.invoke(main, ["dance", path, "--q", "1,0,0,0"])
        assert res.exit_code == 4
        assert "non-generic configuration" in res.output

    def test_unit_start_roundtrip_keeps_chart(self, runner, tmp_path):
        # q = 1 is read in a non-identity chart, which the pair file must
        # carry for undance to give back q = 1
        path = write(tmp_path, "oct2.json", octant_doc(2))
        pair_path = str(tmp_path / "pair.json")
        res = runner.invoke(main, ["dance", path, "--q", "1,0,0,0",
                                   "--out", pair_path])
        assert res.exit_code == 0
        chart = json.loads((tmp_path / "pair.json").read_text())["chart"]
        assert abs(np.linalg.norm(chart) - 1.0) <= 1e-12
        back_path = str(tmp_path / "back.json")
        res = runner.invoke(main, ["undance", pair_path, "--out", back_path])
        assert res.exit_code == 0
        line = [ln for ln in res.output.splitlines()
                if ln.startswith("start quaternion")][0]
        q = np.array(line.split("[")[1].rstrip("]").split(), dtype=float)
        assert np.abs(q - [1, 0, 0, 0]).max() <= 1e-8
        poly = docio.doc_to_polygon(docio.load_document(back_path))
        from danceroll.geom import proj_distance
        for v, t in zip(poly.vertices, [EX, EY, EZ] * 2):
            assert proj_distance(v, t) <= 1e-8

    def test_pair_that_does_not_lift_back_exits_5(self, runner, tmp_path):
        # dance writes this pair and verify passes it, but its non-degeneracy
        # margin (2.9e-9) is so thin that consecutive edge lifts disagree by
        # 2.9e-8, above the lift's LIFT_TOL
        poly = rolling.regular_polygon(11, 2, rolling.solve_phi(11, 2, 4))
        path = write(tmp_path, "p.json", docio.polygon_to_doc(poly))
        pair_path = str(tmp_path / "pair.json")
        q_text = "-0.38976613221608436,-0.5351607267870846,0.7326618879846806,-0.15777172299482783"
        res = runner.invoke(main, ["dance", path, "--q", q_text, "--out", pair_path])
        assert res.exit_code == 0
        assert runner.invoke(main, ["verify", pair_path]).exit_code == 0
        res = runner.invoke(main, ["undance", pair_path])
        assert res.exit_code == 5
        assert isinstance(res.exception, SystemExit)  # no traceback
        lines = res.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("pair does not lift back (ClosureFailure)")

    def test_vertex_near_its_own_edge_exits_4(self, runner, tmp_path):
        # from this start a vertex of the pair lies 9.2e-10 off its own edge,
        # inside NONDEG_DET, which the lift would refuse: dance refuses too
        poly = rolling.regular_polygon(13, 5, rolling.solve_phi(13, 5, 7))
        path = write(tmp_path, "p.json", docio.polygon_to_doc(poly))
        q_text = "-0.6053934850970825,-0.4385866455115496,0.6629430024653072,0.04058396312853963"
        res = runner.invoke(main, ["dance", path, "--q", q_text])
        assert res.exit_code == 4
        assert isinstance(res.exception, SystemExit)  # no traceback
        lines = res.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("non-generic configuration")

    def test_undance_keeps_a_tolerance_below_1e7(self, runner, tmp_path):
        # the worst edge defect of this pair is 2.7e-13: inside the default
        # tolerance, outside 1e-14
        poly = rolling.regular_polygon(14, 5, rolling.solve_phi(14, 5, 11))
        path = write(tmp_path, "p.json", docio.polygon_to_doc(poly))
        pair_path = str(tmp_path / "pair.json")
        assert runner.invoke(main, ["dance", path, "--out", pair_path]).exit_code == 0
        assert runner.invoke(main, ["undance", pair_path]).exit_code == 0
        res = runner.invoke(main, ["undance", pair_path, "--tol", "1e-14"])
        assert res.exit_code == 5
        assert isinstance(res.exception, SystemExit)  # no traceback
        lines = res.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("pair does not lift back (ClosureFailure)")

    @pytest.mark.parametrize("q_text", ["1,x,0,0", "nan,0,0,0"])
    def test_bad_q_is_one_error_line(self, runner, tmp_path, q_text):
        path = write(tmp_path, "oct2.json", octant_doc(2))
        res = runner.invoke(main, ["dance", path, "--q", q_text])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")

    def test_open_pair_exits_5(self, runner, tmp_path):
        pair = bridge.pipeline_forward([EX, EY, EZ] * 2, [0.5, 0.5, 0.5, 0.5])
        doc = dict(docio.pair_to_doc(pair), closed=False)
        res = runner.invoke(main, ["undance", write(tmp_path, "open.json", doc)])
        assert res.exit_code == 5
        assert isinstance(res.exception, SystemExit)  # no traceback
        lines = res.output.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("pair does not lift back (ClosureFailure)")

    def test_nontrivial_monodromy_exits_2(self, runner, tmp_path):
        path = write(tmp_path, "oct.json", octant_doc())
        res = runner.invoke(main, ["dance", path, "--q", "0.5,0.5,0.5,0.5"])
        assert res.exit_code == 2

    def test_roundtrip_through_files(self, runner, tmp_path):
        path = write(tmp_path, "oct2.json", octant_doc(2))
        pair_path = str(tmp_path / "pair.json")
        svg_path = str(tmp_path / "pair.svg")
        res = runner.invoke(main, ["dance", path, "--q", "0.5,0.5,0.5,0.5",
                                   "--out", pair_path, "--svg", svg_path])
        assert res.exit_code == 0
        assert (tmp_path / "pair.svg").read_text().startswith("<svg")
        res = runner.invoke(main, ["verify", pair_path])
        assert res.exit_code == 0
        back_path = str(tmp_path / "back.json")
        res = runner.invoke(main, ["undance", pair_path, "--out", back_path])
        assert res.exit_code == 0
        assert "0.5" in res.output
        poly = docio.doc_to_polygon(docio.load_document(back_path))
        from danceroll.geom import proj_distance
        targets = [EX, EY, EZ, EX, EY, EZ]
        for v, t in zip(poly.vertices, targets):
            assert proj_distance(v, t) <= 1e-8


class TestVerify:
    def test_perturbed_pair_fails(self, runner, tmp_path):
        q = np.array([0.5, 0.5, 0.5, 0.5])
        pair = bridge.pipeline_forward([EX, EY, EZ] * 2, q)
        doc = docio.pair_to_doc(pair)
        doc["b"][3][0] += 0.01
        path = write(tmp_path, "bad_pair.json", doc)
        res = runner.invoke(main, ["verify", path])
        assert res.exit_code == 1
        assert "FAIL" in res.output or "degenerate" in res.output

    def test_symmetric_inscribed_triangle_fails(self, runner, tmp_path):
        # mirror-symmetric inscribed (but non-dancing) triangle pair: the two
        # cross-ratio summands at the apex are equal, so the residual cannot
        # cancel and verification must fail
        A = [np.array([-1.0, 0.0, 1.0]), np.array([0.0, 1.0, 1.0]),
             np.array([1.0, 0.0, 1.0])]
        c = 0.4
        B1 = np.array([-(1 - c), c, 1.0])  # on chord A1 A2 at height c
        B2 = np.array([(1 - c), c, 1.0])
        b2 = np.cross(B1, B2)               # line through B1, B2
        b1 = np.cross(np.array([0.0, 0.0, 1.0]), B1)  # through origin and B1
        b3 = np.cross(B2, np.array([0.0, 0.0, 1.0]))
        pair = dancing.DancingPair(A, [b1, b2, b3], closed=True)
        for i in pair.edge_indices():
            assert dancing.inscribed_residual(pair, i) <= 1e-12
        r = dancing.dancing_residual(pair, 0)
        assert abs(r) > 1e-3
        path = write(tmp_path, "sym.json", docio.pair_to_doc(pair))
        res = runner.invoke(main, ["verify", path])
        assert res.exit_code == 1

    def test_repeated_vertex_is_degenerate(self, runner, tmp_path):
        doc = {"kind": "dancing-pair", "closed": True,
               "A": [[1, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]],
               "b": [[1, 1, 0], [0, 1, 1], [1, 0, 1], [1, 1, 1]]}
        res = runner.invoke(main, ["verify", write(tmp_path, "rep.json", doc)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        assert "edge 0: degenerate (" in res.output


class TestMalformedDocuments:
    """A malformed document ends a command with one line and exit code 1."""

    def roll_with_third_vertex(self, runner, tmp_path, vertex):
        doc = dict(octant_doc(), vertices=[[1, 0, 0], [0, 1, 0], vertex])
        return self.roll_error(runner, write(tmp_path, "bad.json", doc))

    def roll_error(self, runner, path, *options):
        res = runner.invoke(main, ["roll", path, *options])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        return lines[0]

    def test_nan_coordinate(self, runner, tmp_path):
        line = self.roll_with_third_vertex(runner, tmp_path, [0, 0, float("nan")])
        assert "finite" in line

    def test_boolean_coordinate(self, runner, tmp_path):
        self.roll_with_third_vertex(runner, tmp_path, [0, 0, True])

    def test_non_unit_vertex(self, runner, tmp_path):
        line = self.roll_with_third_vertex(runner, tmp_path, [0, 0, 2])
        assert "unit" in line

    def test_zero_vertex(self, runner, tmp_path):
        line = self.roll_with_third_vertex(runner, tmp_path, [0, 0, 0])
        assert "nonzero" in line

    def test_bad_json(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "spherical"')
        self.roll_error(runner, str(path))

    def hexagon(self, tmp_path, **changes):
        poly = rolling.regular_polygon(6, 2, rolling.solve_phi(6, 2, 4))
        return write(tmp_path, "hex.json", dict(docio.polygon_to_doc(poly), **changes))

    @pytest.mark.parametrize("rho", [float("nan"), True, -1.0])
    def test_bad_document_rho(self, runner, tmp_path, rho):
        line = self.roll_error(runner, self.hexagon(tmp_path, rho=rho))
        assert "rho" in line

    def test_nan_rho_option(self, runner, tmp_path):
        line = self.roll_error(runner, self.hexagon(tmp_path), "--rho", "nan")
        assert "rho" in line

    @pytest.mark.parametrize("tol", ["nan", "-1", "inf"])
    def test_bad_tol_on_every_command(self, runner, tmp_path, tol):
        poly_path = write(tmp_path, "oct2.json", octant_doc(2))
        pair = bridge.pipeline_forward([EX, EY, EZ] * 2, [0.5, 0.5, 0.5, 0.5])
        pair_path = write(tmp_path, "pair.json", docio.pair_to_doc(pair))
        for argv in (["solve-regular", "6", "2", "4"],
                     ["roll", poly_path, "--verify", "--steps", "2"],
                     ["dance", poly_path, "--q", "0.5,0.5,0.5,0.5"],
                     ["undance", pair_path], ["verify", pair_path]):
            res = runner.invoke(main, argv + ["--tol", tol])
            assert res.exit_code == 1, argv
            assert isinstance(res.exception, SystemExit)  # no traceback
            lines = res.output.strip().splitlines()
            assert len(lines) == 1 and lines[0].startswith("Error: tol "), argv

    def command_error(self, runner, *argv):
        res = runner.invoke(main, list(argv))
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)  # no traceback
        lines = res.output.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("Error: ")
        return lines[0]

    def test_dance_on_two_vertices(self, runner, tmp_path):
        doc = dict(octant_doc(), vertices=[[1, 0, 0], [0, 1, 0]])
        line = self.command_error(runner, "dance", write(tmp_path, "two.json", doc))
        assert "three" in line

    def test_undance_on_one_row(self, runner, tmp_path):
        doc = {"kind": "dancing-pair", "A": [[1, 0, 0]], "b": [[0, 1, 0]],
               "closed": True}
        line = self.command_error(runner, "undance", write(tmp_path, "one.json", doc))
        assert "two" in line

    @pytest.mark.parametrize("command", ["dance", "verify"])
    def test_closed_must_be_a_boolean(self, runner, tmp_path, command):
        doc = octant_doc(2)
        if command == "verify":
            pair = bridge.pipeline_forward([EX, EY, EZ] * 2, [0.5, 0.5, 0.5, 0.5])
            doc = docio.pair_to_doc(pair)
        path = write(tmp_path, "doc.json", dict(doc, closed="false"))
        line = self.command_error(runner, command, path)
        assert "closed" in line

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_ode_steps_below_one(self, runner, tmp_path, steps):
        line = self.roll_error(runner, self.hexagon(tmp_path),
                               "--method", "ode", "--steps", steps)
        assert "steps" in line


class TestSvg:
    def test_render_contains_elements(self):
        pair = bridge.pipeline_forward([EX, EY, EZ] * 2,
                                       np.array([0.5, 0.5, 0.5, 0.5]))
        text = svg.render_pair_svg(pair, chart="z")
        assert text.startswith("<svg") and text.rstrip().endswith("</svg>")
        assert text.count("<circle") >= 6
        assert text.count("<line") >= 6

    def test_chart_choice(self):
        pair = bridge.pipeline_forward([EX, EY, EZ] * 2,
                                       np.array([0.5, 0.5, 0.5, 0.5]))
        for chart in ("x", "y", "z"):
            assert svg.render_pair_svg(pair, chart=chart).startswith("<svg")
        with pytest.raises(ValueError):
            svg.render_pair_svg(pair, chart="w")


class TestScripts:
    """The example scripts run as child processes and print their summaries."""

    def run_script(self, name, *args):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        src = os.path.dirname(os.path.dirname(os.path.abspath(danceroll.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        res = subprocess.run([sys.executable, os.path.join(root, "scripts", name), *args],
                             capture_output=True, text=True, env=env, timeout=120)
        assert res.returncode == 0, res.stderr
        return res.stdout

    def test_hexagon_figure(self, tmp_path):
        json_out, svg_out = str(tmp_path / "hexagon.json"), str(tmp_path / "hexagon.svg")
        out = self.run_script("hexagon_figure.py", "--json-out", json_out,
                              "--svg-out", svg_out)
        assert "nondegenerate: True" in out
        assert "wrote %s and %s" % (json_out, svg_out) in out
        assert "inverse pipeline: start quaternion error" in out
        assert docio.doc_to_pair(docio.load_document(json_out)).A.shape == (6, 3)
        assert (tmp_path / "hexagon.svg").read_text().startswith("<svg")

    def test_enumerate_triples(self):
        out = self.run_script("enumerate_triples.py")
        assert "67 triples, 14 minimal, hexagon sin^2(phi) = 0.666666666666667" in out
