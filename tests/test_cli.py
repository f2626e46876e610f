"""CLI subcommands: exit codes, determinism, file round trips."""

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imcvf import builder, cli, curvature, expr, sphere, straightout
from imcvf.chart import COMPONENTS
from imcvf.cli import SCHEMA, _emit, _node_columns, main
from imcvf.grid import SphereGrid

from conftest import seed_inputs

MINKOWSKI = {"v": "1", "d": "0", "e": "0", "f": "0", "u": "1",
             "a": "r^2", "b": "r^2*sin(th)^2", "c": "0"}

SCHWARZSCHILD = {"v": "(1-2*m/r)^0.5", "d": "0", "e": "0", "f": "0",
                 "u": "(1-2*m/r)^(-0.5)", "a": "r^2", "b": "r^2*sin(th)^2",
                 "c": "0", "params": {"m": 1.0}}

# a and b break ab - c^2 = r^4 sin^2 th, so straightout --solve meets a
# solvability integral of 0.084 at r = 2 (on any grid) and reports it
INCOMPATIBLE = {"v": "1", "d": "0", "e": "0.1*sin(th)", "f": "0", "u": "1",
                "a": "r^2*(1+0.1*cos(th))", "b": "r^2*sin(th)^2", "c": "0"}


@pytest.fixture
def minkowski_chart(tmp_path):
    path = tmp_path / "minkowski.json"
    path.write_text(json.dumps(MINKOWSKI))
    return str(path)


@pytest.fixture
def seed_chart(tmp_path):
    ins = seed_inputs("e", 1e-2)
    doc = {"v": ins["v"], "e": ins["e"], "f": ins["f"], "u": ins["u"],
           "a": ins["a"], "c": ins["c"],
           "b": f"(r^4*sin(th)^2+({ins['c']})^2)/({ins['a']})",
           "solve_d": True}
    path = tmp_path / "seed.json"
    path.write_text(json.dumps(doc))
    return str(path)


def test_validate_minkowski_passes(minkowski_chart, capsys):
    assert main(["validate", "--chart", minkowski_chart]) == 0
    out = capsys.readouterr().out
    assert "cond4_max" in out and "true" in out


def test_validate_bad_chart_exits_2(tmp_path):
    doc = dict(MINKOWSKI, e="0.1*sin(th)^2")   # breaks condition (4)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--chart", str(path)]) == 2


def test_build_then_validate(seed_chart, tmp_path):
    full = tmp_path / "full.json"
    assert main(["build", "--chart", seed_chart, "--solve-d",
                 "--out", str(full)]) == 0
    assert main(["validate", "--chart", str(full)]) == 0


def test_cached_parser_behaves_like_a_fresh_one(minkowski_chart, capsys):
    """main builds its parser once per process: a failed parse leaves it
    unchanged, and later calls of other subcommands read their own
    arguments and defaults, exactly as with a parser built per call."""
    calls = [["hawking", "--chart", minkowski_chart, "--grid"],
             ["curvature", "--chart", minkowski_chart, "--points", "0,4,1.0,0"],
             ["hawking", "--chart", minkowski_chart, "--grid", "8,16", "--r", "3"],
             ["adm", "--factor", "1+1/(2*r)", "--radii", "10,20", "--json"]]

    def run(fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._build_parser.cache_clear()
            results.append((main(argv), capsys.readouterr()))
        return results

    cached = run(fresh=False)
    assert cli._build_parser() is cli._build_parser()
    assert [code for code, _ in cached] == [1, 0, 0, 0]
    assert "expected one argument" in cached[0][1].err
    assert cached == run(fresh=True)


def test_adm_schwarzschild(capsys):
    assert main(["adm", "--factor", "1+1/(2*r)",
                 "--radii", "10,20,40,80"]) == 0
    out = capsys.readouterr().out
    last = out.strip().splitlines()[-1]
    assert last.startswith("extrapolated")
    assert abs(float(last.split(",")[1]) - 1.0) <= 1e-3


def test_adm_json_schema(capsys):
    assert main(["adm", "--factor", "1+1/(2*r)", "--radii", "10,20,40,80",
                 "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == "imcvf-report/1"
    assert abs(payload["mass"] - 1.0) <= 1e-3


def test_curvature_dump(tmp_path, capsys):
    path = tmp_path / "schw.json"
    path.write_text(json.dumps(SCHWARZSCHILD))
    assert main(["curvature", "--chart", str(path),
                 "--points", "0,4,1.0,0.0;0,6,1.2,0.5"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    header = lines[0].split(",")
    row = lines[1].split(",")
    # vacuum: scalar curvature column is ~ 0
    assert abs(float(row[header.index("R")])) <= 1e-10


def test_hawking_values(tmp_path, capsys):
    path = tmp_path / "schw.json"
    path.write_text(json.dumps(SCHWARZSCHILD))
    assert main(["hawking", "--chart", str(path), "--grid", "16,32",
                 "--r", "3,5,8"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        assert abs(float(line.split(",")[1]) - 1.0) <= 1e-8


def test_hawking_reuses_one_process_wide_pool(tmp_path, capsys, monkeypatch):
    """Spheres run on worker threads that outlive the call, so repeated
    calls start no threads (and so take no fresh malloc arenas)."""
    import threading

    from imcvf import cli

    path = tmp_path / "schw.json"
    path.write_text(json.dumps(SCHWARZSCHILD))
    argv = ["hawking", "--chart", str(path), "--grid", "16,32", "--r", "3,5,8"]
    hosts = []
    real = sphere.hawking_mass
    monkeypatch.setattr(sphere, "hawking_mass",
                        lambda g, grid: hosts.append(threading.get_ident()) or real(g, grid))
    assert main(argv) == 0
    first = capsys.readouterr().out
    workers = {t.ident for t in threading.enumerate()}
    pool = cli._sphere_pool()
    assert main(argv) == 0 and capsys.readouterr().out == first
    assert cli._sphere_pool() is pool
    assert {t.ident for t in threading.enumerate()} == workers
    assert threading.get_ident() not in hosts and set(hosts) <= workers


def test_hawking_waits_for_every_sphere_when_one_fails(tmp_path, capsys, monkeypatch):
    """An error at one radius leaves no sphere running on the pool."""
    import time

    from imcvf import cli
    from imcvf.errors import DegenerateSurfaceError

    started, finished = [], []

    def fake(_g, grid):
        started.append(grid.r)
        if grid.r == 3.0:
            raise DegenerateSurfaceError("ab - c^2 <= 0 at a sampled node")
        time.sleep(0.05)
        finished.append(grid.r)
        return 1.0

    monkeypatch.setattr(sphere, "hawking_mass", fake)
    path = tmp_path / "schw.json"
    path.write_text(json.dumps(SCHWARZSCHILD))
    assert main(["hawking", "--chart", str(path), "--grid", "16,32",
                 "--r", "3,5,8"]) == 1
    assert "error:" in capsys.readouterr().err
    assert 3.0 in started and sorted(finished) == sorted(r for r in started if r != 3.0)


def test_meancurv_minkowski(minkowski_chart, capsys):
    assert main(["meancurv", "--chart", minkowski_chart, "--grid", "8,8",
                 "--r", "2.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()[1:]
    for line in lines:
        _, _, h_r, h_n, star = (float(x) for x in line.split(","))
        assert abs(h_r + 1.0) <= 1e-12 and abs(h_n) <= 1e-12 and abs(star) <= 1e-12


def test_steer_outputs_grid(minkowski_chart, capsys):
    assert main(["steer", "--chart", minkowski_chart, "--grid", "8,8",
                 "--r", "2.0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "th,ph,Q"
    assert len(lines) == 1 + 64


def test_straightout_residual_and_solver(seed_chart, tmp_path):
    full = tmp_path / "full.json"
    main(["build", "--chart", seed_chart, "--solve-d", "--out", str(full)])
    out_csv = tmp_path / "res.csv"
    assert main(["straightout", "--chart", str(full), "--grid", "16,32",
                 "--r", "2.0", "--out", str(out_csv)]) == 0
    assert out_csv.read_text().startswith("th,ph,residual_closed,residual_direct")
    assert main(["straightout", "--chart", str(full), "--grid", "16,32",
                 "--r", "2.0", "--solve", "--out", str(tmp_path / 'd.csv')]) == 0
    # a chart whose solvability integral is 0.084 on every grid: exit code 2
    incompatible = tmp_path / "incompatible.json"
    incompatible.write_text(json.dumps(INCOMPATIBLE))
    assert main(["straightout", "--chart", str(incompatible), "--grid", "16,32",
                 "--r", "2.0", "--solve"]) == 2


def test_flowscan(tmp_path, capsys):
    path = tmp_path / "schw.json"
    path.write_text(json.dumps(SCHWARZSCHILD))
    assert main(["flowscan", "--chart", str(path), "--r-range", "3:10:16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,m_H,dmH_ds,G_tt"
    for line in lines[1:]:
        r, m_h, dm, gtt = (float(x) for x in line.split(","))
        assert abs(m_h - 1.0) <= 1e-10


@pytest.fixture
def evaluate_passes(monkeypatch):
    """Counts the outermost expr.evaluate calls, wherever imcvf imports it;
    each is handed a compiled plan."""
    real, depth, passes = expr.evaluate, [0], []

    def counting(plan, env):
        assert isinstance(plan, expr.Plan)
        passes.append(depth[0] == 0)
        depth[0] += 1
        try:
            return real(plan, env)
        finally:
            depth[0] -= 1

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "imcvf" and getattr(module, "evaluate", None) is real:
            monkeypatch.setattr(module, "evaluate", counting)
    return passes


@pytest.mark.parametrize("k", [1, 4, 9])
def test_curvature_evaluates_every_point_in_one_pass(k, ef_chart, evaluate_passes,
                                                    monkeypatch, capsys):
    """k points are one curvature_values call on (k,) coordinate arrays,
    which is one evaluate pass."""
    calls = []
    real = curvature.curvature_values
    monkeypatch.setattr(curvature, "curvature_values",
                        lambda g, env: calls.append(env) or real(g, env))
    points = ";".join(f"0,{2 + i},1.2,{i - 1.5}" for i in range(k))
    assert main(["curvature", "--chart", ef_chart, "--points", points]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + k
    assert [np.shape(v) for v in calls[0].values()] == [(k,)] * 4 and len(calls) == 1
    assert sum(evaluate_passes) == 1


@pytest.mark.parametrize("argv, passes", [
    (["flowscan", "--chart", "{chart}", "--r-range", "1.5:10:16"], 2),
    (["adm", "--factor", "1+1/(2*r)", "--radii", "10,20,40,80"], 1),
])
def test_flowscan_and_adm_evaluation_passes(argv, passes, ef_chart, evaluate_passes, capsys):
    """flowscan takes one pass for u, u_r and v on all its radii plus the
    spherical oracle's own; adm one pass for u and u_r on all its radii."""
    assert main([a.format(chart=ef_chart) for a in argv]) == 0
    assert sum(evaluate_passes) == passes


@pytest.mark.parametrize("points, message", [
    ("0,4,1,0;0,-1,1,0", "r must be positive, got -1.0"),
    ("0,4,1,0;0,1e200,1,0", "r^2 must be finite, got r = 1e+200"),
    ("0,4,1,0;nan,4,1,0", "t must be finite, got t = nan"),
    ("0,4,1,0;0,4,3.5,0", "th must lie in (0, pi), got 3.5"),
    ("0,4,1,0;0,4,1", "bad point '0,4,1', expected 't,r,th,ph'"),
    ("0,4,1,0;0,4,x,0", "could not convert string to float: 'x'"),
])
def test_bad_second_point_exits_1_before_any_evaluation(points, message, tmp_path, capsys,
                                                        monkeypatch):
    """Every point is checked before the one evaluation pass, so a bad
    second point gives the message it always gave and nothing is computed."""
    monkeypatch.setattr(curvature, "curvature_values", None)
    path = tmp_path / "schw.json"
    path.write_text(json.dumps(SCHWARZSCHILD))
    assert main(["curvature", "--chart", str(path), "--points", points]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", [
    ["validate"],
    ["hawking", "--grid", "8,16", "--r", "2"],
    ["curvature", "--points", "0,4,1,0"],
])
@pytest.mark.parametrize("doc, message", [
    ([1, 2], "a chart must be a JSON object, got list"),
    (dict(MINKOWSKI, params=[1, 2]), "chart key 'params' must be an object, got list"),
    (dict(MINKOWSKI, u="1+q/r", params={"q": [1]}), "parameter 'q' is not a number"),
    (dict(MINKOWSKI, theta_min=[1]), "theta_min must be a real number in (0, pi/2), got [1]"),
    (dict(MINKOWSKI, solve_d="false"), "chart key 'solve_d' must be true or false, got 'false'"),
    (dict(MINKOWSKI, u=None), "chart component 'u' must be an expression string or a number, "
                              "got None"),
    (dict(MINKOWSKI, u=True), "chart component 'u' must be an expression string or a number, "
                              "got True"),
    (dict(MINKOWSKI, u=[1]), "chart component 'u' must be an expression string or a number, "
                             "got [1]"),
    (dict(MINKOWSKI, u={}), "chart component 'u' must be an expression string or a number, "
                            "got {}"),
])
def test_malformed_chart_document_exits_1_naming_it(doc, message, command, tmp_path, capsys):
    """A chart document of the wrong shape is one error line naming the
    key, where it printed a traceback (or, for a "solve_d" string, read
    any but "" as true)."""
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(doc))
    assert main([command[0], "--chart", str(path), *command[1:]]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "Traceback" not in captured.err
    assert message in captured.err and captured.out == ""


@pytest.mark.parametrize("theta_min", [float("nan"), "1e400", 0, -0.1, 1.6, True])
def test_theta_min_outside_its_range_exits_1(theta_min, tmp_path, capsys):
    """theta_min must be a real number in (0, pi/2): validate printed nan
    residuals and exited 2 for nan, "1e400" and 0, sampled outside (0, pi)
    or a reversed range for -0.1 and 1.6, and read true as 1.0."""
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(dict(MINKOWSKI, theta_min=theta_min)))
    assert main(["validate", "--chart", str(path)]) == 1
    assert capsys.readouterr() == (
        "", f"error: theta_min must be a real number in (0, pi/2), got {theta_min!r}\n")


SOLVE = ["straightout", "--grid", "8,16", "--r", "2", "--solve"]


@pytest.mark.parametrize("command, option, value", [
    (["validate"], "--tol-cond3", "nan"),
    (["validate"], "--tol-cond4", "-1e-8"),
    (SOLVE, "--compat-tol", "nan"),
    (SOLVE, "--compat-tol", "-1"),
])
def test_a_nan_or_negative_tolerance_exits_1_naming_it(command, option, value, minkowski_chart,
                                                       capsys):
    """A nan tolerance failed every validate condition and exited 2, and
    turned the solvability check of straightout --solve off (abs(x) > nan
    is False); a negative --compat-tol failed every solve with exit 2."""
    assert main([command[0], "--chart", minkowski_chart, *command[1:],
                 f"{option}={value}"]) == 1
    name = option[2:].replace("-", "_")
    assert capsys.readouterr() == ("", f"error: {name} must be a number >= 0, got {float(value)}\n")


_NEGATIVE_VALUES = [
    *(pytest.param(command, option, number, id=f"command{k}-{option}-{number}")
      for k, (command, option) in enumerate([
          (["hawking", "--grid", "8,16", "--r", "2"], "--t"),
          (["validate"], "--t"),
          (["validate"], "--tol-cond4")])
      for number in ["-1e3", "-1.5E-8", "-2e+1", "-.5e1", "-1"]),
    # lists whose first number is negative: a point at t = -1 runs, the
    # radii and the radial range fail the radius rule
    *(pytest.param(command, option, number, id=f"{command[0]}-{option}-{number}")
      for command, option, number in [
          (["curvature"], "--points", "-1,2,1,0"),
          (["curvature"], "--points", "-1,2,1,0;0,3,-.5e-1,-2"),
          (["hawking", "--grid", "8,16"], "--r", "-2,3"),
          (["adm", "--factor", "1+1/r"], "--radii", "-10,20"),
          (["validate"], "--r-values", "-2,3"),
          (["flowscan"], "--r-range", "-1:3:4")]),
]


@pytest.mark.parametrize("command, option, number", _NEGATIVE_VALUES)
def test_a_negative_number_in_exponent_form_is_read_as_a_value(command, option, number,
                                                               minkowski_chart, capsys):
    """--opt -1e3 gives the exit code, stdout and stderr of --opt=-1e3,
    where argparse took -1e3, or a list that starts with a negative number,
    for an option and made it a usage error.  -h is still an option."""
    chart = [] if command[0] == "adm" else ["--chart", minkowski_chart]
    argv = [command[0], *chart, *command[1:]]
    separate = main([*argv, option, number]), capsys.readouterr()
    joined = main([*argv, f"{option}={number}"]), capsys.readouterr()
    assert separate == joined and "expected one argument" not in separate[1].err
    assert main([*argv, option, "-h"]) == 1
    assert "expected one argument" in capsys.readouterr().err


@pytest.mark.parametrize("argv, given", [
    ([], {}),
    (["--t", "0.5", "--tol-cond4", "1e-6"], {"t": 0.5, "tol_cond4": 1e-6}),
    (["--tol-cond3", "1e-9", "--r-values", "2,3"], {"tol_cond3": 1e-9, "r_values": (2.0, 3.0)}),
])
def test_validate_options_not_given_keep_the_spec_defaults(argv, given, minkowski_chart,
                                                          monkeypatch, capsys):
    """ValidationSpec is the one source of validate's defaults."""
    specs, real = [], builder.validate_chart
    monkeypatch.setattr(builder, "validate_chart",
                        lambda g, spec: specs.append(spec) or real(g, spec))
    assert main(["validate", "--chart", minkowski_chart, *argv]) == 0
    assert specs == [builder.ValidationSpec(**given)]


def test_usage_error_exit_1():
    assert main(["validate"]) == 1                      # missing --chart
    assert main(["adm", "--factor", "1+q", "--radii", "10,20,40"]) == 1


def _adm_json(radii, capsys):
    assert main(["adm", "--factor", "1+1/r", "--radii", radii, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("radii", ["10", "10,10", "10,10,10"])
def test_adm_one_distinct_radius_reports_its_value(radii, capsys):
    """One distinct radius fits one term: the extrapolated mass is the
    value tabulated there, whichever times the radius is given."""
    payload = _adm_json(radii, capsys)
    values = [v for _, v in payload["rows"]]
    assert values == [values[0]] * len(values) and payload["mass"] == values[0]
    assert values[0] == pytest.approx(2.662, abs=1e-12)   # -2 r^2 u^3 u' at r = 10


@pytest.mark.parametrize("radii", ["10,20", "10,20,20", "20,10,10"])
def test_adm_two_distinct_radii_fit_two_terms(radii, capsys):
    """Two distinct radii fit m + c/r through them, duplicates or not."""
    payload = _adm_json(radii, capsys)
    (r1, v1), (r2, v2) = payload["rows"][0], payload["rows"][-2]
    assert (r1, r2) == (10, 20)
    assert payload["mass"] == pytest.approx((r2 * v2 - r1 * v1) / (r2 - r1), rel=1e-13)
    assert payload["mass"] == _adm_json("10,20", capsys)["mass"]


@pytest.mark.parametrize("radii", [",", ""])
def test_adm_without_radii_exits_1(radii, capsys):
    assert main(["adm", "--factor", "1+1/r", "--radii", radii]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""


def test_determinism(minkowski_chart, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for target in (a, b):
        assert main(["meancurv", "--chart", minkowski_chart, "--grid", "8,8",
                     "--r", "3.0", "--out", str(target)]) == 0
    assert a.read_bytes() == b.read_bytes()


CHART_COMMANDS = {
    "validate": [],
    "build": ["--solve-d", "--out", "{tmp}/full.json"],
    "curvature": ["--points", "0,4,1.0,0"],
    "hawking": ["--grid", "8,8", "--r", "3"],
    "meancurv": ["--grid", "8,8", "--r", "2"],
    "steer": ["--grid", "8,8", "--r", "2"],
    "straightout": ["--grid", "8,8", "--r", "2"],
    "flowscan": ["--r-range", "3:10:4"],
}


@pytest.mark.parametrize("command", sorted(CHART_COMMANDS))
def test_missing_chart_file_exits_1_without_traceback(command, tmp_path, capsys):
    extra = [a.format(tmp=tmp_path) for a in CHART_COMMANDS[command]]
    missing = str(tmp_path / "missing.json")
    assert main([command, "--chart", missing, *extra]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing.json" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["validate", "hawking", "meancurv"])
def test_unwritable_out_exits_1_without_traceback(command, minkowski_chart, tmp_path,
                                                  capsys):
    out = str(tmp_path / "no-such-dir" / "out.csv")
    extra = [a.format(tmp=tmp_path) for a in CHART_COMMANDS[command]]
    assert main([command, "--chart", minkowski_chart, *extra, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_validate_degenerate_chart_exits_2(tmp_path, capsys):
    doc = dict(MINKOWSKI, a="r^2*(1-0.5*r)")   # ab - c^2 <= 0 beyond r = 2
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--chart", str(path), "--json"]) == 2
    captured = capsys.readouterr()
    payload = json.loads(captured.out)
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert row["degenerate"] and not row["passed"]
    assert "Traceback" not in captured.err


def test_hawking_at_negative_radius_exits_1(minkowski_chart, capsys):
    assert main(["hawking", "--chart", minkowski_chart, "--grid", "8,16", "--r", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_non_finite_chart_parameter_exits_1(tmp_path, capsys):
    """A chart whose params hold Infinity does not load: its parse error
    exits 1 instead of printing a nan mass."""
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(dict(MINKOWSKI, u="1+q/r", params={"q": float("inf")})))
    assert "Infinity" in path.read_text()
    assert main(["hawking", "--chart", str(path), "--grid", "8,16", "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "'q'" in captured.err
    assert captured.out == ""


def test_straightout_solve_at_a_radius_whose_square_overflows_exits_1(minkowski_chart, capsys):
    assert main(["straightout", "--chart", minkowski_chart, "--grid", "8,16",
                 "--r", "1e200", "--solve"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: r^2 must be finite, got r = 1e+200\n"
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")    # no overflow warning escapes
@pytest.mark.parametrize("radii", ["10,inf", "10,20,1e300"])
def test_adm_at_a_radius_whose_square_overflows_exits_1(radii, capsys):
    """The surface integral at such a radius is no number: adm exits 1
    instead of tabulating and extrapolating nan."""
    assert main(["adm", "--factor", "1+1/r", "--radii", radii]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: r^2 must be finite") and captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")    # no overflow warning escapes
@pytest.mark.parametrize("factor, radii", [("exp(1/r)", "1e-160"),
                                           ("1+1/(2*r)", "10,20,1e-160")])
def test_adm_with_a_surface_integral_that_is_not_finite_exits_1(factor, radii, capfd):
    """A tabulated integral that is inf or nan is refused before the fit,
    naming its radius: no nan mass, no LAPACK message from the SVD, and no
    warning of the overflow (u^3 and du/dr at r = 1e-160) besides the one
    error line."""
    assert main(["adm", "--factor", factor, "--radii", radii]) == 1
    captured = capfd.readouterr()
    assert captured.err == "error: the surface integral at r = 1e-160 is not finite\n"
    assert captured.out == ""


@pytest.mark.parametrize("component, source, coord", [
    ("u", "1+cos(th)/r", "th"), ("u", "1+0.1*sin(ph)/r", "ph"),
    ("v", "1+0.1*cos(ph)/r", "ph"), ("v", "1+th-th", "th")])
def test_flowscan_with_an_angular_u_or_v_exits_1(component, source, coord, tmp_path, capsys):
    """flowscan samples the radial flow at no angle: a u or v that reads th
    or ph is refused and the coordinate named, where th used to be taken
    at 1 and ph to fail as a missing coordinate."""
    path = tmp_path / "angular.json"
    path.write_text(json.dumps(dict(MINKOWSKI, **{component: source})))
    assert main(["flowscan", "--chart", str(path), "--r-range", "3:10:8"]) == 1
    captured = capsys.readouterr()
    assert captured.err == (f"error: {component} reads {coord}: the radial flow needs "
                            "u and v of t and r alone\n")
    assert captured.out == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")    # no warning escapes
@pytest.mark.parametrize("argv, message", [
    (["flowscan", "--r-range", "0:2:3"], "r must be positive, got 0.0"),
    (["flowscan", "--r-range", "1:nan:3"], "r must be positive, got nan"),
    (["flowscan", "--r-range", "1.5:1e200:4"], "r^2 must be finite, got r = 1e+200"),
    (["flowscan", "--r-range", "1:2"], "bad --r-range '1:2', expected 'LO:HI:N'"),
    (["flowscan", "--r-range", "1:2:0"],
     "the radial flow needs at least one radius, got n = 0"),
    (["validate", "--r-values=-1"], "r must be positive, got -1.0"),
    (["validate", "--r-values", "0"], "r must be positive, got 0.0"),
    (["validate", "--r-values", "2,nan"], "r must be positive, got nan"),
    (["validate", "--r-values", "1e200"], "r^2 must be finite, got r = 1e+200"),
    (["validate", "--r-values="], "--r-values '' names no radius"),
    (["validate", "--r-values", ","], "--r-values ',' names no radius"),
    (["hawking", "--grid", "8,16", "--r", ""], "no radius to take the Hawking mass at"),
])
def test_bad_radius_exits_1_naming_it(argv, message, tmp_path, capsys):
    """flowscan, validate and hawking hold every radius to SphereGrid's rule
    (r > 0, r^2 finite) before any sampling: one error line naming the
    radius or the option, where they used to print rows of inf, nan or
    zeros, pass a negative radius, or exit 0 with no row (an empty
    validate --r-values validated at the default radii)."""
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(dict(MINKOWSKI, u="1+1/r")))
    assert main([argv[0], "--chart", str(path), *argv[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.filterwarnings("error::RuntimeWarning")    # no warning escapes
@pytest.mark.parametrize("argv, message", [
    (["meancurv", "--grid", "8,16", "--r", "2", "--t", "nan"], "t must be finite, got t = nan"),
    (["flowscan", "--t", "nan", "--r-range", "2:3:2"], "t must be finite, got t = nan"),
    (["validate", "--t", "inf"], "t must be finite, got t = inf"),
    (["hawking", "--grid", "8,16", "--r", "2,3", "--t", "nan"], "t must be finite, got t = nan"),
    (["steer", "--grid", "8,16", "--r", "2", "--t=-inf"], "t must be finite, got t = -inf"),
])
def test_non_finite_t_exits_1_naming_it(argv, message, tmp_path, capsys):
    """Every sphere, validation spec and radial flow holds t to one rule
    (grid.check_time), on a chart whose u reads t: one error line naming
    t, where meancurv and flowscan printed rows of nan, validate exited 2
    after a RuntimeWarning and hawking blamed r."""
    path = tmp_path / "chart.json"
    path.write_text(json.dumps(dict(MINKOWSKI, u="1+0.2*exp(-((r-3)/2)^2)*(1+0.1*sin(t))")))
    assert main([argv[0], "--chart", str(path), *argv[1:]]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def test_hawking_records_one_tape_that_every_sphere_replays(ef_chart, monkeypatch, capsys):
    """Four radii on the pool: the metric compiles its SURFACE_JETS plan
    once and records one tape for its metric and grid shape, and all four
    spheres replay that tape; only the recording runs the plan."""
    from imcvf import chart, tape
    from imcvf.sphere import SURFACE_JETS

    metrics, plans, runs = [], [], []
    load, real, replay = cli._load_metric, chart.evaluate, tape.Tape.run
    monkeypatch.setattr(cli, "_load_metric", lambda path: metrics.append(load(path)) or metrics[-1])
    monkeypatch.setattr(chart, "evaluate", lambda plan, env: plans.append(plan) or real(plan, env))
    monkeypatch.setattr(tape.Tape, "run", lambda t, *inputs: runs.append(t) or replay(t, *inputs))
    assert main(["hawking", "--chart", ef_chart, "--grid", "16,32", "--r", "2,3,4,5"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 5
    (g,) = metrics
    assert list(g._plans) == [SURFACE_JETS]
    assert len(plans) == 1 and plans[0] is g._plans[SURFACE_JETS]
    (kept,) = g._tapes.values()
    assert len(runs) == 4 and all(t is kept for t in runs)


@pytest.mark.parametrize("command", ["meancurv", "hawking"])
def test_a_grid_numpy_cannot_allocate_exits_1(command, minkowski_chart, capsys):
    """2^50 phi nodes: numpy refuses the first array of that size (8 PiB,
    beyond any address space) outright, where the MemoryError ended in a
    traceback."""
    assert main([command, "--chart", minkowski_chart, "--grid", f"8,{2 ** 50}",
                 "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert captured.err.startswith("error: Unable to allocate 8.00 PiB")
    assert captured.err.count("\n") == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")    # no overflow warning escapes
def test_hawking_mass_that_is_not_finite_exits_1(ef_chart, capsys):
    """The ef chart's arithmetic overflows from r = 1e76 while r^2 is still
    finite: once every sphere is done, hawking names the first such radius
    on one error line, where it printed nan under a stack of warnings and
    exited 0."""
    assert main(["hawking", "--chart", ef_chart, "--grid", "16,32", "--r", "2,1e76,1e100"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: the Hawking mass at r = 1e+76 is not finite\n"
    assert captured.out == ""


def test_boolean_chart_parameter_exits_1(tmp_path, capsys):
    """A JSON true is not a number: the chart does not load, where it used
    to load as q = 1.0 and print a mass."""
    path = tmp_path / "bool.json"
    path.write_text(json.dumps(dict(MINKOWSKI, u="1+q/r", params={"q": True})))
    assert main(["hawking", "--chart", str(path), "--grid", "8,16", "--r", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "'q' is a boolean" in captured.err
    assert captured.out == ""


def test_unfoldable_constant_factor_exits_1_without_traceback(capsys):
    assert main(["adm", "--factor", "4^512", "--radii", "10,20,40"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


def test_large_literal_in_chart_runs_without_traceback(tmp_path, capsys):
    """d/dr of r/1e200 squares 1e200 while folding; it must still run."""
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(dict(MINKOWSKI, u="1+r/1e200")))
    assert main(["meancurv", "--chart", str(path), "--grid", "8,16", "--r", "2"]) == 0
    assert "Traceback" not in capsys.readouterr().err


def test_json_booleans_are_true_false(minkowski_chart, capsys):
    assert main(["validate", "--chart", minkowski_chart, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    row = dict(zip(payload["columns"], payload["rows"][0]))
    # JSON true/false load as bool; 1/0 would load as int
    assert row["passed"] is True and row["lorentzian_ok"] is True
    assert row["degenerate"] is False


# Golden outputs on the ef seed (eps = 0.1) at 16x32, written by the code
# before the separable env and the single jet evaluator (the .json ones by
# the writer before it formatted each distinct value once); the grid
# commands must keep reproducing them byte for byte.  A name ending in .json is run with
# --json and names its own file; any other name is a .csv.
DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = {
    "meancurv_closed": ["meancurv", "--grid", "16,32", "--r", "4.7", "--method", "closed"],
    "meancurv_closed.json": ["meancurv", "--grid", "16,32", "--r", "4.7", "--method", "closed"],
    "meancurv_trace": ["meancurv", "--grid", "16,32", "--r", "4.7", "--method", "trace"],
    "steer": ["steer", "--grid", "16,32", "--r", "4.7"],
    "straightout": ["straightout", "--grid", "16,32", "--r", "4.7"],
    "straightout_solve": ["straightout", "--grid", "16,32", "--r", "4.7", "--solve"],
    "straightout_solve.json": ["straightout", "--grid", "16,32", "--r", "4.7", "--solve"],
    "hawking": ["hawking", "--grid", "16,32", "--r", "2,3.5,5,8"],
    "validate": ["validate"],
    "curvature": ["curvature", "--points", "0,2,1,0.5;0,3.5,0.7,2;0,6,2.2,4.5"],
    "curvature_wrap": ["curvature", "--points",
                       "0,2,1,7.0;0,3.5,0.7,-1.0;0,6,2.2,4.5;0.3,4.7,1.4,0;0,9,2.9,6.2"],
    "flowscan": ["flowscan", "--r-range", "1.5:10:16"],
    "adm": ["adm", "--factor", "1+1/(2*r)", "--radii", "10,20,40,80"],
}

# golden commands that read no chart file
CHARTLESS = {"adm"}


def golden_path(name) -> str:
    """The file of golden NAME: tests/data/ef_16x32_NAME, with .csv unless
    NAME carries the .json extension."""
    return os.path.join(DATA, f"ef_16x32_{name}" + ("" if name.endswith(".json") else ".csv"))


def golden_argv(name, chart, out) -> list:
    """The argv that writes golden NAME to out; --chart only for the
    commands that take one, --json for the .json goldens."""
    command, *rest = GOLDEN[name]
    return [command, *([] if command in CHARTLESS else ["--chart", chart]), *rest,
            *(["--json"] if name.endswith(".json") else []), "--out", out]


def write_ef_chart(directory) -> str:
    """Build the golden chart (ef seed, eps = 0.1) into directory; its path."""
    ins = seed_inputs("ef", 0.1)
    doc = dict(ins, b=f"(r^4*sin(th)^2+({ins['c']})^2)/({ins['a']})", solve_d=True)
    seed, full = os.path.join(directory, "seed.json"), os.path.join(directory, "full.json")
    with open(seed, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["build", "--chart", seed, "--solve-d", "--out", full]) == 0
    return full


@pytest.fixture(scope="module")
def ef_chart(tmp_path_factory):
    return write_ef_chart(str(tmp_path_factory.mktemp("ef")))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_grid_output_matches_golden_bytes(name, ef_chart, tmp_path):
    out = tmp_path / "out"
    assert main(golden_argv(name, ef_chart, str(out))) == 0
    with open(golden_path(name), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("name", ["meancurv_closed.json", "straightout_solve.json"])
def test_json_goldens_take_the_vectorized_path(name, ef_chart, tmp_path, monkeypatch):
    """A value column of a 16x32 JSON golden (512 nodes, 406 to 495
    distinct values) reaches the size rule, so it is written in repr's
    layout by the vectorized formatter, byte for byte the golden."""
    vectorized = _count_vectorized(monkeypatch)
    out = tmp_path / "out"
    assert main(golden_argv(name, ef_chart, str(out))) == 0
    assert any(size >= cli._REPR_VECTOR_MIN and shortest for size, shortest in vectorized)
    with open(golden_path(name), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_straightout_solve_json_reads_back_d_bit_for_bit(ef_chart, monkeypatch, capsys):
    """json.loads of a 128x256 straightout --solve --json payload gives
    back the solved d, every float64 bit: an oracle that does not rest on
    repr."""
    solved, solve = [], straightout.solve_straight_out_d
    monkeypatch.setattr(straightout, "solve_straight_out_d",
                        lambda *a, **k: solved.append(solve(*a, **k)) or solved[-1])
    vectorized = _count_vectorized(monkeypatch)
    assert main(["straightout", "--chart", ef_chart, "--grid", "128,256", "--r", "4.7",
                 "--solve", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["rows"]
    d = np.array([row[2] for row in rows])
    assert d.view(np.int64).tolist() == solved[0].d.ravel().view(np.int64).tolist()
    assert (np.unique(d).size, True) in vectorized


@pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
def test_adm_golden_bytes_do_not_depend_on_the_blas_kernel(coretype, tmp_path):
    """adm extrapolates in plain float arithmetic of a fixed order, so a
    process whose OpenBLAS runs the Haswell or the Prescott kernels writes
    the bytes this process writes; a least-squares solve moved a cell by
    one ulp under Haswell."""
    here, there = tmp_path / "here.csv", tmp_path / "there.csv"
    assert main(golden_argv("adm", None, str(here))) == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, OPENBLAS_CORETYPE=coretype,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    subprocess.run([sys.executable, "-m", "imcvf.cli", *golden_argv("adm", None, str(there))],
                   env=env, capture_output=True, timeout=120, check=True)
    assert there.read_bytes() == here.read_bytes()


def test_validate_zero_tolerance_is_kept(ef_chart, capsys):
    """--tol-cond4 0 is a tolerance like any other: the ef chart's rounding
    level cond4 then fails it."""
    assert main(["validate", "--chart", ef_chart, "--json", "--tol-cond4", "0",
                 "--tol-cond3", "1e-6"]) == 2
    payload = json.loads(capsys.readouterr().out)
    row = dict(zip(payload["columns"], payload["rows"][0]))
    assert row["tol_cond4"] == 0.0 and row["tol_cond3"] == 1e-6
    assert 0.0 < row["cond4_max"] < 1e-12 and not row["passed"]


def _csv_cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return v if isinstance(v, str) else "%.17g" % v


def _row_text(args, header, columns, payload):
    """The row-at-a-time text: %.17g per float CSV cell, true/false per
    boolean and the raw text per label, or json.dumps of the whole payload.
    A list column is taken cell by cell, an array column as floats
    broadcast to the array columns' common shape."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns if not isinstance(c, list)))
    rows = list(zip(*(c if isinstance(c, list)
                      else np.ravel(np.broadcast_to(c, shape)).astype(float).tolist()
                      for c in columns)))
    if args.json:
        doc = {"schema": SCHEMA, "command": args.command, "columns": list(header),
               "rows": rows, **(payload or {})}
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return "\n".join([",".join(header)] + [",".join(map(_csv_cell, row)) for row in rows]) + "\n"


WRITER_TABLES = pytest.mark.parametrize("command,header,payload", [
    ("meancurv", ["th", "ph", "H_r", "H_n", "star"], None),
    ("straightout", ["th", "ph", "d"], {"residual_inf": 3.1e-11, "iterations": 3}),
])


@pytest.mark.parametrize("as_json", [False, True])
@WRITER_TABLES
def test_column_writer_matches_row_text(as_json, command, header, payload, capsys, monkeypatch):
    """Node columns formatted once per distinct node, value columns once
    per distinct value: byte for byte the row-wise text, special values,
    subnormals and repeats included.  The node columns come as a column
    and a row.  Three more value columns follow the command's own: a (1, 1)
    constant (H_r of a radial-u chart), a transposed (non-contiguous) one
    and one broadcast along theta.  A 6x8 grid is formatted value by
    value."""
    _check_column_writer(as_json, command, header, payload, (6, 8), capsys, monkeypatch)


@pytest.mark.parametrize("as_json", [False, True])
@WRITER_TABLES
def test_column_writer_matches_row_text_above_the_size_rule(as_json, command, header, payload,
                                                            capsys, monkeypatch):
    """The same tables on a 24x32 grid: its 768 nodes take the vectorized
    path, CSV or JSON, special values falling back inside it."""
    _check_column_writer(as_json, command, header, payload, (24, 32), capsys, monkeypatch)


def _check_column_writer(as_json, command, header, payload, shape, capsys, monkeypatch):
    """_emit on a grid of shape against the row-wise text; the vectorized
    formatter runs exactly when a column reaches its size rule,
    cli._VECTOR_MIN for CSV or cli._REPR_VECTOR_MIN for JSON, in repr's
    layout for JSON."""
    grid = SphereGrid(0.0, 2.0, *shape)
    rng = np.random.default_rng(9)
    values = rng.normal(size=(len(header) - 2,) + shape)
    special = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.5e-310, 1e300, 1 / 3, 1 / 3]
    values[0].flat[:len(special)] = special
    values[-1].flat[-len(special):] = special[::-1]
    if len(values) > 2:
        values[1] = np.repeat([0.1, -0.0, 2.0, np.nan], values[1].size // 4).reshape(shape)
    transposed = rng.normal(size=shape[::-1])
    transposed.flat[::5] = np.resize(special, len(transposed.flat[::5]))
    phi_row = np.resize(special, (1, grid.n_phi))
    header = [*header, "constant", "transposed", "broadcast"]
    columns = _node_columns(grid) + list(values) + [
        np.full((1, 1), -0.38786715231970426), transposed.T, np.broadcast_to(phi_row, shape)]
    assert not columns[-2].flags.c_contiguous and columns[-1].strides[0] == 0
    vectorized = _count_vectorized(monkeypatch)
    args = argparse.Namespace(json=as_json, out=None, command=command)
    _emit(args, header, columns, payload)
    assert capsys.readouterr().out == _row_text(args, header, columns, payload)
    size_rule = cli._REPR_VECTOR_MIN if as_json else cli._VECTOR_MIN
    assert bool(vectorized) == (grid.n_theta * grid.n_phi >= size_rule)
    assert all(shortest == as_json for _, shortest in vectorized)


def _count_vectorized(monkeypatch) -> list:
    """The (size, shortest) of each call of the vectorized formatter, as
    it runs from here on."""
    vectorized, float_text = [], cli._float_text
    monkeypatch.setattr(cli, "_float_text", lambda a, shortest: vectorized.append(
        (a.size, shortest)) or float_text(a, shortest))
    return vectorized


@pytest.mark.parametrize("fmt", [cli._csv_floats, cli._json_floats])
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "broadcast"])
def test_column_strings_formats_each_bit_pattern_once(fmt, layout):
    """48 cells of 0.1, -0.0, 0.0 and nans of two payloads: fmt is handed
    each distinct float64 bit pattern exactly once (-0.0 and 0.0 apart, one
    per nan payload), and the text is fmt's, cell by cell."""
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(np.float64)
    cells = np.resize(np.concatenate([[0.1, -0.0, 0.0], nans]), 48)
    column = {"contiguous": cells.reshape(6, 8), "transposed": cells.reshape(8, 6).T,
              "broadcast": np.broadcast_to(cells[:8], (6, 8))}[layout]
    bits = np.ravel(column).view(np.int64).tolist()
    assert len(set(bits)) == 5
    seen = []

    def counting(a):
        seen.extend(a.view(np.int64).ravel().tolist())
        return fmt(a)

    text = cli._column_strings(column, counting, None, np.shape(column))
    assert sorted(seen) == sorted(set(bits))
    assert text == [fmt(np.array([v]))[0] for v in np.ravel(column)]


@pytest.mark.parametrize("as_json", [False, True])
@pytest.mark.parametrize("command,header,columns,payload", [
    ("validate", ["cond3_max", "degenerate", "passed", "tol_cond3"],
     [[np.float64(9.1e-13)], [False], [True], [1e-10]], None),
    ("adm", ["r", "adm_integral"],
     [[*np.array([10.0, 20.0, 40.0]), "extrapolated"],
      [*np.array([0.5, -0.0, np.nan]), np.inf]],
     {"mass": 0.49, "diverging": True}),
    ("validate", ["h_n_max", "lorentzian_ok"], [[np.nan, 5e-324], [True, False]], None),
])
def test_writer_matches_row_text_on_mixed_cells(as_json, command, header, columns, payload,
                                                capsys):
    """Short tables whose cells mix floats with booleans (validate) or with
    a label (adm's extrapolated row): each cell takes its own text, and the
    bytes are still the row-wise text."""
    args = argparse.Namespace(json=as_json, out=None, command=command)
    _emit(args, header, columns, payload)
    assert capsys.readouterr().out == _row_text(args, header, columns, payload)


def _near_ties(span=8) -> list:
    """Doubles x = M * 2**E whose scaled value x * 10**k, k = 16 - e10 in
    23..45, lies within span * 2**-s of a half-integer but not on one, with
    s = -(k + E): M solves M * 5**k = 2**(s-1) + t (mod 2**s) for
    0 < |t| <= span.  10**k is exact as hi + lo there, but x * lo rounds,
    so p + q may land on the wrong side of the half."""
    out = []
    for e10 in range(-29, -6):
        k = 16 - e10
        first = math.floor(math.log2(10.0 ** e10)) - 52
        for e in range(first, first + 5):
            s = -(k + e)
            inverse = pow(5 ** k, -1, 2 ** s)
            for t in [*range(-span, 0), *range(1, span + 1)]:
                m = (2 ** (s - 1) + t) * inverse % 2 ** s
                x = math.ldexp(m, e)
                if 2 ** 52 <= m < 2 ** 53 and 10 ** 16 <= x * 10.0 ** k < 10 ** 17:
                    out.append(x)
    return out


def _g17_cases() -> np.ndarray:
    """Floats for the differential test of the CSV formatter, in both
    signs: random bit patterns, the powers of ten of the fast range and
    their neighbours, the %g switch points, the fast range's edges, exact
    and near 17-digit ties, and the special values."""
    rng = np.random.default_rng(23)
    powers = [float(f"1e{k}") for k in range(-250, 251)]
    edges = [1e-5, 1e-4, 1e16, 1e17, 99999999999999999.0, 1e-250, 1e250]
    anchors = np.array(powers + edges)
    ties = [1234567890123456.25, 1234567890123456.75, *(m / 2 ** 24 for m in range(3, 16, 2)),
            2 ** -25, 3 * 2 ** -25, *_near_ties()]
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001]).view(np.float64)
    special = [0.0, np.inf, *nans, 5e-324, np.finfo(float).max]
    cases = np.concatenate([
        rng.integers(0, 2 ** 64, size=200_000, dtype=np.uint64).view(np.float64),
        anchors, np.nextafter(anchors, 0.0), np.nextafter(anchors, np.inf), ties, special])
    return np.concatenate([cases, -cases])


def test_csv_floats_match_percent_g_byte_for_byte():
    """The vectorized CSV formatter writes what "%.17g" % v writes for each
    case of _g17_cases, ties rounded half to even."""
    cases = _g17_cases()
    assert cases.size >= cli._VECTOR_MIN
    text = cli._csv_floats(cases)
    wrong = [(v.hex(), got, "%.17g" % v) for v, got in zip(cases.tolist(), text)
             if got != "%.17g" % v]
    assert not wrong, wrong[:10]
    at = dict(zip(cases.tolist(), text))
    assert at[1234567890123456.25] == "1234567890123456.2"
    assert at[1234567890123456.75] == "1234567890123456.8"


def test_json_floats_match_repr_byte_for_byte():
    """The vectorized JSON formatter writes what repr writes (nan and the
    infinities as json writes them) for each case: those of _g17_cases,
    k/64 and k * 0.1, decimals of 3 places, integers to 1e15, log-uniform
    values across the fixed/exponent switch and in [1e-6, 1e-3], powers of
    two (whose rounding interval is lopsided) and their neighbours, and
    the switch points."""
    rng = np.random.default_rng(25)
    k = np.arange(1, 100_001)
    powers = np.ldexp(1.0, np.arange(-800, 801))
    cases = np.concatenate([
        _g17_cases(), k / 64, k * 0.1, np.round(rng.normal(scale=1e3, size=100_000), 3),
        rng.integers(0, 10 ** 15, size=100_000, endpoint=True).astype(float),
        10 ** rng.uniform(14, 18, size=100_000), 10 ** rng.uniform(-6, -3, size=100_000),
        powers, np.nextafter(powers, 0.0), np.nextafter(powers, np.inf),
        [1e15, 1e16, 1e-4, 1e-5]])
    assert cases.size >= cli._REPR_VECTOR_MIN
    text = cli._json_floats(cases)
    expected = [cli._JSON_NONFINITE.get(s, s) for s in map(repr, cases.tolist())]
    wrong = [(v.hex(), got, want) for v, got, want in zip(cases.tolist(), text, expected)
             if got != want]
    assert not wrong, wrong[:10]
    at = dict(zip(cases.tolist(), text))
    assert (at[1e15], at[1e16], at[1e-4], at[1e-5], at[2.0]) == (
        "1000000000000000.0", "1e+16", "0.0001", "1e-05", "2.0")


def test_pow10_table_is_exact_to_2_to_the_minus_104():
    """Each hi + lo of the formatter's table is 10**k to 2**-104 relative."""
    hi, lo = cli._pow10()
    for k, h, low in zip(range(cli._K_MIN, cli._K_MAX + 1), hi.tolist(), lo.tolist()):
        exact = Fraction(10) ** k
        assert abs(Fraction(h) + Fraction(low) - exact) <= exact / 2 ** 104, k


# ---------------------------------------------------------------------------
# property: every subcommand exits in {0, 1, 2, 3} and never with a traceback
# ---------------------------------------------------------------------------

_HOSTILE = ["exp(r^3)", "1+r/1e200", "log(r-2)", "1/(r-2)", "sqrt(2-r)", "r^(-2)",
            "tan(th)^2", "0", "-1", "1e200*r", "sin(th)^2*cos(ph)"]
_GARBAGE = ["r^", "q*r", "sin(", "4^512", "(1-1)^(-2)", "1/(2-2)", ""]


@st.composite
def _charts(draw):
    """Chart documents: a windowed seed chart (d = 0, or d left to the
    builder), then mostly unchanged, else with one hostile or malformed
    component, a component missing, or a parameter."""
    ins = seed_inputs(draw(st.sampled_from(["e", "f", "a", "ef", "ea", "c"])),
                      draw(st.sampled_from([0.1, 1e-2, 0.5])))
    doc = dict(ins, b=f"(r^4*sin(th)^2+({ins['c']})^2)/({ins['a']})", d="0")
    doc["u"] = draw(st.sampled_from([ins["u"], "1", "1+1/r", "(1-2/r)^(-0.5)"]))
    change = draw(st.sampled_from(["none"] * 4 + ["solve_d", "hostile", "garbage",
                                                  "drop", "params"]))
    key = draw(st.sampled_from(sorted(COMPONENTS)))
    if change == "solve_d":
        del doc["d"]
        doc["solve_d"] = True
    elif change == "hostile":
        doc[key] = draw(st.sampled_from(_HOSTILE))
    elif change == "garbage":
        doc[key] = draw(st.sampled_from(_GARBAGE))
    elif change == "drop":
        del doc[key]
    elif change == "params":
        doc["params"] = {"q": draw(st.sampled_from([0.1, -2.0, 1e200]))}
        doc[key] = f"q*sin(th)^9*cos(ph)+({doc[key]})"
    return doc


_RADII = st.lists(st.sampled_from(["2", "3.5", "8"] * 2 + ["0.5", "0", "-1", "1e200"]),
                  min_size=1, max_size=3).map(",".join)
_RADIUS = st.sampled_from(["2", "4.7", "3"] * 2 + ["0.5", "1e-3", "0", "-1", "1e200", "x"])
_POINT = st.one_of(
    st.tuples(st.sampled_from(["0", "1"]), st.sampled_from(["2.5", "4", "1e-9", "0", "1e200"]),
              st.sampled_from(["1", "2.5", "1e-9", "3.2"]), st.sampled_from(["0", "4"])),
    st.lists(st.sampled_from(["0", "2.5", "-1", "1e200"]), min_size=3, max_size=5)).map(
        ",".join)
_GRID = ["--grid", "8,16"]
_ARGS = {
    "validate": st.one_of(st.just([]), _RADII.map(lambda r: ["--r-values", r])),
    "build": st.sampled_from([["--solve-d"], []]),
    "curvature": st.lists(_POINT, min_size=1, max_size=2).map(
        lambda p: ["--points", ";".join(p)]),
    "hawking": _RADII.map(lambda r: _GRID + ["--r", r]),
    "meancurv": st.tuples(_RADIUS, st.sampled_from(["closed", "trace"])).map(
        lambda a: _GRID + ["--r", a[0], "--method", a[1]]),
    "steer": _RADIUS.map(lambda r: _GRID + ["--r", r]),
    "straightout": st.tuples(_RADIUS, st.sampled_from([[], ["--solve"]])).map(
        lambda a: _GRID + ["--r", a[0], *a[1]]),
    "flowscan": st.tuples(st.sampled_from(["1.5", "3", "0.5", "0", "-1"]),
                          st.sampled_from(["10", "4", "1e200"]),
                          st.sampled_from(["4", "8", "1", "0", "x"])).map(
        lambda a: ["--r-range", ":".join(a)]),
    "adm": st.tuples(st.sampled_from(["1+{k}/(2*r)", "1+{k}/r^2", "exp({k}*r)", "r^{k}", "{k}",
                                      "log(r-{k})", "1+{k}*r/1e200", "4^512", "r^"]),
                     st.sampled_from(["1", "0.5", "-2", "0", "1e200"]), _RADII).map(
        lambda a: ["--factor", a[0].format(k=a[1]), "--radii", a[2]]),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")   # hostile charts overflow on purpose
@pytest.mark.parametrize("command", sorted(_ARGS))
@settings(max_examples=50, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_exit_codes_on_random_charts(command, data):
    """Every subcommand, on random charts and arguments at 8x16, exits with
    0, 1, 2 or 3 and writes no traceback to stderr."""
    doc = data.draw(_charts())
    argv = [command, *data.draw(_ARGS[command]), *data.draw(st.sampled_from([[], ["--json"]]))]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "chart.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        if command != "adm":
            argv += ["--chart", path]
        if command == "build":
            argv += ["--out", os.path.join(tmp, "full.json")]
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3), (argv, doc, code)
    assert "Traceback" not in err.getvalue(), (argv, doc)
