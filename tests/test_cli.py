"""CLI subcommands: exit codes, determinism, file round trips."""

import argparse
import contextlib
import io
import json
import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from imcvf.chart import COMPONENTS
from imcvf.cli import _emit, _emit_columns, main

from conftest import seed_inputs

MINKOWSKI = {"v": "1", "d": "0", "e": "0", "f": "0", "u": "1",
             "a": "r^2", "b": "r^2*sin(th)^2", "c": "0"}

SCHWARZSCHILD = {"v": "(1-2*m/r)^0.5", "d": "0", "e": "0", "f": "0",
                 "u": "(1-2*m/r)^(-0.5)", "a": "r^2", "b": "r^2*sin(th)^2",
                 "c": "0", "params": {"m": 1.0}}


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
    real = cli.hawking_mass
    monkeypatch.setattr(cli, "hawking_mass",
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

    monkeypatch.setattr(cli, "hawking_mass", fake)
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
    # forced compatibility failure reports exit code 2
    assert main(["straightout", "--chart", str(full), "--grid", "16,32",
                 "--r", "2.0", "--solve", "--compat-tol", "-1"]) == 2


def test_flowscan(tmp_path, capsys):
    path = tmp_path / "schw.json"
    path.write_text(json.dumps(SCHWARZSCHILD))
    assert main(["flowscan", "--chart", str(path), "--r-range", "3:10:16"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "r,m_H,dmH_ds,G_tt"
    for line in lines[1:]:
        r, m_h, dm, gtt = (float(x) for x in line.split(","))
        assert abs(m_h - 1.0) <= 1e-10


def test_usage_error_exit_1():
    assert main(["validate"]) == 1                      # missing --chart
    assert main(["adm", "--factor", "1+q", "--radii", "10,20,40"]) == 1


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
# before the separable env and the single jet evaluator; the grid commands
# must keep reproducing them byte for byte.
DATA = os.path.join(os.path.dirname(__file__), "data")
GOLDEN = {
    "meancurv_closed": ["meancurv", "--grid", "16,32", "--r", "4.7", "--method", "closed"],
    "meancurv_trace": ["meancurv", "--grid", "16,32", "--r", "4.7", "--method", "trace"],
    "steer": ["steer", "--grid", "16,32", "--r", "4.7"],
    "straightout": ["straightout", "--grid", "16,32", "--r", "4.7"],
    "straightout_solve": ["straightout", "--grid", "16,32", "--r", "4.7", "--solve"],
    "hawking": ["hawking", "--grid", "16,32", "--r", "2,3.5,5,8"],
}


@pytest.fixture(scope="module")
def ef_chart(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("ef")
    ins = seed_inputs("ef", 0.1)
    doc = dict(ins, b=f"(r^4*sin(th)^2+({ins['c']})^2)/({ins['a']})", solve_d=True)
    seed, full = tmp / "seed.json", tmp / "full.json"
    seed.write_text(json.dumps(doc))
    assert main(["build", "--chart", str(seed), "--solve-d", "--out", str(full)]) == 0
    return str(full)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_grid_output_matches_golden_bytes(name, ef_chart, tmp_path):
    command, *rest = GOLDEN[name]
    out = tmp_path / "out.csv"
    assert main([command, "--chart", ef_chart, *rest, "--out", str(out)]) == 0
    with open(os.path.join(DATA, f"ef_16x32_{name}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("as_json", [False, True])
def test_column_output_equals_row_output(as_json, capsys):
    """Grid commands format whole rows from float columns; the text must be
    what the per-cell row path prints, special values included."""
    cols = [np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 1e300, 1 / 3, -2.5e-310]),
            np.linspace(-1.0, 1.0, 8)]
    args = argparse.Namespace(json=as_json, out=None, command="meancurv")
    _emit(args, ["x", "y"], [[c[i] for c in cols] for i in range(8)])
    by_rows = capsys.readouterr().out
    _emit_columns(args, ["x", "y"], cols)
    assert capsys.readouterr().out == by_rows


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
