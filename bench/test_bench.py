"""Tests of the benchmark itself: answer checks, input generator, smoke runs.

    python3 -m pytest bench -q
"""

import csv
import json
import os
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads as W

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def chart():
    return W.draw_chart(random.Random(3), "ef")


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _job(name, seed, workdir, fixed=()):
    wl = W.WORKLOADS[name]
    return wl.make_job(W.job_rng(seed, wl), 0, fixed, str(workdir))


def _fixed(workdir, chart):
    return [(chart, str(workdir / "chart.json"))]


# ---------------------------------------------------------------------------
# each answer check accepts the right answer and rejects a planted wrong one
# ---------------------------------------------------------------------------

def test_hawking_check_rejects_shifted_mass(tmp_path, chart):
    [step] = _job("hawking_sweep", 1, tmp_path, _fixed(tmp_path, chart))
    radii = [float(r) for r in step.argv[step.argv.index("--r") + 1].split(",")]
    rows = [[repr(r), repr(chart.hawking_mass(0.0, r))] for r in radii]
    _write_csv(step.out, ["r", "m_H"], rows)
    assert step.check(0) is None
    assert step.check(3) == "exit code 3"
    rows[2][1] = repr(float(rows[2][1]) + 1e-6)
    _write_csv(step.out, ["r", "m_H"], rows)
    assert "m_H" in step.check(0)


def test_straightout_check_rejects_large_residual(tmp_path, chart):
    [step] = _job("straightout_solve", 1, tmp_path, _fixed(tmp_path, chart))
    payload = {"rows": [[0.0, 0.0, 0.0]] * (128 * 256), "residual_inf": 1e-12,
               "iterations": 3}
    with open(step.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert step.check(0) is None
    assert step.counts["straightout.picard_iters"] == 3
    assert step.check(2) == "exit code 2"
    payload["residual_inf"] = 1e-5
    with open(step.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
    assert "residual_inf" in step.check(0)


def test_sphere_field_checks_reject_wrong_fields(tmp_path, chart):
    mc, steer, *others = _job("sphere_fields", 1, tmp_path, _fixed(tmp_path, chart))
    assert [s.argv[0] for s in others] == ["meancurv", "steer"]
    r = float(mc.argv[mc.argv.index("--r") + 1])
    h_r = -2.0 / (r * chart.u.value(0.0, r))
    n = 64 * 128
    _write_csv(mc.out, ["th", "ph", "H_r", "H_n", "star"], [[1, 0, h_r, 1e-12, 0]] * n)
    _write_csv(steer.out, ["th", "ph", "Q"], [[1, 0, 1e-14]] * n)
    assert mc.check(0) is None and steer.check(0) is None
    assert mc.check(1) == "exit code 1" and steer.check(1) == "exit code 1"
    _write_csv(mc.out, ["th", "ph", "H_r", "H_n", "star"], [[1, 0, h_r * (1 + 1e-6), 0, 0]] * n)
    assert "H_r" in mc.check(0)
    _write_csv(mc.out, ["th", "ph", "H_r", "H_n", "star"], [[1, 0, h_r, 1e-6, 0]] * n)
    assert "H_n" in mc.check(0)
    _write_csv(steer.out, ["th", "ph", "Q"], [[1, 0, 1e-8]] * n)
    assert "Q" in steer.check(0)
    _write_csv(steer.out, ["th", "ph", "Q"], [[1, 0, 0.0]] * (n - 1))
    assert "rows" in steer.check(0)


def test_chart_build_checks_reject_wrong_answers(tmp_path):
    build, validate, curv, flow, adm = _job("chart_build", 1, tmp_path)
    assert build.check(0) is None and build.check(1) == "exit code 1"
    assert validate.check(0) is None and validate.check(2) == "exit code 2"

    seed_doc = json.loads((tmp_path / "seed.json").read_text())
    spec = curv.argv[curv.argv.index("--points") + 1]
    points = [tuple(float(x) for x in p.split(",")) for p in spec.split(";")]
    v_bump = seed_doc["v"]
    chart = W.draw_chart(W.job_rng(1, W.WORKLOADS["chart_build"]), W.CHART_KINDS[0])
    assert chart.v.source() == v_bump      # the job drew this chart first
    rows = []
    for t, r, _th, _ph in points:
        ric, scal = 0.3, -0.2
        rows.append({"Ric_tt": ric, "R": scal, "G_tt": ric + 0.5 * scal * chart.v.value(t, r) ** 2})
    _write_csv(curv.out, list(rows[0]), [list(row.values()) for row in rows])
    assert curv.check(0) is None
    rows[1]["G_tt"] += 1e-6
    _write_csv(curv.out, list(rows[0]), [list(row.values()) for row in rows])
    assert "G_tt" in curv.check(0)

    flow_path = flow.argv[flow.argv.index("--out") + 1]
    with open(flow_path, "w", encoding="utf-8") as fh:
        json.dump({"identity_err_max": 3e-16}, fh)
    assert flow.check(0) is None and flow.check(2) == "exit code 2"
    with open(flow_path, "w", encoding="utf-8") as fh:
        json.dump({"identity_err_max": 1e-6}, fh)
    assert "identity_err_max" in flow.check(0)

    mass = float(adm.argv[adm.argv.index("--factor") + 1][2:].split("/")[0])
    with open(adm.out, "w", encoding="utf-8") as fh:
        json.dump({"mass": mass + 3e-5}, fh)
    assert adm.check(0) is None
    with open(adm.out, "w", encoding="utf-8") as fh:
        json.dump({"mass": mass + 1e-2}, fh)
    assert "ADM" in adm.check(0)


def test_failed_step_fails_the_job(tmp_path, chart):
    def fake_main(argv):
        return 3

    steps = _job("hawking_sweep", 1, tmp_path, _fixed(tmp_path, chart))
    seconds, failure, _bytes, _counts = run.run_job(fake_main, steps)
    assert failure.startswith("hawking: exit code 3") and seconds >= 0.0

    def raising_main(argv):
        raise RuntimeError("boom")

    _s, failure, _b, _c = run.run_job(raising_main, steps)
    assert failure == "hawking: RuntimeError: boom"


# ---------------------------------------------------------------------------
# the generator is deterministic in its seed
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_generator_is_deterministic(tmp_path, name):
    wl = W.WORKLOADS[name]
    assert W.fixed_charts(5, wl) == W.fixed_charts(5, wl)
    fixed = [(c, str(tmp_path / f"chart{k}.json")) for k, c in enumerate(W.fixed_charts(5, wl))]

    def argvs(seed):
        rng = W.job_rng(seed, wl)
        out = []
        for i in range(6):
            steps = wl.make_job(rng, i, fixed, str(tmp_path))
            seed_file = tmp_path / "seed.json"
            out.append(([s.argv for s in steps],
                        seed_file.read_text() if seed_file.exists() else None))
        return out

    assert argvs(5) == argvs(5)
    assert argvs(5) != argvs(6)


def test_bump_source_matches_value():
    bump = W.Bump(amp=0.2, centre=3.0, width=2.0, tmod=0.1)
    assert bump.source() == "1+0.2*exp(-((r-3.0)/2.0)^2)*(1+0.1*sin(t))"
    assert bump.value(0.0, 3.0) == pytest.approx(1.2, abs=1e-15)


# ---------------------------------------------------------------------------
# the benchmark definition and the runs
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == [
        "setup_s", "job_p50_s", "job_p90_s", "jobs_per_s", "peak_rss_mib"]
    layer = [(m[0], m[1], m[2]) for m in run.LAYER_METRICS] + list(run.OTHER_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layer


def _bench(workload, trace, cwd=ROOT, seconds="1"):
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                           "--seed", str(W.DEV_SEED), "--seconds", seconds, "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_smoke_run_has_no_failures(name):
    proc = _bench(name, 0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result, report = json.loads(lines[-1]), json.loads(lines[-2])["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and report["failed_ratio"] == 0.0
    assert set(result["metrics"]) == {"setup_s", "job_p50_s", "job_p90_s", "jobs_per_s",
                                      "peak_rss_mib"}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(W.WORKLOADS))
def test_traced_smoke_run_reports_every_layer_and_its_zeros(name):
    proc = _bench(name, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    expected = [x[0] for x in run.LAYER_METRICS] + [x[0] for x in run.OTHER_METRICS]
    assert list(m) == expected
    assert all(m[f"{layer}.errors"] == 0 for layer in run.LAYERS)
    assert m["cli.main.calls"] > 0 and m["expr.evaluate.calls"] > 0
    if name == "hawking_sweep":
        assert m["grid.sht.calls"] == 0 and m["cli.pool_busy_ratio"] > 0
    else:
        assert m["cli.pool_busy_ratio"] == 0
    if name in ("straightout_solve", "sphere_fields"):
        assert m["curvature.christoffel_values.calls"] == 0
    steering = m["steering.frame_data.self_s"] + m["steering.steering_parameter.self_s"]
    assert (steering > 0) == (name == "sphere_fields")
    if name == "straightout_solve":
        assert m["grid.sht.calls"] > 0 and m["straightout.picard_iters"] > 0


def test_counts_repeat_exactly_for_a_seed():
    first, second = (json.loads(_bench("sphere_fields", 1).stdout.strip().splitlines()[-1])
                     for _ in range(2))
    for name in ("expr.evaluate.calls", "expr.evaluate.points", "grid.SphereGrid.calls",
                 "cli.output_bytes"):
        assert first["metrics"][name] == second["metrics"][name]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("chart_build", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
