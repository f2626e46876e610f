"""Benchmark of the imcvf command line, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src.  One client runs jobs in a closed loop in this process: a job is one
or more real CLI commands called through ``imcvf.cli.main(argv)``, each
writing to ``--out``, and each answer is checked against an oracle in
bench/workloads.py that does not use imcvf.  Jobs cycle through the
workload's fixed charts (or, in chart_build, the chart kinds) and the loop
stops once S seconds have passed, on a whole round of kinds.  The benchmark
starts no threads; the ``hawking`` pool runs at the program's default, and
IMCVF_THREADS and the BLAS thread variables are recorded, never set.

Inputs come from --seed alone (development seed 1, held-out seed 4099;
see bench/workloads.py).  Every run first prints an environment record.

--trace 0 prints the end-to-end metrics:
  setup_s       median over 12 fresh interpreters, started between jobs,
                of the time from this script's first line to import imcvf
                plus the workload's fixed-chart builds
  job_p50_s     median CLI wall time of one job
  job_p90_s     90th percentile of the same samples
  jobs_per_s    completed jobs per second of CLI wall time
  peak_rss_mib  peak resident memory of this process
failed_ratio (failed / attempted jobs) is printed with the report and
carried by the result line's ``failed`` and ``attempted``.

--trace 1 runs the same job sequence twice, untraced and then traced with
bench/tracer.py wrapped around the public functions of each layer, and
prints the per-layer metrics, per job: counts (calls, errors, work, Picard
iterations, output bytes) over the first ``count_jobs`` jobs, which repeat
exactly for a seed, and self times over all traced jobs.
trace.overhead_ratio is traced over untraced CLI time on the same jobs,
minus one.

The last line of standard output is the result object; results and spans
are also written under .bench_work/results/.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_STARTS = 12
sys.path.insert(0, HERE)

from tracer import TARGETS, Tracer, summarize  # noqa: E402
from workloads import WORKLOADS, fixed_charts, job_rng  # noqa: E402


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# set-up and jobs
# ---------------------------------------------------------------------------

def setup(wl, seed: int, workdir: str):
    """Import imcvf from ./src and build the workload's fixed charts.

    Returns (cli module, [(Chart, chart path)])."""
    if not os.path.isfile(os.path.join(SRC, "imcvf", "__init__.py")):
        raise BenchError(f"no imcvf sources under {SRC}")
    sys.path.insert(0, SRC)
    import imcvf.cli as cli
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        raise BenchError(f"imported imcvf from {cli.__file__}, not from {SRC}")
    os.makedirs(workdir, exist_ok=True)
    fixed = []
    for k, chart in enumerate(fixed_charts(seed, wl)):
        seed_path = os.path.join(workdir, f"seed{k}.json")
        full = os.path.join(workdir, f"chart{k}.json")
        with open(seed_path, "w", encoding="utf-8") as fh:
            json.dump(chart.seed_doc(), fh)
        code, err = _call(cli.main, ["build", "--chart", seed_path, "--solve-d", "--out", full])
        if code != 0:
            raise BenchError(f"building fixed chart {k} exited {code}: {err[-500:]}")
        fixed.append((chart, full))
    return cli, fixed


def _call(main, argv):
    """main(argv) with its stdout and stderr captured; returns (code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def run_job(main, steps):
    """Run a job's steps in order.  Returns (cli seconds, failure or None,
    output bytes, counts); the first failing step ends the job."""
    seconds, out_bytes, counts = 0.0, 0, {}
    for step in steps:
        with contextlib.suppress(FileNotFoundError):
            os.remove(step.out)
        start = time.perf_counter()
        try:
            code, err = _call(main, step.argv)
        except Exception as exc:  # a job fails on any exception; the loop goes on
            seconds += time.perf_counter() - start
            return seconds, f"{step.argv[0]}: {type(exc).__name__}: {exc}", out_bytes, counts
        seconds += time.perf_counter() - start
        if os.path.exists(step.out):
            out_bytes += os.path.getsize(step.out)
        try:
            reason = step.check(code)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            reason = f"unreadable output: {type(exc).__name__}: {exc}"
        for key, value in step.counts.items():
            counts[key] = counts.get(key, 0) + value
        if reason:
            return seconds, f"{step.argv[0]}: {reason}; stderr: {err[-300:]!r}", out_bytes, counts
    return seconds, None, out_bytes, counts


def run_pass(cli, wl, seed, fixed, workdir, *, seconds=None, min_jobs=0, n_jobs=None,
             tracer=None, probes=None):
    """Closed loop: jobs until ``seconds`` have passed on a whole round
    (and at least ``min_jobs``), or exactly ``n_jobs``.
    Due set-up probes run between jobs, outside the job timings."""
    rng = job_rng(seed, wl)
    results = []
    start = time.perf_counter()
    while True:
        i = len(results)
        if n_jobs is not None:
            if i >= n_jobs:
                break
        elif i % wl.round_len == 0 and i >= min_jobs and time.perf_counter() - start >= seconds:
            break
        steps = wl.make_job(rng, i, fixed, workdir)
        if tracer is not None:
            tracer.job = i
        results.append(run_job(cli.main, steps))
        if probes is not None:
            probes.run_due(time.perf_counter() - start)
    return results


class SetupProbes:
    """Set-up time of SETUP_STARTS fresh interpreters, each running import
    imcvf plus the workload's fixed-chart builds.  The starts are spread
    evenly over the timed run, so that one slow spell of a shared machine
    does not cover them all."""

    def __init__(self, wl, seed: int, tag: str, seconds: float):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--workload", wl.name,
                    "--seed", str(seed), "--setup-probe"]
        self.workdir = os.path.join(WORK, f"{tag}-probe")
        self.every = seconds / SETUP_STARTS
        self.times: list = []

    def run_due(self, elapsed: float) -> None:
        while len(self.times) < SETUP_STARTS and elapsed >= len(self.times) * self.every:
            self._probe()

    def finish(self) -> list:
        while len(self.times) < SETUP_STARTS:
            self._probe()
        return self.times

    def _probe(self) -> None:
        try:
            proc = subprocess.run(self.cmd + [self.workdir], cwd=ROOT, capture_output=True,
                                  text=True, timeout=120)
        finally:
            shutil.rmtree(self.workdir, ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr[-500:]}")
        self.times.append(float(proc.stdout.strip().splitlines()[-1]))


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end(results, setup_times) -> dict:
    times = [r[0] for r in results if r[1] is None]
    if len(times) < 2:
        raise BenchError(f"only {len(times)} jobs completed")
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "job_p50_s": (statistics.median(times), "s"),
        "job_p90_s": (statistics.quantiles(times, n=10, method="inclusive")[-1], "s"),
        "jobs_per_s": (len(times) / sum(times), "1/s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


LAYERS = ("expr", "chart", "curvature", "grid", "sphere", "builder", "steering",
          "straightout", "asymptotics", "cli")
SHT = tuple(f"grid.SphereGrid.{m}" for m in ("d_theta", "d2_theta", "d_phi", "div_tangent",
                                             "laplacian_round", "solve_poisson_round"))

# (metric, unit, better, spans summed, field); counts are per job over the
# first count_jobs jobs, self times per job over every traced job
LAYER_METRICS = [
    ("expr.evaluate.calls", "count/job", "lower", ("expr.evaluate",), "calls"),
    ("expr.evaluate.self_s", "s/job", "lower", ("expr.evaluate",), "self_s"),
    ("expr.evaluate.points", "count/job", "lower", ("expr.evaluate",), "work"),
    ("expr.diff.calls", "count/job", "lower", ("expr.diff",), "calls"),
    ("expr.diff.self_s", "s/job", "lower", ("expr.diff",), "self_s"),
    ("expr.parse.self_s", "s/job", "lower", ("expr.parse",), "self_s"),
    ("expr.to_source.self_s", "s/job", "lower", ("expr.to_source",), "self_s"),
    ("chart.load_chart.self_s", "s/job", "lower", ("chart.load_chart",), "self_s"),
    ("chart.save_chart.self_s", "s/job", "lower", ("chart.save_chart",), "self_s"),
    ("chart.inverse_values.self_s", "s/job", "lower", ("chart.inverse_values",), "self_s"),
    ("chart.BlockMetric.deriv.calls", "count/job", "lower", ("chart.BlockMetric.deriv",), "calls"),
    ("curvature.christoffel_values.calls", "count/job", "lower",
     ("curvature.christoffel_values",), "calls"),
    ("curvature.christoffel_values.self_s", "s/job", "lower",
     ("curvature.christoffel_values",), "self_s"),
    ("curvature.christoffel_values.bytes_computed", "B/job", "lower",
     ("curvature.christoffel_values",), "work"),
    ("curvature.curvature_values.self_s", "s/job", "lower",
     ("curvature.curvature_values",), "self_s"),
    ("grid.SphereGrid.calls", "count/job", "lower", ("grid.SphereGrid.__init__",), "calls"),
    ("grid.SphereGrid.self_s", "s/job", "lower", ("grid.SphereGrid.__init__",), "self_s"),
    ("grid.sht.calls", "count/job", "lower", SHT, "calls"),
    ("grid.sht.self_s", "s/job", "lower", SHT, "self_s"),
    ("grid.solve_poisson_round.calls", "count/job", "lower",
     ("grid.SphereGrid.solve_poisson_round",), "calls"),
    ("sphere.surface_fields.calls", "count/job", "lower", ("sphere.surface_fields",), "calls"),
    ("sphere.surface_fields.self_s", "s/job", "lower", ("sphere.surface_fields",), "self_s"),
    ("sphere.mean_curvature_values.self_s", "s/job", "lower",
     ("sphere.mean_curvature_values",), "self_s"),
    ("sphere.hawking_mass.self_s", "s/job", "lower", ("sphere.hawking_mass",), "self_s"),
    ("builder.solve_d.self_s", "s/job", "lower", ("builder.solve_d",), "self_s"),
    ("builder.complete_chart_file.self_s", "s/job", "lower",
     ("builder.complete_chart_file",), "self_s"),
    ("builder.validate_chart.self_s", "s/job", "lower", ("builder.validate_chart",), "self_s"),
    ("builder.monotonicity_check_spherical.self_s", "s/job", "lower",
     ("builder.monotonicity_check_spherical",), "self_s"),
    ("steering.frame_data.self_s", "s/job", "lower", ("steering.frame_data",), "self_s"),
    ("steering.steering_parameter.self_s", "s/job", "lower",
     ("steering.steering_parameter",), "self_s"),
    ("straightout.solve_straight_out_d.self_s", "s/job", "lower",
     ("straightout.solve_straight_out_d",), "self_s"),
    ("asymptotics.adm_mass.self_s", "s/job", "lower", ("asymptotics.adm_mass",), "self_s"),
    ("cli.main.calls", "count/job", "lower", ("cli.main",), "calls"),
    ("cli.main.self_s", "s/job", "lower", ("cli.main",), "self_s"),
]
# metrics that do not come from summing spans
OTHER_METRICS = [
    ("straightout.picard_iters", "count/job", "lower"),
    ("cli.output_bytes", "B/job", "lower"),
    ("cli.pool_busy_ratio", "1", "higher"),
    *((f"{layer}.errors", "count/job", "lower") for layer in LAYERS),
    ("trace.overhead_ratio", "1", "lower"),
]


def per_layer(summary, untraced, traced, count_jobs) -> dict:
    spans = summary["spans"]

    def total(names, fld):
        return sum(spans[n][fld] for n in names if n in spans)

    out = {}
    for name, unit, _better, names, fld in LAYER_METRICS:
        out[name] = (total(names, fld) / (len(traced) if fld == "self_s" else count_jobs), unit)
    counted = traced[:count_jobs]
    out["straightout.picard_iters"] = (
        sum(r[3].get("straightout.picard_iters", 0) for r in counted) / count_jobs, "count/job")
    out["cli.output_bytes"] = (sum(r[2] for r in counted) / count_jobs, "B/job")
    out["cli.pool_busy_ratio"] = (summary["pool_busy_ratio"], "1")
    for layer in LAYERS:
        names = [f"{layer}.{q}" for q in TARGETS[layer]]
        out[f"{layer}.errors"] = (total(names, "errors") / count_jobs, "count/job")
    out["trace.overhead_ratio"] = (
        sum(r[0] for r in traced) / sum(r[0] for r in untraced) - 1.0, "1")
    return out


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------

def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        ref = head[5:]
        sha = _read(os.path.join(ROOT, ".git", ref))
        if not sha:
            for line in _read(os.path.join(ROOT, ".git", "packed-refs")).splitlines():
                if line.endswith(" " + ref):
                    sha = line.split()[0]
        return sha or "unknown"
    return head or "unknown (not a git checkout)"


def _cpu_model() -> str:
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _cache_size(level: int) -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    for idx in range(8):
        if _read(f"{base}/index{idx}/level") == str(level) and \
                _read(f"{base}/index{idx}/type") in ("Unified", "Data"):
            return _read(f"{base}/index{idx}/size")
    return "unknown"


def environment(workload_name: str) -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "env": {k: os.environ.get(k) for k in
                ("IMCVF_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
        "git_commit": _git_commit(),
        "workloads": {name: wl.why for name, wl in WORKLOADS.items()},
        "workload": workload_name,
    }


# ---------------------------------------------------------------------------

def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", metavar="WORKDIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def bench(args) -> dict:
    wl = WORKLOADS[args.workload]
    tag = f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir = os.path.join(WORK, tag)
    try:
        cli, fixed = setup(wl, args.seed, workdir)
        env = environment(wl.name)
        print(json.dumps({"environment": env}), flush=True)
        if args.trace:
            untraced = run_pass(cli, wl, args.seed, fixed, workdir, seconds=args.seconds / 2,
                                min_jobs=wl.count_jobs)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_pass(cli, wl, args.seed, fixed, workdir, n_jobs=len(untraced),
                                  tracer=tracer)
            finally:
                tracer.uninstall()
            results = untraced + traced
            metrics = per_layer(summarize(tracer, wl.count_jobs, cli.thread_count()),
                                untraced, traced, wl.count_jobs)
        else:
            probes = SetupProbes(wl, args.seed, tag, args.seconds)
            results = run_pass(cli, wl, args.seed, fixed, workdir, seconds=args.seconds,
                               min_jobs=wl.count_jobs, probes=probes)
            metrics = end_to_end(results, probes.finish())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = [r[1] for r in results if r[1] is not None]
    completed = [r[0] for r in results if r[1] is None]
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "jobs_attempted": len(results), "jobs_completed": len(completed),
              "failed_ratio": len(failures) / len(results),
              "failures": failures[:5]}
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    print(json.dumps({"report": report}), flush=True)
    result = {"correct": not failures, "attempted": len(results), "failed": len(failures),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results", f"{wl.name}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({"environment": env, "report": report, "result": result}, fh, indent=2)
    if args.trace:
        tracer.save(stem + "-spans.npz")
    return result


def main(argv=None) -> int:
    args = _args(argv)
    try:
        if args.setup_probe:
            setup(WORKLOADS[args.workload], args.seed, args.setup_probe)
            print(f"{time.perf_counter() - T_START!r}")
            return 0
        result = bench(args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
