"""Seeded inputs, jobs and answer checks for the benchmark workloads.

Nothing here imports imcvf.  Every chart the benchmark hands to the
program is a windowed perturbation (kinds e/f/a/c and combinations) of a
background with a radial bump u(t, r) and v(r), whose parameters the
benchmark draws itself, so each check evaluates u and v in plain Python.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

WINDOW = "sin(th)^9"
CHART_KINDS = ("e", "f", "ef", "ea", "c", "ac")


@dataclass(frozen=True)
class Bump:
    """1 + amp * exp(-((r - centre) / width)^2) * (1 + tmod * sin(t))."""

    amp: float
    centre: float
    width: float
    tmod: float = 0.0

    def source(self) -> str:
        body = f"{self.amp!r}*exp(-((r-{self.centre!r})/{self.width!r})^2)"
        if self.tmod:
            body += f"*(1+{self.tmod!r}*sin(t))"
        return "1+" + body

    def value(self, t: float, r: float) -> float:
        bump = self.amp * math.exp(-((r - self.centre) / self.width) ** 2)
        return 1.0 + bump * (1.0 + self.tmod * math.sin(t))


@dataclass(frozen=True)
class Chart:
    """A seed chart: background bumps plus one windowed perturbation."""

    kind: str
    eps: float
    u: Bump
    v: Bump

    def seed_doc(self) -> dict:
        """Chart JSON with b from the area constraint and d left to the builder."""
        a, c, e, f = "r^2", "0", "0", "0"
        w = f"{self.eps!r}*{WINDOW}"
        if "e" in self.kind:
            e = f"{w}*cos(ph)"
        if "f" in self.kind:
            f = f"{w}*sin(ph)"
        if "a" in self.kind:
            a = f"r^2*(1+{w}*cos(ph))"
        if "c" in self.kind:
            c = f"{self.eps!r}*r^2*{WINDOW}*sin(ph)"
        return {"a": a, "c": c, "e": e, "f": f,
                "u": self.u.source(), "v": self.v.source(),
                "b": f"(r^4*sin(th)^2+({c})^2)/({a})", "solve_d": True}

    def hawking_mass(self, t: float, r: float) -> float:
        """m_H = (r/2)(1 - 1/u^2): IMCVF spheres have H_r = -2/(r u), H_n = 0."""
        return 0.5 * r * (1.0 - self.u.value(t, r) ** -2)


def draw_chart(rng: random.Random, kind: str, eps_range=(1e-3, 0.15)) -> Chart:
    """A chart of the given kind with eps log-uniform in eps_range and mild
    radial bumps."""
    lo, hi = (math.log(x) for x in eps_range)
    eps = float(f"{math.exp(rng.uniform(lo, hi)):.6g}")
    u = Bump(amp=round(rng.uniform(0.05, 0.3), 6), centre=round(rng.uniform(2.5, 5.0), 6),
             width=round(rng.uniform(1.5, 2.5), 6), tmod=round(rng.uniform(0.01, 0.15), 6))
    v = Bump(amp=round(rng.uniform(0.05, 0.2), 6), centre=round(rng.uniform(3.0, 5.0), 6),
             width=round(rng.uniform(1.5, 2.5), 6))
    return Chart(kind=kind, eps=eps, u=u, v=v)


# ---------------------------------------------------------------------------
# answer checks: each returns None when the answer is right, else a reason
# ---------------------------------------------------------------------------

def _rows(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _columns(path: str, names: tuple) -> list:
    """The named columns of a CSV file, as float arrays."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        cols = [header.index(name) for name in names]
        data = np.loadtxt(fh, delimiter=",", usecols=cols, ndmin=2)
    return [data[:, k] for k in range(len(names))]


def _json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_exit(code: int) -> str | None:
    return None if code == 0 else f"exit code {code}"


def check_hawking(chart: Chart, t: float, radii: list, rows: list[dict]) -> str | None:
    if len(rows) != len(radii):
        return f"{len(rows)} rows for {len(radii)} radii"
    for r, row in zip(radii, rows):
        if float(row["r"]) != r:
            return f"row radius {row['r']} != {r!r}"
        err = abs(float(row["m_H"]) - chart.hawking_mass(t, r))
        if not err <= 1e-9:
            return f"m_H at r={r!r} off by {err:.3e}"
    return None


def check_meancurv(chart: Chart, t: float, r: float, columns: list,
                   n_nodes: int) -> str | None:
    """``columns`` are the H_r and H_n columns of the output."""
    col_r, col_n = columns
    if len(col_r) != n_nodes:
        return f"{len(col_r)} rows for {n_nodes} nodes"
    h_r = -2.0 / (r * chart.u.value(t, r))
    err_r = float(np.max(np.abs(col_r - h_r)))
    err_n = float(np.max(np.abs(col_n)))
    if not err_r <= 1e-9:
        return f"H_r off by {err_r:.3e}"
    if not err_n <= 1e-8:
        return f"|H_n| reaches {err_n:.3e}"
    return None


def check_steer(col_q, n_nodes: int) -> str | None:
    """``col_q`` is the Q column of the output."""
    if len(col_q) != n_nodes:
        return f"{len(col_q)} rows for {n_nodes} nodes"
    q = float(np.max(np.abs(col_q)))
    return None if q <= 1e-10 else f"|Q| reaches {q:.3e}"


def check_straightout(payload: dict, n_nodes: int) -> str | None:
    if len(payload.get("rows", ())) != n_nodes:
        return f"{len(payload.get('rows', ()))} rows for {n_nodes} nodes"
    res = payload.get("residual_inf")
    if not (isinstance(res, float) and res <= 1e-6):
        return f"residual_inf {res!r} above 1e-6"
    return None


def check_curvature(chart: Chart, points: list, rows: list[dict]) -> str | None:
    """G_tt = Ric_tt - R g_tt / 2 with g_tt = -v^2."""
    if len(rows) != len(points):
        return f"{len(rows)} rows for {len(points)} points"
    for (t, r, _th, _ph), row in zip(points, rows):
        ric, scal, g_tt = (float(row[k]) for k in ("Ric_tt", "R", "G_tt"))
        v2 = chart.v.value(t, r) ** 2
        err = abs(g_tt - (ric + 0.5 * scal * v2))
        if not err <= 1e-10 * (1.0 + abs(ric) + abs(scal * v2)):
            return f"G_tt identity off by {err:.3e} at r={r!r}"
    return None


def check_flowscan(payload: dict) -> str | None:
    err = payload.get("identity_err_max")
    if not (isinstance(err, float) and err <= 1e-8):
        return f"identity_err_max {err!r} above 1e-8"
    return None


def check_adm(payload: dict, mass: float) -> str | None:
    err = abs(payload.get("mass", math.inf) - mass)
    return None if err <= 1e-3 else f"ADM mass off by {err:.3e}"


# ---------------------------------------------------------------------------
# jobs
# ---------------------------------------------------------------------------

@dataclass
class Step:
    """One CLI command and the check of its answer.

    ``check(exit_code)`` returns None or a failure reason; it reads the
    command's --out file, ``out``, itself, and may fill ``counts`` with
    work counts taken from the answer.
    """

    argv: list
    out: str
    check: Callable[[int], str | None]
    counts: dict = field(default_factory=dict)


@dataclass
class Workload:
    """``make_job(rng, i, fixed, workdir)`` draws the inputs of job i and
    returns its steps; ``fixed`` lists the workload's (Chart, path) pairs.
    Job i runs on fixed chart i mod ``fixed_charts``, or on a fresh chart
    of kind i mod 6 when there are none; a run stops on a multiple of
    ``round_len`` jobs, so chart_build always has the same mix of kinds
    (the fixed charts are all of one kind).  The traced run takes its
    counts over the first ``count_jobs`` jobs."""

    name: str
    why: str
    make_job: Callable
    fixed_charts: int
    round_len: int
    count_jobs: int


def _grid_arg(grid) -> str:
    return f"{grid[0]},{grid[1]}"


def _hawking_job(rng, i, fixed, workdir, grid=(128, 256)):
    chart, path = fixed[i % len(fixed)]
    radii = sorted(round(rng.uniform(1.5, 9.0), 6) for _ in range(4))
    out = os.path.join(workdir, "hawking.csv")

    def check(code):
        return check_exit(code) or check_hawking(chart, 0.0, radii, _rows(out))

    argv = ["hawking", "--chart", path, "--grid", _grid_arg(grid),
            "--r", ",".join(repr(r) for r in radii), "--out", out]
    return [Step(argv, out, check)]


def _straightout_job(rng, i, fixed, workdir, grid=(128, 256)):
    _chart, path = fixed[i % len(fixed)]
    r = round(rng.uniform(1.8, 6.0), 6)
    out = os.path.join(workdir, "straightout.json")
    counts = {}

    def check(code):
        if code != 0:
            return check_exit(code)
        payload = _json(out)
        counts["straightout.picard_iters"] = payload.get("iterations", 0)
        return check_straightout(payload, grid[0] * grid[1])

    argv = ["straightout", "--chart", path, "--r", repr(r), "--solve", "--json",
            "--grid", _grid_arg(grid), "--out", out]
    return [Step(argv, out, check, counts)]


def _sphere_fields_job(rng, i, fixed, workdir, grid=(64, 128)):
    """meancurv then steer on each of SPHERES_PER_JOB drawn spheres of one chart."""
    chart, path = fixed[i % len(fixed)]
    n = grid[0] * grid[1]
    mc = os.path.join(workdir, "meancurv.csv")
    q = os.path.join(workdir, "steer.csv")
    steps = []
    for r in (round(rng.uniform(1.8, 6.0), 6) for _ in range(SPHERES_PER_JOB)):
        common = ["--chart", path, "--r", repr(r), "--grid", _grid_arg(grid)]
        steps += [
            Step(["meancurv", *common, "--out", mc], mc,
                 lambda code, r=r: check_exit(code) or check_meancurv(
                     chart, 0.0, r, _columns(mc, ("H_r", "H_n")), n)),
            Step(["steer", *common, "--out", q], q,
                 lambda code: check_exit(code) or check_steer(*_columns(q, ("Q",)), n)),
        ]
    return steps


def _chart_build_job(rng, i, _fixed, workdir):
    chart = draw_chart(rng, CHART_KINDS[i % len(CHART_KINDS)])
    seed_path = os.path.join(workdir, "seed.json")
    with open(seed_path, "w", encoding="utf-8") as fh:
        json.dump(chart.seed_doc(), fh)
    full = os.path.join(workdir, "full.json")
    points = [(0.0, round(rng.uniform(1.5, 9.0), 6), round(rng.uniform(0.3, 2.8), 6),
               round(rng.uniform(0.0, 6.28), 6)) for _ in range(4)]
    mass = round(rng.uniform(0.2, 2.0), 6)
    val, curv = os.path.join(workdir, "validate.csv"), os.path.join(workdir, "curv.csv")
    flow, adm = os.path.join(workdir, "flow.json"), os.path.join(workdir, "adm.json")
    return [
        Step(["build", "--chart", seed_path, "--solve-d", "--out", full], full, check_exit),
        Step(["validate", "--chart", full, "--out", val], val, check_exit),
        Step(["curvature", "--chart", full, "--out", curv, "--points",
              ";".join(",".join(repr(x) for x in p) for p in points)], curv,
             lambda code: check_exit(code) or check_curvature(chart, points, _rows(curv))),
        Step(["flowscan", "--chart", full, "--json", "--out", flow], flow,
             lambda code: check_exit(code) or check_flowscan(_json(flow))),
        Step(["adm", "--factor", f"1+{mass!r}/(2*r)", "--radii", "10,20,40,80",
              "--json", "--out", adm], adm,
             lambda code: check_exit(code) or check_adm(_json(adm), mass)),
    ]


# The sphere workloads run on fixed charts of one kind with eps in a narrow
# band, so that the work of a job, and with it the Picard iteration count,
# does not swing with the seed; chart_build covers every kind and eps.
FIXED_KIND = "ef"
FIXED_EPS = (0.04, 0.08)

# A sphere_fields job covers two spheres (about 0.5 s), so that its median
# follows slow swings in a shared host's speed smoothly instead of jumping
# between the fast and the slow level as the median of 0.25 s jobs does.
SPHERES_PER_JOB = 2

# The seed used while writing a change, and one kept back to confirm it.
DEV_SEED = 1
HELDOUT_SEED = 4099

WORKLOADS = {w.name: w for w in (
    Workload("hawking_sweep",
             "hawking at 128x256 over 4 radii: jets, Christoffel, thread pool and "
             "Legendre tables per radius; no SHT, no Poisson, little output",
             _hawking_job, 3, 1, 3),
    Workload("straightout_solve",
             "straightout --solve at 128x256: SHT, Picard and Poisson heavy; "
             "no Christoffel contraction, no pool",
             _straightout_job, 3, 1, 3),
    Workload("sphere_fields",
             "meancurv and steer on two spheres at 64x128: the only steering "
             "workload, and dominated by CLI CSV formatting",
             _sphere_fields_job, 3, 1, 6),
    Workload("chart_build",
             "fresh chart per job through build/validate/curvature/flowscan/adm: "
             "cold expression construction and scalar evaluation, no large grids",
             _chart_build_job, 0, len(CHART_KINDS), 24),
)}


def fixed_charts(seed: int, workload: Workload) -> list[Chart]:
    """The workload's fixed seed charts, drawn from the workload seed."""
    rng = random.Random(f"{workload.name}/charts/{seed}")
    return [draw_chart(rng, FIXED_KIND, FIXED_EPS) for _ in range(workload.fixed_charts)]


def job_rng(seed: int, workload: Workload) -> random.Random:
    return random.Random(f"{workload.name}/jobs/{seed}")
