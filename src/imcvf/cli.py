"""Command-line front end: load chart files, run validations and solvers,
emit deterministic CSV or JSON tables.

Exit codes: 0 success, 1 usage, parse, file or floating-point range error,
2 validation/compatibility failure, 3 numerical non-convergence.  Floats are
printed with 17 significant digits so identical inputs give byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import threading

import numpy as np

# the package binds each layer unexecuted (see imcvf/__init__), and a layer
# runs on the first call through it, so a command executes only what it uses
from . import asymptotics, builder, chart, curvature, expr, grid, sphere, steering, \
    straightout
from .errors import CompatibilityError, ConvergenceError, ExprSyntaxError, ImcvfError

SCHEMA = "imcvf-report/1"


def thread_count() -> int:
    """Worker cap from IMCVF_THREADS; 0 or unset means all cores."""
    raw = os.environ.get("IMCVF_THREADS", "0")
    try:
        n = int(raw)
    except ValueError:
        n = 0
    return os.cpu_count() or 1 if n <= 0 else n


_POOL = None
_POOL_LOCK = threading.Lock()


def _sphere_pool():
    """The process-wide pool that ``hawking`` runs its spheres on, started
    on first use with thread_count() workers, which then live as long as
    the process.  A pool started and joined per call would start new
    threads each time; glibc gives each thread a malloc arena, and a thread
    that starts before the previous one has handed its arena back gets a
    new one, so the resident memory of a long run would depend on thread
    timing.  The workers are idle between calls: cmd_hawking waits for
    every sphere it submits.  concurrent.futures is imported here, so the
    commands that start no pool do not load it."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            from concurrent.futures import ThreadPoolExecutor
            _POOL = ThreadPoolExecutor(max_workers=thread_count())
        return _POOL


# stands for the rows in the JSON that _emit writes around them
_ROWS = "\0rows"
# float text that json writes for what repr writes as nan, inf and -inf
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _csv_floats(a: np.ndarray) -> list:
    return list(map("%.17g".__mod__, a.ravel().tolist()))


def _json_floats(a: np.ndarray) -> list:
    text = list(map(float.__repr__, a.ravel().tolist()))
    if np.isfinite(a).all():
        return text
    return [_JSON_NONFINITE.get(s, s) for s in text]


def _csv_word(v) -> str:
    return v if isinstance(v, str) else "true" if v else "false"


def _json_word(v) -> str:
    return json.dumps(v if isinstance(v, str) else bool(v))


def _column_strings(column, fmt, word, shape) -> list:
    """Text of each cell of a column, in raveled order.  A float array is
    formatted once per distinct float64 bit pattern (so -0.0 and 0.0, and
    each nan payload, keep their own text) at its own size, and its text is
    broadcast to shape, so every cell holding a pattern shares one string.
    A list is a short column whose cells may also be booleans or labels
    (str); those take word's text."""
    if isinstance(column, list):
        return [word(v) if isinstance(v, (bool, str)) else fmt(np.asarray(v, float))[0]
                for v in column]
    base = np.asarray(column, dtype=float)
    bits, inverse = np.unique(base.view(np.int64), return_inverse=True)
    text = np.array(fmt(bits.view(np.float64)), dtype=object)[inverse.reshape(base.shape)]
    return np.broadcast_to(text, shape).ravel().tolist()


def _emit(args, header, columns, json_payload=None):
    """Emit columns, one per header name, as CSV (floats with %.17g) or as
    the JSON that json.dumps(payload, indent=2, sort_keys=True) writes, byte
    for byte, formatted a column at a time and written directly.  Array
    columns are broadcast to their common shape, so a grid column may come
    at the size of the coordinates it depends on."""
    shape = np.broadcast_shapes(*(np.shape(c) for c in columns if not isinstance(c, list)))
    if args.json:
        rows = zip(*(_column_strings(c, _json_floats, _json_word, shape) for c in columns))
        body = "\n    ],\n    [\n      ".join(map(",\n      ".join, rows))
        body = "[\n    [\n      " + body + "\n    ]\n  ]" if body else "[]"
        payload = _payload(args, header, json_payload)
        payload["rows"] = _ROWS
        head, tail = json.dumps(payload, indent=2, sort_keys=True).split(json.dumps(_ROWS))
        text = head + body + tail + "\n"
    else:
        rows = zip(*(_column_strings(c, _csv_floats, _csv_word, shape) for c in columns))
        text = "\n".join([",".join(header), *map(",".join, rows)]) + "\n"
    _write(args, text)


def _node_columns(sg) -> list:
    """(th, ph) of every node of the SphereGrid sg, theta-major like a
    raveled grid array, as the column and the row of node coordinates that
    _emit broadcasts."""
    return [sg.theta[:, None], sg.phi[None, :]]


def _payload(args, header, json_payload) -> dict:
    payload = {"schema": SCHEMA, "command": args.command, "columns": list(header)}
    if json_payload:
        payload.update(json_payload)
    return payload


def _write(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _grid_sizes(spec: str):
    try:
        n_theta, n_phi = (int(x) for x in spec.split(","))
    except ValueError as exc:
        raise ImcvfError(f"bad --grid {spec!r}, expected 'N_THETA,N_PHI'") from exc
    if n_theta < 8 or n_phi < 8:
        raise ImcvfError("grid sizes must be at least 8")
    return n_theta, n_phi


def _floats(spec: str):
    return [float(x) for x in spec.split(",") if x.strip()]


def _load_metric(path):
    return chart.load_chart(path).metric()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_validate(args) -> int:
    g = _load_metric(args.chart)
    # an option not given keeps the ValidationSpec default
    given = {k: v for k, v in (("t", args.t), ("tol_cond3", args.tol_cond3),
                               ("tol_cond4", args.tol_cond4)) if v is not None}
    spec = builder.ValidationSpec(r_values=tuple(_floats(args.r_values)), **given)
    report = builder.validate_chart(g, spec)
    items = sorted(report.as_dict().items())
    _emit(args, [k for k, _ in items], [[v] for _, v in items])
    return 0 if report.passed else 2


def cmd_build(args) -> int:
    cf = chart.load_chart(args.chart)
    if not (args.solve_d or cf.solve_d):
        raise ImcvfError("nothing to do: pass --solve-d or set \"solve_d\" in the chart")
    g = builder.complete_chart_file(cf)
    chart.save_chart(g, args.out, params=cf.params)
    print(f"wrote completed chart to {args.out}", file=sys.stderr)
    return 0


def cmd_curvature(args) -> int:
    g = _load_metric(args.chart)
    names = ("t", "r", "th", "ph")
    header = list(names) + ["R"]
    idx = [(i, j) for i in range(4) for j in range(i, 4)]
    for label in ("Ric", "G"):
        header += [f"{label}_{names[i]}{names[j]}" for i, j in idx]
    raw, points = [], []
    for spec in args.points.split(";"):
        vals = _floats(spec)
        if len(vals) != 4:
            raise ImcvfError(f"bad point {spec!r}, expected 't,r,th,ph'")
        raw.append(vals)
        points.append(chart.CoordinatePoint(*vals))
    # every point in one pass, as a 1-D grid at the normalized ph; the
    # table keeps each point as it was given
    out = curvature.curvature_values(g, {x: np.array([getattr(p, x) for p in points])
                                         for x in names})
    _emit(args, header, [*np.array(raw, dtype=float).T, out["scalar"],
                         *(out[key][:, i, j] for key in ("ricci", "einstein") for i, j in idx)])
    return 0


def cmd_hawking(args) -> int:
    g = _load_metric(args.chart)
    n_theta, n_phi = _grid_sizes(args.grid)
    radii = _floats(args.r)
    if not radii:
        raise ImcvfError("no radius to take the Hawking mass at")

    # read on this thread, so that sphere and grid execute here and not,
    # unlocked, on two workers at once
    hawking_mass, sphere_grid = sphere.hawking_mass, grid.SphereGrid

    def one(r):
        return hawking_mass(g, sphere_grid(args.t, r, n_theta, n_phi))

    jobs = [_sphere_pool().submit(one, r) for r in radii]
    for job in jobs:
        job.exception()     # waits without raising, so no sphere outlives the call
    masses = [job.result() for job in jobs]
    _emit(args, ["r", "m_H"], [radii, masses])
    return 0


def cmd_meancurv(args) -> int:
    g = _load_metric(args.chart)
    n_theta, n_phi = _grid_sizes(args.grid)
    sg = grid.SphereGrid(args.t, args.r, n_theta, n_phi)
    h_r, h_n, star = sphere.mean_curvature_values(g, sg.env(), method=args.method)
    _emit(args, ["th", "ph", "H_r", "H_n", "star"], _node_columns(sg) + [h_r, h_n, star])
    return 0


def cmd_steer(args) -> int:
    g = _load_metric(args.chart)
    n_theta, n_phi = _grid_sizes(args.grid)
    sg = grid.SphereGrid(args.t, args.r, n_theta, n_phi)
    fd = steering.frame_data(g, sg.env())
    q = steering.steering_parameter(fd)
    _emit(args, ["th", "ph", "Q"], _node_columns(sg) + [q])
    return 0


def cmd_straightout(args) -> int:
    g = _load_metric(args.chart)
    n_theta, n_phi = _grid_sizes(args.grid)
    sg = grid.SphereGrid(args.t, args.r, n_theta, n_phi)
    if args.solve:
        sol = straightout.solve_straight_out_d(g, sg, compat_tol=args.compat_tol)
        for k, (upd, comp) in enumerate(zip(sol.update_norms, sol.compat_integrals)):
            print(f"iter {k}: update {upd:.3e}  solvability integral {comp:.3e}",
                  file=sys.stderr)
        if sol.compatibility_failed:
            print("compatibility failure: solvability integral is not zero",
                  file=sys.stderr)
            return 2
        if sol.poisson_history:
            print(f"Poisson solve stalled at residual {min(sol.poisson_history):.3e}",
                  file=sys.stderr)
        if not sol.converged:
            print("Picard iteration did not converge", file=sys.stderr)
            return 3
        _emit(args, ["th", "ph", "d"], _node_columns(sg) + [sol.d],
              {"residual_inf": sol.residual_inf, "iterations": sol.iterations})
        return 0
    out = straightout.straight_out_residual(g, sg)
    print(f"route agreement: max difference {out.max_difference:.3e}",
          file=sys.stderr)
    _emit(args, ["th", "ph", "residual_closed", "residual_direct"],
          _node_columns(sg) + [out.closed, out.direct],
          {"max_difference": out.max_difference})
    return 0


def cmd_adm(args) -> int:
    factor = expr.parse(args.factor)
    radii = _floats(args.radii)
    res = asymptotics.adm_mass(asymptotics.ConformalMetric3(factor), radii)
    _emit(args, ["r", "adm_integral"], [[*res.radii, "extrapolated"], [*res.values, res.mass]],
          {"mass": res.mass, "diverging": bool(res.diverging)})
    if res.diverging:
        print("warning: surface integrals diverge with radius", file=sys.stderr)
        return 2
    return 0


def cmd_flowscan(args) -> int:
    cf = chart.load_chart(args.chart)
    u, v = cf.exprs["u"], cf.exprs["v"]
    try:
        lo, hi, n = args.r_range.split(":")
        r_range, n = (float(lo), float(hi)), int(n)
    except ValueError as exc:
        raise ImcvfError(f"bad --r-range {args.r_range!r}, expected 'LO:HI:N'") from exc
    rep = builder.monotonicity_check_spherical(u, v, args.t, r_range, n)
    _emit(args, ["r", "m_H", "dmH_ds", "G_tt"], [rep.r, rep.m_h, rep.dmh_ds, rep.g_tt],
          {"identity_err_max": rep.identity_err_max,
           "monotone_ok": bool(rep.monotone_ok)})
    return 0 if rep.monotone_ok else 2


# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parse_args leaves
    it unchanged, so every call of main shares it."""
    ap = argparse.ArgumentParser(prog="imcvf",
                                 description="IMCVF chart construction and validation")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, chart=True, grid=True, sphere=False):
        if chart:
            p.add_argument("--chart", required=True, help="chart JSON file")
        if grid:
            p.add_argument("--grid", default="64,128", help="N_THETA,N_PHI")
        if sphere:
            p.add_argument("--t", type=float, default=0.0)
            p.add_argument("--r", type=float, required=True)
        p.add_argument("--out", help="output path (default stdout)")
        p.add_argument("--json", action="store_true", help="JSON instead of CSV")

    p = sub.add_parser("validate", help="check the four chart conditions")
    common(p, grid=False)
    # no default here: cmd_validate leaves an option not given to ValidationSpec
    p.add_argument("--t", type=float)
    p.add_argument("--r-values", default="", help="comma-separated radii")
    p.add_argument("--tol-cond3", type=float)
    p.add_argument("--tol-cond4", type=float)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("build", help="solve for the d component")
    p.add_argument("--chart", required=True)
    p.add_argument("--solve-d", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("curvature", help="tensor dump at points")
    common(p, grid=False)
    p.add_argument("--points", required=True, help="'t,r,th,ph;t,r,th,ph;...'")
    p.set_defaults(fn=cmd_curvature)

    p = sub.add_parser("hawking", help="Hawking mass of coordinate spheres")
    common(p)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--r", required=True, help="comma-separated radii")
    p.set_defaults(fn=cmd_hawking)

    p = sub.add_parser("meancurv", help="mean curvature decomposition per node")
    common(p, sphere=True)
    p.add_argument("--method", choices=("closed", "trace"), default="closed")
    p.set_defaults(fn=cmd_meancurv)

    p = sub.add_parser("steer", help="steering parameter field")
    common(p, sphere=True)
    p.set_defaults(fn=cmd_steer)

    p = sub.add_parser("straightout", help="straight-out residual or d solve")
    common(p, sphere=True)
    p.add_argument("--solve", action="store_true", help="run the Picard solver")
    p.add_argument("--compat-tol", type=float, default=1e-6)
    p.set_defaults(fn=cmd_straightout)

    p = sub.add_parser("adm", help="ADM mass surface integrals")
    p.add_argument("--factor", required=True, help="radial conformal factor u(r)")
    p.add_argument("--radii", required=True, help="comma-separated radii")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_adm)

    p = sub.add_parser("flowscan", help="m_H and G_tt along the radial flow")
    p.add_argument("--chart", required=True, help="chart with spherical u, v")
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--r-range", default="1.5:10:64", help="lo:hi:n")
    p.add_argument("--out")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_flowscan)
    return ap


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (ExprSyntaxError, KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except CompatibilityError as exc:
        print(f"compatibility failure: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 3
    except ImcvfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
