"""Command-line front end: load chart files, run validations and solvers,
emit deterministic CSV or JSON tables.

Exit codes: 0 success, 1 usage, parse, file, memory or floating-point range
error, 2 validation/compatibility failure, 3 numerical non-convergence.
Floats are printed with 17 significant digits in CSV and as Python's
shortest round-trip repr in JSON, so identical inputs give byte-identical
output.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
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


# Below this many distinct values a column is formatted value by value: the
# numpy passes of _float_text cost more than they save.  Best of 300 on one
# core of a shared x86-64 host, Python 3.11, numpy 2.4, vectorized against
# one by one.  "%.17g": normal(0, 1) values 127 against 96 us at 192
# values, 132 against 129 us at 256, 152 against 195 us at 384, 247 against
# 519 us at 1024; the rounding-level H_n of a flat sphere (exponents -46 to
# -15) 129 against 137 us at 192 values and 138 against 183 us at 256.
# repr, whose shortest digits take more passes and more layouts, crosses
# later: normal(0, 1) 156 against 122 us at 256, 166 against 153 at 320,
# 181 against 195 at 384, 211 against 255 at 512; the same H_n 163 against
# 157 at 192 and 186 against 202 at 256; a row of phi (evenly spaced on
# [0, 2 pi)) 163 against 126 at 256, 176 against 190 at 384.  So JSON has
# its own rule.
_VECTOR_MIN = 256
_REPR_VECTOR_MIN = 384
# 10**k for _K_MIN <= k <= _K_MAX, which covers every scale _float_text uses
_K_MIN, _K_MAX = -240, 270
# Dekker's splitter 2**27 + 1: splits a double into two 26-bit halves
_SPLIT = 134217729.0
# width of the longest text of either layout, -1.2345678901234567e-250
_TEXT_WIDTH = 24


def _csv_floats(a: np.ndarray) -> list:
    flat = a.ravel()
    if flat.size < _VECTOR_MIN:
        return list(map("%.17g".__mod__, flat.tolist()))
    return _float_text(flat, shortest=False)


def _json_floats(a: np.ndarray) -> list:
    flat = a.ravel()
    if flat.size < _REPR_VECTOR_MIN:
        text = list(map(float.__repr__, flat.tolist()))
    else:
        text = _float_text(flat, shortest=True)
    if np.isfinite(flat).all():
        return text
    return [_JSON_NONFINITE.get(s, s) for s in text]


@functools.cache
def _pow10() -> tuple:
    """(hi, lo) with hi + lo = 10**k for _K_MIN <= k <= _K_MAX, to about
    2**-106 relative: hi is 10**k rounded, lo the rounded remainder, both
    from exact Python integers."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        if k >= 0:
            h = float(10 ** k)
            hi.append(h)
            lo.append(float(10 ** k - int(h)))
        else:
            d = 10 ** -k
            h = 1 / d
            num, den = h.as_integer_ratio()
            hi.append(h)
            lo.append((den - num * d) / (den * d))
    return np.array(hi), np.array(lo)


@functools.cache
def _digit_table() -> tuple:
    """The text of 0000 to 9999 as uint32 words of four ASCII digits, and
    the length of each with its trailing zeros stripped (minus a lot for
    0000, which holds no significant digit)."""
    text = ["%04d" % i for i in range(10000)]
    ends = [len(t.rstrip("0")) if i else -99 for i, t in enumerate(text)]
    return np.array(text, dtype="S4").view(np.uint32), np.array(ends)


@functools.cache
def _layout(neg: bool, e10, sig: int, shortest: bool) -> tuple:
    """The layout of a value of sign neg and sig significant digits, in
    fixed form at decimal exponent e10, or in exponential form for e10
    None, where the exponent text follows the layout: %.17g's, or repr's
    for shortest, which ends a fixed text with no fractional digit in
    ".0".  Its text, with each digit as '#', as ASCII codes _TEXT_WIDTH
    wide, the (start, end) of each run of digits in it, and its length."""
    if e10 is None:
        text = "#" + ("." + "#" * (sig - 1) if sig > 1 else "")
    elif e10 < 0:
        text = "0." + "0" * (-e10 - 1) + "#" * sig
    else:
        text = "#" * (e10 + 1) + ("." + "#" * (sig - e10 - 1) if sig > e10 + 1
                                  else ".0" if shortest else "")
    text = "-" * neg + text
    runs = [m.span() for m in re.finditer("#+", text)]
    return np.frombuffer(text.ljust(_TEXT_WIDTH, "\0").encode(), np.uint8), runs, len(text)


@functools.cache
def _exponent_table() -> np.ndarray:
    """The exponent text of the exponential form (of %.17g and of repr
    alike) for each decimal exponent from -324 to 308, 'e-324' to 'e+308',
    as five ASCII codes, NUL-padded."""
    text = ["e%+03d" % e10 for e10 in range(-324, 309)]
    return np.array(text, dtype="S5").view(np.uint8).reshape(-1, 5)


def _scaled(x: np.ndarray, k: np.ndarray) -> tuple:
    """x * 10**k as a double-double p + q: Dekker's exact two-product of x
    and the table's hi, plus x times its lo."""
    hi, lo = _pow10()
    h, low = hi[k - _K_MIN], lo[k - _K_MIN]
    p = x * h
    t = _SPLIT * x
    xh = t - (t - x)
    xl = x - xh
    t = _SPLIT * h
    hh = t - (t - h)
    hl = h - hh
    return p, ((xh * hh - p) + xh * hl + xl * hh) + xl * hl + x * low


def _shortest(x, e10, p, q, big, fast) -> np.ndarray:
    """repr's digits of each |v| = x, as the 17-digit integer (zeros after
    the last significant digit) that replaces big, the nearest 17-digit
    decimal to S = p + q = x * 10**(16 - e10).  The nearest decimals of 15
    and 16 significant digits, N * D for D = 100 and 10, are tried, and the
    shortest that lies within half an ulp h of S (so reads back as x)
    wins.  15-digit decimals are more than 2h apart, so one of at most 15
    digits that reads back is the nearest 15-digit one; the interval is
    symmetric about x, so no 16-digit one reads back if the nearest does
    not; the 17-digit big always does, as h >= 0.55.  fast is cleared
    where this is not certain: a power of two (whose interval is not
    symmetric), a candidate within 1e-9 of a tie or of the interval's
    edge."""
    hi, _ = _pow10()
    h = 0.5 * np.spacing(x) * hi[16 - e10 - _K_MIN]
    fast &= np.frexp(x)[0] != 0.5
    # p >= 1e16 > 2**53 is an integer, so P is exact and S = P + q
    whole = p.astype(np.int64)
    slack = 1e-9 * np.maximum(h, 1.0)
    for d in (10, 100):
        # S = (n + y) * D: N = n + rint(y), off = |N * D - S|
        n, rest = np.divmod(whole, d)
        y = (rest + q) / d
        m = np.rint(y)
        off = np.abs(y - m) * d
        fast &= (np.abs(off - 0.5 * d) > 1e-9 * d) & (np.abs(off - h) > slack)
        big = np.where(off < h, (n + m.astype(np.int64)) * d, big)
    return big


def _float_text(a: np.ndarray, shortest: bool) -> list:
    """"%.17g" % v, or repr(v) for shortest, for each v of the 1-d float
    array a, byte for byte, in a few numpy passes.  |v| * 10**(16 - e10)
    is formed in double-double to about 1e-14 and rounded half to even to a
    17-digit integer, which _shortest shortens for repr.  A value whose
    rounding that error could change (its fraction within 1e-9 of one
    half), one _shortest cannot certify, and zero, inf, nan and |v| outside
    (1e-250, 1e250) take Python's "%.17g" or repr instead.  Values sharing
    a layout are written together by slice copies."""
    n = a.size
    x = np.abs(a)
    fast = (x > 1e-250) & (x < 1e250)
    x[~fast] = 1.0
    e10 = np.floor(np.log10(x)).astype(np.int64)
    p, q = _scaled(x, 16 - e10)
    # log10 may put e10 one off near a power of ten: shift it once, by the
    # side of 1e16 and 1e17 that p + q is on (a loop could oscillate there)
    shift = ((p - 1e17) + q >= 0).astype(np.int64) - ((p - 1e16) + q < 0)
    moved = np.flatnonzero(shift)
    if moved.size:
        e10[moved] += shift[moved]
        p[moved], q[moved] = _scaled(x[moved], 16 - e10[moved])
    # p >= 1e16 > 2**53 is an even integer, so p + q rounds as q does
    fast &= np.abs(q - np.floor(q) - 0.5) > 1e-9
    big = p.astype(np.int64) + np.rint(q).astype(np.int64)
    if shortest:
        big = _shortest(x, e10, p, q, big, fast)
    carry = big == 10 ** 17
    big[carry] = 10 ** 16
    e10 += carry
    fast &= (big >= 10 ** 16) & (big < 10 ** 17)
    big[~fast] = 10 ** 16
    # the 17 digits of each value as ASCII in bytes 3 to 19 of five words:
    # the leading digit, then four words of four digits
    words, ends = _digit_table()
    lead, rest = np.divmod(big, 10 ** 16)
    digits = np.empty((n, 5), np.uint32)
    sig = np.ones(n, np.int64)
    for j in range(4, 0, -1):
        rest, r = np.divmod(rest, 10000)
        digits[:, j] = words[r]
        np.maximum(sig, 4 * j - 3 + ends[r], out=sig)
    digits = digits.view(np.uint8)
    digits[:, 3] = lead + ord("0")
    # a layout is the sign, the number of significant digits and the form:
    # fixed at -4 <= e10 < 17, or < 16 for repr (form e10 + 4), or
    # exponential (form 21, each value then copying its own exponent
    # text).  One int16 key per value lets argsort run as a radix sort and
    # puts each layout in one slice.
    form = np.where((e10 >= -4) & (e10 < (16 if shortest else 17)), e10 + 4, 21)
    key = (form * 64 + np.signbit(a) * 32 + sig).astype(np.int16)
    order = np.argsort(key, kind="stable")
    key, e10, digits = key[order], e10[order], digits.take(order, axis=0)
    exponents = _exponent_table()
    out = np.zeros((n, _TEXT_WIDTH), np.uint8)
    starts = np.flatnonzero(np.diff(key, prepend=-1)).tolist()
    for s, e in zip(starts, [*starts[1:], n]):
        form, rest = divmod(int(key[s]), 64)
        template, runs, length = _layout(rest >= 32, form - 4 if form < 21 else None,
                                         rest % 32, shortest)
        out[s:e] = template
        taken = 3
        for start, end in runs:
            out[s:e, start:end] = digits[s:e, taken:taken + end - start]
            taken += end - start
        if form == 21:
            out[s:e, length:length + 5] = exponents[e10[s:e] + 324]
    inverse = np.empty_like(order)
    inverse[order] = np.arange(n)
    out = out.take(inverse, axis=0).astype(np.uint32)
    text = out.view(f"U{_TEXT_WIDTH}")[:, 0].tolist()
    slow = np.flatnonzero(~fast)
    one = float.__repr__ if shortest else "%.17g".__mod__
    for i, v in zip(slow.tolist(), a[slow].tolist()):
        text[i] = one(v)
    return text


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
        payload = _payload(args, header, json_payload)
        payload["rows"] = _ROWS
        head, tail = json.dumps(payload, indent=2, sort_keys=True).split(json.dumps(_ROWS))
        framed = ["[\n    [\n      ", body, "\n    ]\n  ]"] if body else ["[]"]
        _write(args, [head, *framed, tail, "\n"])
    else:
        rows = zip(*(_column_strings(c, _csv_floats, _csv_word, shape) for c in columns))
        _write(args, ["\n".join([",".join(header), *map(",".join, rows)]), "\n"])


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


def _write(args, pieces: list) -> None:
    """Write the strings of pieces one after another, to --out or standard
    output; joining them first would copy a large table's text again."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


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
    if args.r_values is not None:
        given["r_values"] = tuple(_floats(args.r_values))
        if not given["r_values"]:
            raise ImcvfError(f"--r-values {args.r_values!r} names no radius")
    spec = builder.ValidationSpec(**given)
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
    p.add_argument("--r-values", help="comma-separated radii")
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
    # read -1e3, and a list of numbers that starts with one (-1,2,1,0 or
    # -1:3:4), as a value, as argparse reads -1: no imcvf option looks like
    # a number
    number = r"(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?"
    matcher = re.compile(rf"^-{number}([,;:]-?{number})*$")
    for p in (ap, *sub.choices.values()):
        p._negative_number_matcher = matcher
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
    except MemoryError as exc:      # numpy names the array it could not allocate
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
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
