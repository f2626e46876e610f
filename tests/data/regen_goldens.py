"""Rewrite named golden files from the current code.

    python tests/data/regen_goldens.py NAME...

Each NAME is a key of GOLDEN in tests/test_cli.py (for example
``straightout`` or ``straightout_solve.json``).  Only the named files
(golden_path: tests/data/ef_16x32_NAME, .csv unless NAME ends in .json)
are written, each by the argv that test_grid_output_matches_golden_bytes
runs (golden_argv), on the chart its fixture builds; commands that read no
chart (adm) are not given one, and build is given the seed it completes.
For each CSV file it prints how many cells changed and the largest shift
in ulps of the column maximum (|max| of the column's old values); for a
JSON file only whether it changed.  It only reports and never refuses to
write.
"""

import csv
import os
import sys
import tempfile

import numpy as np

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

from imcvf.cli import main  # noqa: E402
from test_cli import GOLDEN, golden_argv, golden_path, write_ef_chart  # noqa: E402


def _read(path):
    """The rows of a CSV file, the text of any other; None if it is absent."""
    if not os.path.exists(path):
        return None
    with open(path, newline="", encoding="utf-8") as fh:
        return fh.read() if path.endswith(".json") else list(csv.reader(fh))


def shift_report(old, new) -> str:
    """Changed cells of table new against table old (lists of CSV rows,
    header first) and the largest shift in ulps of its column's maximum.
    Columns that do not parse as floats (booleans, labels) count their
    changed cells but take no size; a change to or from nan is an
    infinite shift.  JSON text (str) is only changed or unchanged."""
    if old is None:
        return "new file"
    if isinstance(old, str):
        return "unchanged" if old == new else "changed"
    if [len(row) for row in old] != [len(row) for row in new] or old[0] != new[0]:
        return "layout changed (header or row count)"
    changed, worst = 0, 0.0
    for j in range(len(old[0])):
        pairs = [(a[j], b[j]) for a, b in zip(old[1:], new[1:]) if a[j] != b[j]]
        changed += len(pairs)
        try:
            column = np.array([float(row[j]) for row in old[1:]])
            o, n = np.array([[float(a), float(b)] for a, b in pairs]).reshape(-1, 2).T
        except ValueError:
            continue
        if pairs:
            shift = np.abs(n - o) / np.spacing(np.nanmax(np.abs(column)))
            worst = max(worst, float(np.max(np.where(np.isnan(shift), np.inf, shift))))
    if not changed:
        return "unchanged"
    return f"{changed} cells changed, largest shift {worst:.3g} ulps of the column max"


def regenerate(names) -> None:
    unknown = sorted(set(names) - set(GOLDEN))
    if not names or unknown:
        raise SystemExit(f"usage: regen_goldens.py NAME...  (unknown: {unknown}; "
                         f"known: {', '.join(sorted(GOLDEN))})")
    with tempfile.TemporaryDirectory() as tmp:
        chart = write_ef_chart(tmp)
        for name in names:
            path = golden_path(name)
            old = _read(path)
            if main(golden_argv(name, chart, path)) != 0:
                raise SystemExit(f"{name}: {GOLDEN[name][0]} failed")
            print(f"wrote {os.path.relpath(path)}: {shift_report(old, _read(path))}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
