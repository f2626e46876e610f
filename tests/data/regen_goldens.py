"""Rewrite named golden CSVs from the current code.

    python tests/data/regen_goldens.py NAME...

Each NAME is a key of GOLDEN in tests/test_cli.py (for example
``straightout``).  Only the named files tests/data/ef_16x32_NAME.csv are
written, each by the argv that test_grid_output_matches_golden_bytes runs,
on the chart its fixture builds.
"""

import os
import sys
import tempfile

TESTS = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(os.path.dirname(TESTS), "src"), TESTS]

from imcvf.cli import main  # noqa: E402
from test_cli import DATA, GOLDEN, write_ef_chart  # noqa: E402


def regenerate(names) -> None:
    unknown = sorted(set(names) - set(GOLDEN))
    if not names or unknown:
        raise SystemExit(f"usage: regen_goldens.py NAME...  (unknown: {unknown}; "
                         f"known: {', '.join(sorted(GOLDEN))})")
    with tempfile.TemporaryDirectory() as tmp:
        chart = write_ef_chart(tmp)
        for name in names:
            command, *rest = GOLDEN[name]
            path = os.path.join(DATA, f"ef_16x32_{name}.csv")
            if main([command, "--chart", chart, *rest, "--out", path]) != 0:
                raise SystemExit(f"{name}: {command} failed")
            print(f"wrote {os.path.relpath(path)}")


if __name__ == "__main__":
    regenerate(sys.argv[1:])
