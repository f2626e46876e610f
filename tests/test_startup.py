"""Start-up: importing the CLI executes no layer module, and every layer
stays findable in sys.modules, where bench/tracer.py looks for it."""

import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

import imcvf

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"

# run in a fresh interpreter after the start-up under test; prints, as JSON,
# whether concurrent.futures is loaded and which TARGETS layers of the
# tracer have executed or are absent from sys.modules.  Reading type() of a
# lazily registered module does not execute it.
REPORT = """
import json, sys, types
layers = {layers!r}
print(json.dumps({{
    "futures": "concurrent.futures" in sys.modules,
    "executed": [n for n in layers if type(sys.modules.get("imcvf." + n)) is types.ModuleType],
    "absent": [n for n in layers if "imcvf." + n not in sys.modules],
}}))
"""

# python -m imcvf.cli --help, as runpy runs it, with the help text dropped
HELP = """
import contextlib, io, runpy, sys
sys.argv = ["imcvf", "--help"]
with contextlib.redirect_stdout(io.StringIO()), contextlib.suppress(SystemExit):
    runpy.run_module("imcvf.cli", run_name="__main__", alter_sys=True)
"""


def _layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return list(tracer.TARGETS)


def _fresh(start: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    proc = subprocess.run([sys.executable, "-c", start + REPORT.format(layers=_layers())],
                          env=env, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("start, executed, absent", [
    ("import imcvf.cli", ["cli"], []),
    (HELP, [], ["cli"]),        # the CLI runs as __main__, not as imcvf.cli
], ids=["import imcvf.cli", "python -m imcvf.cli --help"])
def test_the_cli_starts_without_executing_a_layer(start, executed, absent):
    """import imcvf.cli and python -m imcvf.cli --help execute the CLI and
    imcvf.errors only, and do not load concurrent.futures; every other
    layer is in sys.modules, unexecuted."""
    assert _fresh(start) == {"futures": False, "executed": executed, "absent": absent}


def test_every_package_export_resolves_to_its_home():
    """The package re-exports each name from its layer, on first use."""
    for name in imcvf.__all__:
        value = getattr(imcvf, name)
        home = getattr(imcvf, imcvf._HOME[name])
        assert value is getattr(home, name), name
    assert set(imcvf.__all__) <= set(dir(imcvf))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        imcvf.nonexistent

