"""The benchmark tracer wraps imcvf functions by name; every name it lists
must still exist, or the benchmark fails where tier-1 does not look."""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return [(layer, qual) for layer, names in tracer.TARGETS.items() for qual in names]


@pytest.mark.parametrize("layer, qual", _targets())
def test_tracer_target_resolves(layer, qual):
    """A function is looked up in its module's namespace, a method in its
    class's own __dict__, as the tracer does when it installs."""
    home = importlib.import_module(f"imcvf.{layer}")
    if "." in qual:
        cls_name, meth = qual.split(".")
        assert callable(vars(getattr(home, cls_name)).get(meth))
    else:
        assert callable(vars(home).get(qual))
