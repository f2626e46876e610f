"""The public surface: every exported name resolves, and the README's
library example runs."""

import importlib
import pathlib
import pkgutil
import re

import pytest

import imcvf

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(imcvf.__path__)))
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"imcvf.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"imcvf.{name}.__all__ names {missing}"


def test_readme_quick_start_runs(capsys):
    """The "Library quick start" block of the README, run as it stands."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"## Library quick start\n+```python\n(.*?)```", text, re.S)
    assert block, "no python block under 'Library quick start'"
    exec(compile(block.group(1), str(README), "exec"), {})
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 3 and "'passed': True" in out[0]
