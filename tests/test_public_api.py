"""The public surface: every exported name resolves and has a reader
outside the tests, and the README's library example runs."""

import ast
import importlib
import pathlib
import pkgutil
import re

import pytest

import imcvf

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BENCH_TRACER = README.parent / "bench" / "tracer.py"
SRC = pathlib.Path(imcvf.__file__).resolve().parent

# exported names that nothing outside the tests reads yet, each with the
# ROADMAP direction that will read it or the reason it stays
KEPT_WITHOUT_READER = {
    "straightout.is_time_flat":
        "direction 2: the time-flat sup in straightout's --json diagnostics "
        "(it reads rotate_one_form)",
    "straightout.gauge_rotation":
        "direction 2: the gauge rotation's residual in straightout's --json "
        "diagnostics (it returns a HyperbolicAngle)",
    "straightout.one_form_energy":
        "direction 2: the one-form energy in straightout's --json diagnostics",
    "sphere.first_variation_area_check":
        "direction 2: the first-variation residual in validate's --json diagnostics",
    "builder.imcvf_flow_param":
        "direction 6: flowscan reports the flow parameter s = 2 ln r",
    "sphere.inverse_mean_curvature_vector":
        "direction 6: the paper's flow vector I = -H/<H,H> (it raises "
        "NullMeanCurvatureError)",
    "chart.metric_values":
        "the chart's point query of g, beside inverse_values, which "
        "bench/tracer.py TARGETS pins",
    "chart.det_values":
        "the chart's point query of |g|, beside inverse_values",
}


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


def _defined_names(stmt) -> set:
    """The names a top-level statement binds: a def, a class or assigned names."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else \
        [stmt.target] if isinstance(stmt, (ast.AnnAssign, ast.AugAssign)) else []
    return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}


def _loads(tree) -> set:
    """The names a tree reads, bare or as an attribute; an import alone reads nothing."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)
             and isinstance(n.ctx, ast.Load)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def _exports() -> list:
    """"module.name" for each name of a module's literal __all__."""
    return sorted(f"{path.stem}.{n}" for path in SRC.glob("*.py")
                  for stmt in ast.parse(path.read_text(encoding="utf-8")).body
                  if isinstance(stmt, ast.Assign) and _defined_names(stmt) == {"__all__"}
                  and isinstance(stmt.value, ast.List)
                  for n in ast.literal_eval(stmt.value))


def _readers() -> set:
    """Every name read by some src statement other than its own definition,
    by the README's library quick start, or named in bench/tracer.py TARGETS."""
    read = set()
    for path in SRC.glob("*.py"):
        for stmt in ast.parse(path.read_text(encoding="utf-8")).body:
            read |= _loads(stmt) - _defined_names(stmt)
    block = re.search(r"## Library quick start\n+```python\n(.*?)```",
                      README.read_text(encoding="utf-8"), re.S)
    quick = ast.parse(block.group(1))
    read |= _loads(quick) | {a.name for n in ast.walk(quick)
                             if isinstance(n, ast.ImportFrom) for a in n.names}
    targets = next(s.value for s in ast.parse(BENCH_TRACER.read_text(encoding="utf-8")).body
                   if isinstance(s, ast.Assign) and _defined_names(s) == {"TARGETS"})
    read |= {q.split(".")[0] for names in ast.literal_eval(targets).values() for q in names}
    return read


def test_every_exported_name_has_a_reader():
    """A name in a module's __all__ is read by another src function or a
    command, by the README's library quick start, or by bench/tracer.py
    TARGETS; otherwise it is kept on purpose in KEPT_WITHOUT_READER.  One
    that only tests read moves into the tests or goes."""
    read = _readers()
    unread = [q for q in _exports() if q.split(".")[1] not in read]
    orphans = [q for q in unread if q not in KEPT_WITHOUT_READER]
    assert not orphans, (f"{len(orphans)} exported names have no reader and no entry in "
                         f"KEPT_WITHOUT_READER: {orphans}; all {len(unread)} without a "
                         f"reader: {unread}")


def test_every_name_kept_without_a_reader_is_exported_and_unread():
    """An entry of KEPT_WITHOUT_READER goes once its name has a reader or leaves __all__."""
    read, exports = _readers(), _exports()
    stale = [q for q in KEPT_WITHOUT_READER if q not in exports or q.split(".")[1] in read]
    assert not stale, f"stale entries of KEPT_WITHOUT_READER: {stale}"
