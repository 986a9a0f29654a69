"""Static checks that need no linter: no dead imports, no uncalled
module-level names and no np.isclose/np.allclose/np.isscalar in the
package, and
every package name that the benchmark harness in perfbench/ hooks or
imports, or that README.md cites, still resolves.  perfbench/ is only
read here, never changed."""

import ast
import importlib
import importlib.util
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slelab"
PERFBENCH = ROOT / "perfbench"
DEMOS = ROOT / "demos"


def _unused_imports(path: Path) -> list[str]:
    """Names bound by module-level imports that the module never reads."""
    tree = ast.parse(path.read_text())
    bound = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in bound if name not in used]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert _unused_imports(PACKAGE / module) == []


def _numpy_calls(*names: str) -> list[str]:
    """file:line of every np.<name>(...) call in the package."""
    return [f"{path.name}:{node.lineno}"
            for path in sorted(PACKAGE.glob("*.py"))
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy")
            and node.func.attr in names]


def test_no_default_tolerance_comparisons():
    """The package calls no np.isclose or np.allclose: their default atol
    of 1e-8 makes a comparison depend on the scale of its operands (it
    took half a substep of 1e-8 for a whole one)."""
    assert _numpy_calls("isclose", "allclose") == []


def test_no_scalar_special_cases():
    """The package calls no np.isscalar: a numpy function gives a numpy
    scalar for a scalar input, and a refusal belongs to the check that
    reads the input, not to a scalar branch of the kernel."""
    assert _numpy_calls("isscalar") == []


def _definitions(tree: ast.Module):
    """(name, node) of each module-level function, class and constant, and
    of each method and property of a class but its dunders."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("__")):
                    yield item.name, item
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id, node
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            yield node.target.id, node


def _loads(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names and attributes `tree` loads, outside the subtree `skip`."""
    out, stack = set(), [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            out.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return out


def test_public_names_have_a_caller():
    """Every module-level name of the package, and every method and
    property of its classes but the dunders, is loaded somewhere other
    than its own definition: in another part of the package (not
    __init__.py), in demos/ or in perfbench/.  A name only its own unit
    test calls is API nothing needs."""
    trees = {p.name: ast.parse(p.read_text())
             for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}
    outside = set()
    for path in [*DEMOS.glob("*.py"), *PERFBENCH.glob("*.py")]:
        outside |= _loads(ast.parse(path.read_text()))
    uncalled = []
    for module, tree in trees.items():
        others = set(outside)
        for name, other in trees.items():
            if name != module:
                others |= _loads(other)
        for name, node in _definitions(tree):
            if name not in others and name not in _loads(tree, skip=node):
                uncalled.append(f"{module}:{name}")
    assert uncalled == []


def test_readme_names_resolve():
    """Every backticked `module.name` or `slelab.module.name` of README.md,
    also one that starts a call, names an attribute of that module."""
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    names = {(mod, name) for mod, name in re.findall(
        r"`(?:slelab\.)?(\w+)\.(\w+)", (ROOT / "README.md").read_text())
        if mod in modules}
    assert names
    missing = sorted(f"{mod}.{name}" for mod, name in names
                     if not hasattr(importlib.import_module(f"slelab.{mod}"),
                                    name))
    assert missing == []


def test_readme_field_table_is_the_checks():
    """README's check/field table lists, per check, the fields that
    `cli.CHECKS` reads from its runner's parameters."""
    from slelab.cli import CHECKS
    table = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if (cells := re.fullmatch(r"\| (`\w+`(?:, `\w+`)*) \| (.*) \|",
                                  line)):
            fields = set(re.findall(r"`(\w+)`", cells[2]))
            table.update(dict.fromkeys(re.findall(r"`(\w+)`", cells[1]),
                                       fields))
    assert table == {check: set(fields) for check, (_, fields) in CHECKS.items()}


def test_every_exception_has_one_exit_code():
    """Each exception class of the package derives from exactly one of
    core.ConfigError (exit 2) and core.NumericalFailure (exit 3): the CLI
    catches these two bases and no list of classes."""
    from slelab.core import ConfigError, NumericalFailure
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = "slelab" if path.stem == "__init__" else f"slelab.{path.stem}"
        for obj in vars(importlib.import_module(name)).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == name
                    and issubclass(obj, ConfigError)
                    == issubclass(obj, NumericalFailure)):
                stray.append(f"{name}.{obj.__name__}")
    assert stray == []


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_hooks_resolve():
    tracing = _load_perfbench("tracing")
    for mod, name, _layer in tracing.HOOKS:
        module = importlib.import_module(f"slelab.{mod}")
        assert callable(getattr(module, name, None)), f"slelab.{mod}.{name}"
    for mod in tracing._POOL_USERS:
        module = importlib.import_module(f"slelab.{mod}")
        assert callable(getattr(module, "map_chunks", None)), mod
    # the tracer reads normals and deltas from run_leg's positional args
    from slelab.sampler import run_leg
    assert list(inspect.signature(run_leg).parameters)[6:8] == ["normals", "deltas"]


def test_run_leg_as_micro_benchmark_calls_it():
    """micro.py reuses one start array for every round, so run_leg must
    accept its call (positional arguments plus drifted and track_weight)
    and leave that array as it was."""
    from slelab.partition import PartitionSpec
    from slelab.sampler import run_leg
    spec = PartitionSpec("forward", 4.0, 3)
    x0 = np.tile([0.0, 1.0, 3.0], (4, 1))
    normals = np.random.default_rng(0).standard_normal((4, 5))
    for w in (0, 1):
        run_leg("forward", 4.0, spec.exponent, spec.h_weight, x0, 0,
                normals, np.full(5, 1e-4), drifted=True, track_weight=bool(w))
    np.testing.assert_array_equal(x0, np.tile([0.0, 1.0, 3.0], (4, 1)))


def test_benchmark_micro_imports():
    micro = _load_perfbench("micro")
    assert callable(micro.one_round)


def test_cli_import_adds_only_stdlib_modules():
    """Once numpy and scipy.special (ndtri) are in, importing slelab.cli
    adds only standard-library modules, the package itself and
    __mp_main__.  A module-level import of scipy.optimize would add 259
    modules and about 0.26 s to every run's start-up (2-vCPU host)."""
    code = ("import sys, numpy, scipy.special\n"
            "before = set(sys.modules)\n"
            "import slelab.cli\n"
            "print('\\n'.join(sorted(set(sys.modules) - before)))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(ROOT / "src"), os.environ.get("PYTHONPATH")))))
    added = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                           capture_output=True, text=True).stdout.split()
    assert "slelab.cli" in added
    assert [m for m in added
            if m.split(".")[0] not in sys.stdlib_module_names
            and m.split(".")[0] not in ("slelab", "__mp_main__")] == []
