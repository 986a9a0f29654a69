"""Static checks that need no linter: no dead imports in the package, and
every package name the benchmark harness in perfbench/ hooks or imports
still resolves.  perfbench/ is only read here, never changed."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "slelab"
PERFBENCH = ROOT / "perfbench"


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


@pytest.mark.parametrize(
    "module", sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py"))
def test_no_unused_imports(module):
    assert _unused_imports(PACKAGE / module) == []


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
