import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

from penscript.netcore import tensor as T
from penscript.netcore.model import ModelConfig, RecognitionModel

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("module", ["penscript", "penscript.netcore"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []


def _tree(name: str) -> ast.Module:
    return ast.parse((PERFBENCH / name).read_text(encoding="utf-8"))


def _resolves(module: str, name: str) -> bool:
    """True when `from module import name` would succeed."""
    if hasattr(importlib.import_module(module), name):
        return True
    try:
        importlib.import_module(f"{module}.{name}")
    except ModuleNotFoundError:
        return False
    return True


def test_benchmark_imports_resolve():
    # the benchmark's files are read, never imported
    imports = [
        (node.module, alias.name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for node in ast.walk(_tree(path.name))
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "penscript"
        for alias in node.names
    ]
    assert imports
    assert [(m, n) for m, n in imports if not _resolves(m, n)] == []


def test_benchmark_trace_targets_resolve():
    targets = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in _tree("tracer.py").body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", "").endswith("_TARGETS")
    }
    functions, methods = targets["FUNCTION_TARGETS"], targets["METHOD_TARGETS"]
    assert functions and methods
    missing = [(m, a) for m, a, _ in functions if not hasattr(importlib.import_module(m), a)]
    missing += [
        (m, c, a) for m, c, a, _ in methods if not hasattr(getattr(importlib.import_module(m), c, None), a)
    ]
    assert missing == []


def _chain(node: ast.expr, root: str) -> tuple[str, ...] | None:
    """The attribute names of a model.a[i].b chain rooted at root; a subscript is "[]"."""
    steps: list[str] = []
    while isinstance(node, (ast.Attribute, ast.Subscript)):
        steps.append(node.attr if isinstance(node, ast.Attribute) else "[]")
        node = node.value
    if not (isinstance(node, ast.Name) and node.id == root and steps):
        return None
    return tuple(reversed(steps))


def _resolves_on(obj, chain: tuple[str, ...]) -> bool:
    for step in chain:
        if step == "[]":
            obj = obj[0]
        elif hasattr(obj, step):
            obj = getattr(obj, step)
        else:
            return False
    return True


def test_benchmark_stage_attributes_resolve():
    # each model.<attr> chain is read on a default model, a subscript taking item 0
    tree = _tree("stages.py")
    model = RecognitionModel(ModelConfig(num_classes=15), 13, "seq2seq", np.random.default_rng(0))
    chains = {(root, c) for root in ("model", "T") for node in ast.walk(tree) if (c := _chain(node, root))}
    assert ("model", ("recurrent", "[]", "fwd")) in chains and ("T", ("reverse_time",)) in chains
    assert sorted(c for c in chains if not _resolves_on(model if c[0] == "model" else T, c[1])) == []
