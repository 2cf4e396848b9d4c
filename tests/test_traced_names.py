"""The benchmark's tracer wraps qproc entry points by name; a renamed or
removed entry point must fail here rather than in a traced benchmark run."""

import ast
import importlib
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced_names() -> list[tuple[str, str]]:
    tables = {}
    for node in ast.parse(TRACING.read_text()).body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            if isinstance(target, ast.Name) and target.id in ("SPANNED", "COUNTED"):
                tables[target.id] = ast.literal_eval(node.value)
    assert set(tables) == {"SPANNED", "COUNTED"}
    return [*tables["SPANNED"], *tables["COUNTED"]]


NAMES = _traced_names()


@pytest.mark.parametrize("layer, path", NAMES, ids=[f"{layer}.{path}" for layer, path in NAMES])
def test_traced_name_resolves(layer, path):
    owner = importlib.import_module(f"qproc.{layer}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_worker_p_floor():
    import qproc.protocols

    assert isinstance(qproc.protocols.DEFAULT_P_FLOOR, float)
