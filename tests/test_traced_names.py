"""The benchmark's tracer wraps qproc entry points by name and reads a few
attributes off the objects they take and return; a renamed or removed
entry point or attribute must fail here rather than in a traced benchmark
run."""

import ast
import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

from qproc import OneForm, ZooAmplitudes, corner_protocol, zoo_protocol
from qproc.simulate import sample_estimates

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


@pytest.mark.parametrize("variant", ["branched", "mixed"])
def test_branch_attributes_the_tracer_reads(variant):
    # the Povm counter reads len(elements) and elements[0].dim; the outcome
    # metrics read each element's entries against the fiducial's density,
    # built from a pure fiducial's amplitudes or read from a mixed one's entries
    protocols = [corner_protocol(OneForm([1.0, 0.5])), zoo_protocol(ZooAmplitudes([1.0, 0.5]), variant=variant)]
    for branch in (branch for protocol in protocols for branch in protocol.branches):
        elements = branch.measurement.elements
        dim = elements[0].dim
        assert all(element.entries.shape == (dim, dim) for element in elements)
        fiducial = branch.fiducial
        if hasattr(fiducial, "amplitudes"):
            rho = np.outer(fiducial.amplitudes, fiducial.amplitudes.conj())
        else:
            rho = fiducial.entries
        assert rho.shape == (dim, dim)
    mixed = [type(branch.fiducial).__name__ for branch in protocols[1].branches]
    assert set(mixed) == {"DensityOperator" if variant == "mixed" else "PureState"}


def test_sample_estimates_binds_protocol_and_repetitions():
    # the cell counter binds the call's arguments by name; the CLI passes them by position
    call = ("protocol", "family", "theta", "shots", "repetitions", "seed")
    bound = inspect.signature(sample_estimates).bind(*call).arguments
    assert (bound["protocol"], bound["repetitions"]) == ("protocol", "repetitions")
