"""The command line never fails with an internal error.

A property test mutates the golden configs (a dropped key, a value of
the wrong type, a huge, negative, non-integral or NaN number) and runs
each through ``main``: the exit code is 0, 1 or 2, never 3, and stdout
holds one JSON value, or the CSV report of a ``--format csv`` run that
succeeds; the only warning it may raise is the linear-regime one of a
huge ``theta_true``.  The regressions below are inputs that once exited
3 or printed a warning; each must exit 2 with no warning.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc.cli import CSV_HEADER, main

CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())
BY_NAME = {case["name"]: case for case in CASES}
DROP = object()

# Wrong-typed and out-of-range values; none asks for a large amount of work.
VALUES = st.sampled_from(
    [1e308, -1e308, 10**20, -1, -2.5, 0, 0.5, 2.0, 2.5, float("nan"), "x", "", None, True, [], {}, [1.0]]
)


def _slots(node):
    """(container, key) for every entry below ``node``, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in items:
        yield node, key
        yield from _slots(value)


def run(argv: list[str], config, cap: str = "64") -> tuple[int, str]:
    """Run ``main`` on a config written to a scratch file, with
    ``QPROC_MAX_DIM`` set to ``cap``; returns the exit code and stdout."""
    stdout = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, {"QPROC_MAX_DIM": cap}):
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        with contextlib.redirect_stdout(stdout):
            code = main([argv[0], str(path), *argv[1:]])
    return code, stdout.getvalue()


def assert_well_formed(argv: list[str], code: int, out: str) -> None:
    assert code in (0, 1, 2), out
    if code != 2 and "csv" in argv:
        header, row, end = out.split("\r\n")
        assert header == ",".join(CSV_HEADER) and row and not end
    else:
        json.loads(out)  # exactly one JSON value: trailing text fails to parse


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_mutated_configs_never_exit_3(data):
    case = data.draw(st.sampled_from(CASES), label="case")
    config = copy.deepcopy(case["config"])
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = list(_slots(config))
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots), label="slot")
        if data.draw(st.booleans(), label="drop"):
            del container[key]
        else:
            # a copy, so a later mutation cannot reach into the strategy's own list or dict
            container[key] = copy.deepcopy(data.draw(VALUES, label="value"))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(case["argv"], config)
    assert_well_formed(case["argv"], code, out)
    # a huge theta_true may warn that it leaves the linear regime; nothing else may warn
    for warning in caught:
        assert warning.category is UserWarning, warning
        assert "outside the linearization regime" in str(warning.message), warning


# (golden case, path to the mutated entry, new value or DROP)
REGRESSIONS = [
    ("bound-pauliz-corner", ("q", 0), 1e308),  # OverflowError squaring the dual norm
    ("bound-pauliz-corner", ("q", 1), -1e308),
    ("bound-bloch", ("q", 0), 1e308),  # ZeroDivisionError on a zero norm
    ("protocol-hyperface", ("protocol", "z"), DROP),  # KeyError
    ("protocol-hyperedge", ("protocol", "w"), DROP),
    ("protocol-zoo-mixed", ("protocol", "p"), {}),  # IndexError
    ("protocol-zoo-mixed", ("protocol", "p", "++"), "x"),  # ValueError
    ("protocol-zoo-mixed", ("protocol", "p", "++"), [0.5]),  # TypeError
    ("protocol-zoo-pure", ("protocol", "a", 0), float("nan")),  # RuntimeWarning normalizing a NaN fiducial
    ("bound-pauliz-corner", ("family", "N"), 10**6),  # formatting 2^N
    ("bound-pauliz-corner", ("family", "N"), 10**20),  # building 2^N
    ("bound-pauliz-corner", ("family", "N"), 3.0),  # a float in bit arithmetic
    ("geometry-pauliz-3", ("geometry", "resolution"), 1e308),  # numpy ValueError
    ("geometry-pauliz-3", ("geometry", "resolution"), 10**20),
    ("simulate-corner-json", ("simulate", "repetitions"), 10**20),
    ("simulate-corner-json", ("simulate", "shots"), 1e308),
    ("simulate-pair-cusp", ("simulate", "theta_true", 0), float("nan")),  # LinAlgError
    ("protocol-hyperface", ("protocol", "z"), [1, "x", 1]),  # ValueError
    ("bound-pair-smooth", ("family", "epsilon"), 1e308),  # NaN generators
    ("bound-custom-2", ("family", "generators", 0, 0, 0, 0), float("nan")),  # a NaN bound
    ("bound-custom-2", ("family", "generators", 0, 0, 0, 1), 1e308),  # A - A^dag overflows
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "name, path, value", REGRESSIONS, ids=[f"{n}:{'.'.join(map(str, p))}" for n, p, _ in REGRESSIONS]
)
def test_malformed_values_exit_2(name, path, value):
    case = BY_NAME[name]
    config = copy.deepcopy(case["config"])
    container = config
    for key in path[:-1]:
        container = container[key]
    if value is DROP:
        del container[path[-1]]
    else:
        container[path[-1]] = value
    code, out = run(case["argv"], config)
    assert code == 2, out
    assert set(json.loads(out)) == {"error", "message"}


DEEP = b"[" * 100_000  # nested past the parser's recursion limit
CUSTOM = b'{"schema_version": 1, "family": {"kind": "custom-unitary", "generators_path": "%s"}, "q": [1.0]}'
# (config bytes, generators file bytes or None): each file is unreadable as JSON
MALFORMED_FILES = {
    "config-not-utf8": (b'{"schema_version": 1, "family": {"kind": "bloch"}, "q": [1.0, 0.5, "\xff"]}', None),
    "config-nested-too-deep": (DEEP, None),
    "config-integer-over-the-digit-limit": (b'{"schema_version": 1, "q": [1' + b"0" * 5000 + b"]}", None),
    "generators-nested-too-deep": (CUSTOM, DEEP),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("config, generators", MALFORMED_FILES.values(), ids=MALFORMED_FILES)
def test_malformed_files_exit_2(config, generators, tmp_path):
    # each exited 3: a UnicodeDecodeError, a RecursionError or a ValueError the read did not catch
    path, generators_path = tmp_path / "config.json", tmp_path / "generators.json"
    path.write_bytes(config.replace(b"%s", str(generators_path).encode()))
    if generators is not None:
        generators_path.write_bytes(generators)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bound", str(path)])
    assert code == 2, stdout.getvalue()
    assert json.loads(stdout.getvalue())["error"] == "schema"


def test_variance_bound_beyond_the_float_range_exits_2():
    tiny_z = [[[1e-300, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1e-300, 0.0]]]
    config = {"schema_version": 1, "family": {"kind": "custom-unitary", "generators": [tiny_z]}, "q": [1.0]}
    code, out = run(["bound"], config)
    assert code == 2, out
    assert "overflows" in json.loads(out)["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["bound", "verify", "protocol"])
def test_variance_bound_below_the_float_range_exits_2(command):
    # the bound 1e-400 is no float: it printed 0.0, and verify and protocol exited 3
    config = {"schema_version": 1, "family": {"kind": "pauli-z", "N": 2}, "q": [1e-200, 5e-201]}
    config["protocol"] = {"kind": "corner"}
    code, out = run([command], config)
    assert code == 2, out
    assert "underflows" in json.loads(out)["message"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["bound", "verify", "protocol", "simulate"])
def test_zero_target_is_refused_alike_by_every_command(command):
    # simulate took the bound from dual_norm's zero-form convention and exited 2 only
    # later, with an UnboundedVarianceError from the Fisher matrix
    config = {"schema_version": 1, "family": {"kind": "pauli-z", "N": 2}, "q": [0.0, 0.0]}
    config["protocol"] = {"kind": "hyperface", "z": [1, 1]}
    config["simulate"] = {"shots": 10, "repetitions": 2, "seed": 0}
    code, out = run([command], config)
    assert code == 2, out
    assert json.loads(out) == {"error": "ArgumentError", "message": "cannot minimize against the zero form"}


def test_custom_family_above_the_dimension_cap_exits_2():
    generators = [np.stack([g.real, g.imag], axis=-1).tolist() for g in (np.diag(np.arange(8.0)), np.eye(8))]
    config = {"schema_version": 1, "family": {"kind": "custom-unitary", "generators": generators}, "q": [1.0, 0.0]}
    code, out = run(["bound"], config, cap="4")
    assert code == 2, out
    assert json.loads(out)["error"] == "ResourceLimitError"


def test_non_integer_dimension_cap_exits_2():
    code, out = run(["bound"], BY_NAME["bound-pauliz-corner"]["config"], cap="abc")
    assert code == 2, out
    assert "QPROC_MAX_DIM" in json.loads(out)["message"]


@pytest.mark.parametrize("cap", ["-5", "0"])
@pytest.mark.parametrize("kind", ["pauli-z", "bloch"])
def test_non_positive_dimension_cap_exits_2(kind, cap):
    # a pauli-z bound once ran under a cap below 1, while a bloch bound named it as the cap it exceeded
    q = [1.0, 0.5] if kind == "pauli-z" else [1.0, 0.5, 0.2]
    config = {"schema_version": 1, "family": {"kind": kind}, "q": q}
    code, out = run(["bound"], config, cap=cap)
    assert code == 2, out
    error = json.loads(out)
    assert error["error"] == "ArgumentError"
    assert "QPROC_MAX_DIM must be a positive integer" in error["message"]
