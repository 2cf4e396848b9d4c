"""Byte-for-byte golden outputs of the command line.

``tests/golden/cases.json`` lists each case: a config and the command
line to run it with.  ``tests/golden/<name>.out`` holds the expected
stdout and ``tests/golden/exit_codes.json`` the expected exit codes.
Regenerate them with ``PYTHONPATH=src python tests/test_golden.py``; a
golden file changes only with a reason recorded in CHANGES.md.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from qproc.cli import main

GOLDEN = Path(__file__).parent / "golden"
CASES = json.loads((GOLDEN / "cases.json").read_text())


def run_case(case: dict, workdir: Path) -> tuple[int, str]:
    config = workdir / f"{case['name']}.json"
    config.write_text(json.dumps(case["config"]))
    command, *flags = case["argv"]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main([command, str(config), *flags])
    return code, stdout.getvalue()


def first_difference(expected, actual, path="$"):
    """The first JSON path at which two parsed documents differ, with the
    two values there, or None.  Leaves compare by their JSON text, so 1
    and 1.0 differ and NaN equals NaN."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}.{key}", expected.get(key, "<absent>"), actual.get(key, "<absent>")
            found = first_difference(expected[key], actual[key], f"{path}.{key}")
            if found:
                return found
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (e, a) in enumerate(zip(expected, actual)):
            found = first_difference(e, a, f"{path}[{i}]")
            if found:
                return found
        if len(expected) != len(actual):
            return f"{path} length", len(expected), len(actual)
        return None
    if json.dumps(expected) != json.dumps(actual):
        return path, expected, actual
    return None


def describe_difference(expected: str, actual: str) -> str:
    """Where two outputs differ, as a JSON path when both parse as JSON."""
    try:
        found = first_difference(json.loads(expected), json.loads(actual))
    except ValueError:
        return "output differs (not JSON)"
    if found is None:
        return "same JSON, different bytes"
    path, want, got = found
    return f"first difference at {path}: expected {_short(want)}, got {_short(got)}"


def _short(value, limit: int = 120) -> str:
    text = json.dumps(value)
    return text if len(text) <= limit else text[:limit] + "..."


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, tmp_path):
    code, out = run_case(case, tmp_path)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[case["name"]]
    expected = (GOLDEN / f"{case['name']}.out").read_bytes()
    assert out.encode() == expected, describe_difference(expected.decode(), out)


def test_difference_names_the_path():
    expected = json.dumps({"a": [1.0, {"b": 2.0}], "c": "x"})
    assert describe_difference(expected, json.dumps({"a": [1.0, {"b": 3.0}], "c": "y"})) == (
        "first difference at $.a[1].b: expected 2.0, got 3.0"
    )
    assert describe_difference(expected, json.dumps({"a": [1.0], "c": "x"})) == (
        "first difference at $.a length: expected 2, got 1"
    )
    assert describe_difference(expected, json.dumps({"a": [1.0, {"b": 2.0}]})) == (
        'first difference at $.c: expected "x", got "<absent>"'
    )
    long = json.dumps({"a": list(range(100))})
    assert describe_difference(long, json.dumps({"a": 0})).endswith(" 31, 3..., got 0")
    assert describe_difference(expected, json.dumps({"a": [1, {"b": 2.0}], "c": "x"})) == (
        "first difference at $.a[0]: expected 1.0, got 1"
    )
    assert describe_difference(expected, json.dumps(json.loads(expected), indent=1)) == (
        "same JSON, different bytes"
    )
    assert describe_difference("a,b\n1,2\n", "a,b\n1,3\n") == "output differs (not JSON)"


if __name__ == "__main__":
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            codes[case["name"]], out = run_case(case, Path(tmp))
            (GOLDEN / f"{case['name']}.out").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
