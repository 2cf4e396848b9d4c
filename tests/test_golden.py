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


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_golden_output(case, tmp_path):
    code, out = run_case(case, tmp_path)
    expected_codes = json.loads((GOLDEN / "exit_codes.json").read_text())
    assert code == expected_codes[case["name"]]
    assert out.encode() == (GOLDEN / f"{case['name']}.out").read_bytes()


if __name__ == "__main__":
    codes = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            codes[case["name"]], out = run_case(case, Path(tmp))
            (GOLDEN / f"{case['name']}.out").write_bytes(out.encode())
    (GOLDEN / "exit_codes.json").write_text(json.dumps(codes, indent=1, sort_keys=True) + "\n")
