"""Source-wide limits on the package's own code."""

from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
MAX_LINE = 120


def test_no_source_line_over_the_limit():
    long = [
        f"{path.relative_to(SRC)}:{number} ({len(line)} characters)"
        for path in sorted(SRC.rglob("*.py"))
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > MAX_LINE
    ]
    assert not long, f"lines over {MAX_LINE} characters: {long}"
