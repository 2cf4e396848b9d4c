"""Source-wide limits on the package's own code."""

import ast
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


def _names_read(tree: ast.Module) -> set[str]:
    """Every name the module reads, including those inside quoted annotations."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            note = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                names |= _names_read(ast.parse(note.value))
    return names


def test_no_unused_import():
    # the package's __init__ imports in order to re-export; a name imported on a
    # ``# noqa: F401`` line is re-exported on purpose
    unused = []
    for path in sorted((SRC / "qproc").glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source)
        read = _names_read(tree)
        for node in tree.body:
            if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in read and "# noqa: F401" not in lines[alias.lineno - 1]:
                    unused.append(f"{path.relative_to(SRC)}:{alias.lineno} {name}")
    assert not unused, f"imported but never read: {unused}"
