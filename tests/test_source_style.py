"""Source-wide limits on the package's own code and its tests."""

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
    for path in [*sorted((SRC / "qproc").glob("*.py")), *sorted((SRC.parent / "tests").glob("*.py"))]:
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
                    unused.append(f"{path.relative_to(SRC.parent)}:{alias.lineno} {name}")
    assert not unused, f"imported but never read: {unused}"


PERFBENCH = SRC.parent / "perfbench"
# src/qproc definitions that no src/qproc code reads and the benchmark's tracer does
# not name, each kept on purpose
UNREAD_ON_PURPOSE = (
    ("qfisher.sld", "acceptance criterion 6: the symmetric logarithmic derivative of a mixed probe"),
    ("qfisher.qfi_pure", "acceptance criteria 5-6: the quantum Fisher information of a pure probe"),
    ("qfisher.qfi_from_sld", "acceptance criterion 6: the quantum Fisher information from the SLD"),
    ("qfisher.verify_chain", "the F <= Q <= ||b||^2 chain that ROADMAP item 10 puts on verify's path"),
    ("simulate.debias", "acceptance criterion 8: local debiasing of estimates"),
    ("simulate.fit_bias_correction", "acceptance criterion 8: the linear bias fit"),
    ("simulate.fit_bias_polynomial", "acceptance criterion 8: the polynomial bias fit"),
    ("protocols.parity_operator", "the paper's local parity realisation of the conjugate-cat readout"),
    ("protocols.parity_eigenvalue", "the paper's local parity realisation of the conjugate-cat readout"),
    ("protocols.mixture", "library helper: the density operator of a weighted mixture of states"),
    ("operators.PureState.density", "library helper: the density operator of a pure state"),
)


def _definitions(tree: ast.Module):
    """(qualified name, bare name, first line, last line) of every module-level
    function and class, and of every method not named __*__."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node.name, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item.name, item.lineno, item.end_lineno


def _reads(tree: ast.AST):
    """(name, line) of every Name and Attribute node."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def test_every_definition_is_read():
    # read means read by src/qproc outside the definition's own body, or named by the
    # benchmark's tracer or worker: a span, a counter, or an attribute read off a result
    trees = {
        path.stem: ast.parse(path.read_text())
        for path in sorted((SRC / "qproc").glob("*.py"))
        if path.name != "__init__.py"
    }
    reads = {}
    for module, tree in trees.items():
        for name, line in _reads(tree):
            reads.setdefault(name, []).append((module, line))
    named = set()
    for path in (PERFBENCH / "tracing.py", PERFBENCH / "worker.py"):
        tree = ast.parse(path.read_text())
        named |= {name for name, _ in _reads(tree)}
        named |= {
            part
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, str)
            for part in node.value.split(".")
        }
    read = {
        f"{module}.{qualified}": name in named
        or any(not (m == module and first <= line <= last) for m, line in reads.get(name, ()))
        for module, tree in trees.items()
        for qualified, name, first, last in _definitions(tree)
    }
    kept = dict(UNREAD_ON_PURPOSE)
    unread = [name for name, seen in read.items() if not seen and name not in kept]
    assert not unread, f"defined under src/qproc but never read: {unread}"
    stale = [name for name in kept if read.get(name, True)]
    assert not stale, f"UNREAD_ON_PURPOSE lists names that are read or no longer defined: {stale}"
