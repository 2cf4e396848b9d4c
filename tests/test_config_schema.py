"""qproc's config checker accepts and refuses what jsonschema does.

A property test mutates the golden configs as ``test_cli_fuzz`` does and
adds the values where the two could part: true and false for an integer,
[true] for a sign string, 3.0 for an integer, infinities, extra keys and
a top level that is not an object.  Each config goes through
``cli.load_config`` and through jsonschema's Draft validator on the same
``CONFIG_SCHEMA``, with integers redefined as JSON ints as qproc's rules
say; both must accept it, or both must refuse it with the same message.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc.cli import CONFIG_SCHEMA, load_config
from qproc.errors import SchemaError
from test_cli_fuzz import CASES, VALUES, _slots

jsonschema = pytest.importorskip("jsonschema")

_DRAFT = jsonschema.validators.validator_for(CONFIG_SCHEMA)
_DRAFT.check_schema(CONFIG_SCHEMA)
ORACLE = jsonschema.validators.extend(
    _DRAFT, type_checker=_DRAFT.TYPE_CHECKER.redefine("integer", lambda checker, value: type(value) is int)
)(CONFIG_SCHEMA)

EDGE_VALUES = st.sampled_from(
    [True, False, [True], [1, True, -1], [1.0, -1.0], 3.0, 1.0, float("inf"), float("-inf"), "+-0", {"++": 0.5}]
)
EXTRA_KEYS = st.sampled_from(["extra", "z", "w", "N", "kind", "seed", "p"])
PREFIX = "config violates the schema: "


def qproc_verdict(text: str) -> str | None:
    """The schema message load_config refuses the config with, or None."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(text)
        try:
            load_config(str(path))
        except SchemaError as exc:
            # other refusals, such as a missing generators file, come after the schema passed
            return str(exc)[len(PREFIX) :] if str(exc).startswith(PREFIX) else None
    return None


@settings(derandomize=True, max_examples=600, deadline=None, database=None)
@given(data=st.data())
def test_checker_agrees_with_jsonschema(data):
    config = copy.deepcopy(data.draw(st.sampled_from(CASES), label="case")["config"])
    # copied, so that a later mutation cannot change the strategy's own lists
    values = st.one_of(VALUES, EDGE_VALUES).map(copy.deepcopy)
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        slots = list(_slots(config))
        if not slots:
            break
        container, key = data.draw(st.sampled_from(slots), label="slot")
        action = data.draw(st.sampled_from(["drop", "replace", "extra"]), label="action")
        if action == "drop":
            del container[key]
        elif action == "replace":
            container[key] = data.draw(values, label="value")
        elif isinstance(container, dict):
            container[data.draw(EXTRA_KEYS, label="extra key")] = data.draw(values, label="extra value")
    if data.draw(st.integers(0, 19), label="top level") == 0:
        config = data.draw(values, label="top-level value")
    text = json.dumps(config)
    error = jsonschema.exceptions.best_match(ORACLE.iter_errors(json.loads(text)))
    assert qproc_verdict(text) == (None if error is None else error.message)
