"""Command-line front end.

One self-describing JSON config drives every run; flags only override
the output path and format, and for ``simulate`` the seed and shot
count, so any result can be reproduced from a file checked into a test
fixture.  A small checker over ``CONFIG_SCHEMA`` validates each config,
overrides included, and names its shallowest violation.

Exit codes: 0 success, 1 verification failure (a bound or saturation
check did not hold), 2 usage or schema error (a config or generators
file that is missing, unreadable, or not UTF-8 JSON within the parser's
nesting and integer-digit limits, and an unwritable output path
included), or a run that ran out of memory, 3 an internal error.  Every
error prints one JSON object, never a traceback.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from pathlib import Path

import numpy as np

from .errors import ArgumentError, QprocError, SchemaError, UnboundedVarianceError
from .families import (
    BlochFamily,
    EpsilonPairFamily,
    PauliZFamily,
    ProcessFamily,
    minimize_norm,
    unit_ball_mesh,
)
from .operators import HermitianOperator, matrix_from_pairs
from .protocols import (
    Protocol,
    ZooAmplitudes,
    bloch_protocol,
    corner_protocol,
    hyperedge_protocol,
    hyperface_protocol,
    kissing_residual,
    optimal_protocol,
    protocol_fisher,
    zoo_protocol,
)
from .simulate import STREAM_VERSION, report, sample_estimates
from .tangent import OneForm, canonicalize, fisher_dual

KISSING_TOL = 1e-8
SCHEMA_VERSION = 1
# Bound on |q_j|, on generator entries and on epsilon, so that their
# squares and sums (q.q, X + X^dag, 2 epsilon) stay finite floats.
MAX_MAGNITUDE = 1e150
CSV_HEADER = ("protocol", "dq", "shots", "repetitions", "variance", "bound", "z_score", "seed")

CONFIG_SCHEMA = {
    "type": "object",
    "required": ["schema_version", "family", "q"],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "family": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["pauli-z", "bloch", "epsilon-pair", "custom-unitary"]},
                "N": {"type": "integer", "minimum": 1},
                "epsilon": {"type": "number", "minimum": 0, "maximum": MAX_MAGNITUDE},
                "generators": {"type": "array"},
                "generators_path": {"type": "string"},
            },
        },
        "q": {
            "type": "array",
            "items": {"type": "number", "minimum": -MAX_MAGNITUDE, "maximum": MAX_MAGNITUDE},
            "minItems": 1,
        },
        "protocol": {
            "type": "object",
            "required": ["kind"],
            "properties": {
                "kind": {"enum": ["hyperface", "hyperedge", "corner", "zoo", "bloch", "optimal"]},
                "z": {"type": ["array", "string"], "items": {"enum": [-1, 0, 1]}},
                "w": {"type": ["array", "string"], "items": {"enum": [-1, 0, 1]}},
                "a": {"type": "array", "items": {"type": "number"}},
                "p": {
                    "type": ["array", "object"],
                    "minItems": 1,
                    "minProperties": 1,
                    "items": {"type": "number"},
                    "additionalProperties": {"type": "number"},
                },
                "variant": {"enum": ["branched", "pure", "mixed"]},
                "expect_optimal": {"type": "boolean"},
            },
            "allOf": [
                {"if": {"properties": {"kind": {"const": "hyperface"}}}, "then": {"required": ["z"]}},
                {"if": {"properties": {"kind": {"const": "hyperedge"}}}, "then": {"required": ["w"]}},
            ],
        },
        "simulate": {
            "type": "object",
            "required": ["shots", "repetitions", "seed"],
            "properties": {
                "theta_true": {"type": "array", "items": {"type": "number"}},
                "shots": {"type": "integer", "minimum": 1, "maximum": 10**12},
                "repetitions": {"type": "integer", "minimum": 2, "maximum": 10**8},
                "seed": {"type": "integer"},
                "tolerance": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "geometry": {
            "type": "object",
            "properties": {"resolution": {"type": "integer", "minimum": 1, "maximum": 2**20}},
        },
        "output": {
            "type": "object",
            "properties": {
                "path": {"type": "string"},
                "format": {"enum": ["json", "csv"]},
            },
        },
    },
}

# qproc's own checker enforces CONFIG_SCHEMA with the keywords it uses, as
# jsonschema does: bool is never a number, an integer is a JSON int (3.0 is
# refused), in const and enum true is not 1 but 1.0 is, a keyword skips a
# value of a type it does not apply to, and NaN passes minimum and maximum.
_TYPES = {dict: {"object"}, list: {"array"}, str: {"string"}, bool: {"boolean"},
          int: {"integer", "number"}, float: {"number"}}


def _listed(types) -> list:
    return [types] if isinstance(types, str) else types


def _is(value, types) -> bool:
    return not _TYPES.get(type(value), set()).isdisjoint(_listed(types))


# keyword: (value, rule) -> jsonschema's message for a violation, else a false value
_LEAVES = {
    "type": lambda v, t: not _is(v, t) and f"{v!r} is not of type {', '.join(map(repr, _listed(t)))}",
    "enum": lambda v, e: all(v != c or isinstance(v, bool) != isinstance(c, bool) for c in e)
        and f"{v!r} is not one of {e!r}",
    "const": lambda v, c: _LEAVES["enum"](v, [c]) and f"{c!r} was expected",
    "minimum": lambda v, m: _is(v, "number") and v < m and f"{v!r} is less than the minimum of {m!r}",
    "maximum": lambda v, m: _is(v, "number") and v > m and f"{v!r} is greater than the maximum of {m!r}",
    "exclusiveMinimum": lambda v, m: _is(v, "number") and v <= m
        and f"{v!r} is less than or equal to the minimum of {m!r}",
    "minItems": lambda v, n: _is(v, "array") and len(v) < n
        and f"{v!r} {'should be non-empty' if n == 1 else 'is too short'}",
    "minProperties": lambda v, n: _is(v, "object") and len(v) < n
        and f"{v!r} {'should be non-empty' if n == 1 else 'does not have enough properties'}",
}
_KEYWORDS = {*_LEAVES, "required", "properties", "additionalProperties", "items", "allOf", "if", "then"}


def check_schema_keywords(schema: dict) -> None:
    """Refuse a keyword that the checker does not implement and would ignore."""
    if unknown := schema.keys() - _KEYWORDS:
        raise ValueError(f"the config schema uses {sorted(unknown)}, which qproc's checker does not implement")
    nested = [schema[key] for key in ("additionalProperties", "items", "if", "then") if key in schema]
    for sub in [*schema.get("properties", {}).values(), *schema.get("allOf", []), *nested]:
        check_schema_keywords(sub)


def _violations(schema: dict, value, path: tuple = ()):
    """(path, off_type, message) per violation, in schema order.  The one
    with the largest (-len(path), path, off_type), the first of equals, is
    what jsonschema's best_match reports; off_type says the value misses
    the schema's own type, or the schema names none."""
    off_type, known = not _is(value, schema.get("type", [])), schema.get("properties", {})
    for key, rule in schema.items():
        if key in _LEAVES and (message := _LEAVES[key](value, rule)):
            yield path, off_type, message
        elif key == "required" and isinstance(value, dict):
            yield from ((path, off_type, f"{name!r} is a required property") for name in rule if name not in value)
        elif key in ("properties", "additionalProperties") and isinstance(value, dict):
            # a listed property takes its own schema, any other additionalProperties'
            for name in value.keys() & known.keys() if key == "properties" else value.keys() - known.keys():
                yield from _violations(known.get(name, rule), value[name], (*path, name))
        elif key == "items" and isinstance(value, list):
            for index, item in enumerate(value):
                yield from _violations(rule, item, (*path, index))
        elif key == "allOf":
            for sub in rule:
                yield from _violations(sub, value, path)
        elif key == "if" and next(_violations(rule, value, path), None) is None:
            yield from _violations(schema.get("then", {}), value, path)


check_schema_keywords(CONFIG_SCHEMA)


def _read_json(path: str, what: str):
    """The parsed JSON of a file; one that is missing, unreadable, not UTF-8, not
    JSON, or past the parser's nesting and integer-digit limits is a SchemaError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise SchemaError(f"cannot read {what} file {path!r}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"{what} file {path!r} is not valid JSON: {type(exc).__name__}: {exc}") from exc


def load_config(path: str, overrides: dict | None = None) -> dict:
    """Read and validate a config; ``overrides`` replace entries of its
    simulate block before validation, so they are checked like the file."""
    config = _read_json(path, "config")
    if overrides and isinstance(config, dict) and isinstance(config.setdefault("simulate", {}), dict):
        config["simulate"].update(overrides)
    worst = max(_violations(CONFIG_SCHEMA, config), key=lambda v: (-len(v[0]), v[0], v[1]), default=None)
    if worst is not None:
        raise SchemaError(f"config violates the schema: {worst[2]}")
    return config


def family_from_config(config: dict) -> ProcessFamily:
    section = config["family"]
    kind = section["kind"]
    n_q = len(config["q"])
    if kind == "pauli-z":
        n = section.get("N", n_q)
        family = PauliZFamily(n)
    elif kind == "bloch":
        family = BlochFamily()
    elif kind == "epsilon-pair":
        family = EpsilonPairFamily(section.get("epsilon", 0.0))
    else:
        if "generators_path" in section:
            nested = _read_json(section["generators_path"], "generators")
        elif "generators" in section:
            nested = section["generators"]
        else:
            raise SchemaError("custom-unitary families need generators or generators_path")
        try:
            matrices = [matrix_from_pairs(g) for g in nested]
            # checked before the Hermiticity test, whose A - A^dag would overflow
            if any(np.abs(m).max(initial=0.0) > MAX_MAGNITUDE for m in matrices):
                raise ArgumentError(f"entries must not exceed {MAX_MAGNITUDE:g} in magnitude")
            gens = [HermitianOperator(m) for m in matrices]
        except QprocError as exc:
            raise SchemaError(f"bad generator matrices: {exc}") from exc
        family = ProcessFamily(gens)
    if family.n_params != n_q:
        raise SchemaError(f"q has {n_q} components but the family has {family.n_params} parameters")
    return family


def protocol_from_config(config: dict, family: ProcessFamily) -> Protocol:
    section = config.get("protocol")
    if section is None:
        raise SchemaError("this command needs a protocol block in the config")
    kind = section["kind"]
    dq = OneForm(config["q"])
    if kind == "hyperface":
        return hyperface_protocol(section["z"])
    if kind == "hyperedge":
        return hyperedge_protocol(section["w"])
    if kind == "corner":
        if isinstance(family, EpsilonPairFamily) and family.epsilon > 0:
            return optimal_protocol(family, dq)
        return corner_protocol(dq)
    if kind == "zoo":
        if "a" in section:
            return zoo_protocol(ZooAmplitudes(np.array(section["a"])), variant=section.get("variant", "branched"))
        if "p" in section:
            return zoo_protocol(section["p"], n_params=family.n_params, variant=section.get("variant", "branched"))
        raise SchemaError("zoo protocols need marginals 'a' or a distribution 'p'")
    if kind == "bloch":
        return bloch_protocol(dq)
    return optimal_protocol(family, dq)


def _claims_optimality(section: dict | None) -> bool:
    if section is None:
        return False
    if "expect_optimal" in section:
        return bool(section["expect_optimal"])
    return section["kind"] in ("corner", "bloch", "optimal")


def _kisses(residual: float, norm: float, dq: OneForm) -> bool:
    """Whether the residual is within KISSING_TOL of ||b||^2 max_j |q_j|, the size of F b at saturation."""
    return residual <= KISSING_TOL * norm * (norm * float(np.max(np.abs(dq.components))))


def cmd_bound(config: dict) -> tuple[int, dict]:
    family = family_from_config(config)
    dq = OneForm(config["q"])
    result = minimize_norm(family, dq)
    canonical = canonicalize(dq)
    return 0, {
        "family": family.describe(),
        "q": [float(x) for x in dq.components],
        "norm": result.norm,
        "b_min": [float(x) for x in result.vector.components],
        "dual_norm": result.dual_norm,
        "variance_bound": result.dual_norm**2,
        "at_corner": result.at_corner,
        "adjacent_faces": None
        if result.adjacent_faces is None
        else [list(f) for f in result.adjacent_faces],
        "canonicalization": {
            "permutation": list(canonical.permutation),
            "scale": canonical.scale,
            "sign": canonical.sign,
            "dropped": sorted(canonical.dropped),
            "canonical": [float(x) for x in canonical.canonical.components],
        },
    }


def cmd_protocol(config: dict) -> tuple[int, dict]:
    family = family_from_config(config)
    dq = OneForm(config["q"])
    protocol = protocol_from_config(config, family)
    fisher = protocol_fisher(protocol, family)
    minimizer = minimize_norm(family, dq)
    residual = kissing_residual(fisher, minimizer.vector, family, dq)
    payload = {
        "family": family.describe(),
        "q": [float(x) for x in dq.components],
        "protocol": protocol.to_dict(),
        "fisher": [[float(x) for x in row] for row in fisher.entries],
        "kissing_residual": residual,
        "variance_bound": minimizer.dual_norm**2,
        "weights": protocol.weights.tolist(),
    }
    code = 1 if (_claims_optimality(config.get("protocol")) and not _kisses(residual, minimizer.norm, dq)) else 0
    return code, payload


def cmd_simulate(config: dict) -> tuple[int, dict]:
    family = family_from_config(config)
    sim = config.get("simulate")
    if sim is None:
        raise SchemaError("simulate runs need a simulate block")
    protocol = protocol_from_config(config, family)
    dq = OneForm(config["q"])
    bound = minimize_norm(family, dq).dual_norm ** 2
    theta = np.asarray(sim.get("theta_true", [0.0] * family.n_params), dtype=float)
    if theta.size != family.n_params:
        raise SchemaError("theta_true length does not match the family")
    samples = sample_estimates(protocol, family, theta, sim["shots"], sim["repetitions"], sim["seed"])
    fisher = protocol_fisher(protocol, family)
    summary = report(samples, bound, sim["shots"], fisher=fisher, dq=dq, tolerance=sim.get("tolerance", 0.05))
    payload = {
        "family": family.describe(),
        "q": [float(x) for x in dq.components],
        "protocol_kind": protocol.kind,
        "theta_true": [float(x) for x in theta],
        "seed": sim["seed"],
        "stream": STREAM_VERSION,
        "report": summary,
    }
    return (0 if summary["within_tolerance"] else 1), payload


def cmd_geometry(config: dict) -> tuple[int, dict]:
    family = family_from_config(config)
    resolution = config.get("geometry", {}).get("resolution", 256)
    payload = unit_ball_mesh(family, resolution)
    dq = OneForm(config["q"])
    payload["level_normal"] = [float(x) for x in dq.components]
    if config.get("protocol") is not None:
        protocol = protocol_from_config(config, family)
        fisher = protocol_fisher(protocol, family)
        payload["fisher_ellipsoid"] = [[float(x) for x in row] for row in fisher.entries]
    return 0, payload


def cmd_verify(config: dict) -> tuple[int, dict]:
    family = family_from_config(config)
    dq = OneForm(config["q"])
    minimizer = minimize_norm(family, dq)
    checks = {
        "duality": abs(minimizer.dual_norm * minimizer.norm - 1.0) <= 1e-10,
    }
    payload = {
        "family": family.describe(),
        "q": [float(x) for x in dq.components],
        "variance_bound": minimizer.dual_norm**2,
    }
    if config.get("protocol") is not None:
        protocol = protocol_from_config(config, family)
        fisher = protocol_fisher(protocol, family)
        residual = kissing_residual(fisher, minimizer.vector, family, dq)
        try:
            attained = fisher_dual(fisher, dq)
        except UnboundedVarianceError:
            # the protocol is blind to part of the target; it attains nothing
            attained = float("inf")
        checks["kissing"] = _kisses(residual, minimizer.norm, dq)
        checks["bound_attained"] = abs(attained - minimizer.dual_norm**2) <= KISSING_TOL * minimizer.dual_norm**2
        payload["kissing_residual"] = residual
        payload["attained_variance"] = attained
    payload["checks"] = checks
    return (0 if all(checks.values()) else 1), payload


COMMANDS = {
    "bound": cmd_bound,
    "protocol": cmd_protocol,
    "simulate": cmd_simulate,
    "geometry": cmd_geometry,
    "verify": cmd_verify,
}


def _emit(payload, command: str, config: dict, args) -> None:
    fmt = args.format or config.get("output", {}).get("format", "json")
    path = args.output or config.get("output", {}).get("path")
    if fmt == "csv":
        if command != "simulate":
            raise SchemaError("csv output is only defined for simulate reports")
        buffer = io.StringIO()
        writer = csv.writer(buffer)
        summary = payload["report"]
        dq = " ".join(f"{x:.17g}" for x in payload["q"])
        figures = [f"{summary[key]:.17g}" for key in ("empirical_variance", "bound_per_shot", "z_score")]
        writer.writerow(CSV_HEADER)
        writer.writerow(
            [payload["protocol_kind"], dq, summary["shots"], summary["repetitions"], *figures, payload["seed"]]
        )
        text = buffer.getvalue()
    else:
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if path:
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise SchemaError(f"cannot write output file {path!r}: {exc}") from exc
    else:
        sys.stdout.write(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qproc",
        description="Precision bounds and optimal protocols for estimating one "
        "scalar function of many process parameters.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("bound", "compute the attainable variance bound and its minimizer"),
        ("protocol", "construct a protocol, its information matrix, and the saturation residual"),
        ("simulate", "Monte-Carlo estimator runs against the bound"),
        ("geometry", "export unit-ball geometry for external plotting"),
        ("verify", "run all bound/saturation consistency checks"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", help="path to the JSON problem description")
        if name == "simulate":
            cmd.add_argument("--seed", type=int, default=None, help="override the simulation seed")
            cmd.add_argument("--shots", type=int, default=None, help="override the per-run shot count")
        cmd.add_argument("--output", default=None, help="override the output path")
        cmd.add_argument("--format", choices=("json", "csv"), default=None, help="output format")
    return parser


# Built once: a parser is a reference cycle, so one built per call is
# left to the cyclic garbage collector and fragments the heap of a
# process that calls main many times.
_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        overrides = {key: getattr(args, key) for key in ("seed", "shots") if getattr(args, key, None) is not None}
        config = load_config(args.config, overrides)
        code, payload = COMMANDS[args.command](config)
        _emit(payload, args.command, config, args)
        return code
    except SchemaError as exc:
        return _error("schema", str(exc))
    except QprocError as exc:
        return _error(type(exc).__name__, str(exc))
    except MemoryError as exc:
        return _error("ResourceLimitError", f"out of memory: {exc}")
    except Exception as exc:  # last resort: a defect, reported without a traceback
        return _error("internal", f"{type(exc).__name__}: {exc}", code=3)


def _error(name: str, message: str, code: int = 2) -> int:
    sys.stdout.write(json.dumps({"error": name, "message": message}, sort_keys=True) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
