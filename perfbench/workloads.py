"""Benchmark workloads: seeded input pools, references and output checks.

Each workload draws a small pool of CLI configs from the workload seed; a
run cycles through the pool in order, so every run of one seed does the
same work.  References are computed here, before any timing starts, and
the checks use numpy only, so they share no code with qproc.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable

import numpy as np

KISSING_TOL = 1e-8
ADVANCE_TOL = 1e-9
NORM_MATCH_TOL = 1e-9
GRID_SLACK = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    pool: Callable[[int], list[dict]]
    reference: Callable[[dict], object]
    check: Callable[[dict, object, str], str | None]


def _distinct_magnitudes(rng: np.random.Generator, count: int, gap: float, high: float) -> np.ndarray:
    """``count`` magnitudes in [gap, high], pairwise at least ``gap`` apart."""
    while True:
        mags = np.sort(rng.uniform(gap, high, count))
        if np.all(np.diff(mags) >= gap):
            return mags


def _signed_target(rng: np.random.Generator, mags: np.ndarray) -> list[float]:
    scaled = mags * rng.uniform(0.5, 2.0)
    signs = rng.choice([-1.0, 1.0], size=mags.size)
    return [float(x) for x in rng.permutation(scaled * signs)]


def _parse(text: str) -> dict:
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("output is not a JSON object")
    return payload


# ---------------------------------------------------------------------------
# corner-verify: `qproc verify`, pauli-z N=6, corner protocol.


def corner_verify_pool(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 1])
    return [
        {
            "schema_version": 1,
            "family": {"kind": "pauli-z", "N": 6},
            # six distinct nonzero magnitudes, so all six corner branches are built
            "q": _signed_target(rng, _distinct_magnitudes(rng, 6, 0.05, 1.0)),
            "protocol": {"kind": "corner"},
        }
        for _ in range(4)
    ]


def corner_verify_reference(config: dict) -> float:
    return max(abs(x) for x in config["q"]) ** 2


def corner_verify_check(config: dict, expected_bound: float, text: str) -> str | None:
    out = _parse(text)
    bound = out["variance_bound"]
    if abs(bound - expected_bound) > 1e-12 * expected_bound:
        return f"variance_bound {bound!r} != max|q_j|^2 = {expected_bound!r}"
    checks = out["checks"]
    if set(checks) != {"duality", "kissing", "bound_attained"}:
        return f"unexpected check set {sorted(checks)}"
    failed = [name for name, ok in checks.items() if ok is not True]
    if failed:
        return f"checks failed: {failed}"
    if not out["kissing_residual"] <= KISSING_TOL:
        return f"kissing_residual {out['kissing_residual']!r} > {KISSING_TOL:g}"
    return None


# ---------------------------------------------------------------------------
# mc-simulate: `qproc simulate`, pauli-z N=3, corner protocol, 10k x 10k.


def mc_simulate_pool(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 2])
    pool = []
    for _ in range(2):
        # canonical magnitudes 1 > a > b with gaps >= 0.15, so each of the
        # three branches gets at least 7.5% of the shots
        mags = np.append(_distinct_magnitudes(rng, 2, 0.15, 0.85), 1.0)
        pool.append(
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 3},
                "q": _signed_target(rng, mags),
                "protocol": {"kind": "corner"},
                "simulate": {
                    "theta_true": [float(x) for x in rng.uniform(-0.05, 0.05, 3)],
                    "shots": 10_000,
                    "repetitions": 10_000,
                    "seed": int(rng.integers(0, 2**31)),
                    # about 7 standard errors of the variance at 10k repetitions
                    "tolerance": 0.1,
                },
            }
        )
    return pool


def mc_simulate_reference(config: dict) -> int:
    return config["simulate"]["seed"]


def mc_simulate_check(config: dict, sim_seed: int, text: str) -> str | None:
    out = _parse(text)
    if out["seed"] != sim_seed:
        return f"report seed {out['seed']!r} != config seed {sim_seed}"
    rep = out["report"]
    if rep["ccrb_psd"] is not True:
        return f"ccrb_psd is {rep['ccrb_psd']!r}"
    if rep["impossible_alarm"] is not False:
        return f"impossible_alarm is {rep['impossible_alarm']!r}"
    return None


# ---------------------------------------------------------------------------
# custom-bound: `qproc bound`, three dim-4 generators, numeric minimizer.

# The minimizer's cost varies by 2x between random problems, and by about
# 4% between unitary frames of one problem, since rounding changes its
# search path.  Every seed therefore poses one fixed problem, each pool
# entry in a seed-drawn sign frame S X_j S with S diagonal +-1: the
# off-diagonal signs of the generators differ, while the minimizer's
# arithmetic, and hence its work, stays bit-identical.
_CUSTOM_PROBLEM_SEED = 1
_CUSTOM_DIM = 4
_CUSTOM_PARAMS = 3


def _custom_problem() -> tuple[list[np.ndarray], np.ndarray]:
    rng = np.random.default_rng(_CUSTOM_PROBLEM_SEED)
    gens = []
    for _ in range(_CUSTOM_PARAMS):
        a = rng.standard_normal((_CUSTOM_DIM, _CUSTOM_DIM)) + 1j * rng.standard_normal(
            (_CUSTOM_DIM, _CUSTOM_DIM)
        )
        gens.append(0.5 * (a + a.conj().T))
    return gens, rng.standard_normal(_CUSTOM_PARAMS)


def _to_pairs(matrix: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in matrix]


def custom_bound_pool(seed: int) -> list[dict]:
    rng = np.random.default_rng([seed, 3])
    gens, q = _custom_problem()
    pool = []
    for _ in range(3):
        signs = np.append(1.0, rng.choice([-1.0, 1.0], _CUSTOM_DIM - 1))
        pool.append(
            {
                "schema_version": 1,
                "family": {
                    "kind": "custom-unitary",
                    "generators": [_to_pairs(signs[:, None] * g * signs[None, :]) for g in gens],
                },
                "q": [float(x) for x in q],
            }
        )
    return pool


def spreads(gens: np.ndarray, directions: np.ndarray) -> np.ndarray:
    """Spectral spread of sum_j b_j X_j for each row b of ``directions``."""
    eigs = np.linalg.eigvalsh(np.einsum("mj,jab->mab", directions, gens))
    return eigs[:, -1] - eigs[:, 0]


def grid_min_norm(gens: np.ndarray, q: np.ndarray, points: int = 41, levels: int = 14) -> float:
    """Brute-force minimum of the norm over the plane q.b = 1.

    A zooming grid over a window that provably holds the minimizer: on the
    plane, norm(base + w) >= c|w| - norm(base), with c the smallest norm of
    a unit direction in the plane.  Every grid point is feasible, so the
    result can only overestimate the true minimum.
    """
    base = q / (q @ q)
    plane = np.linalg.svd(q[None, :])[2][1:]
    k = plane.shape[0]
    if k == 0:
        return float(spreads(gens, base[None, :])[0])
    # smallest spread of a unit direction in the plane, sampled with margin
    probe = np.random.default_rng(0).standard_normal((4096, k))
    probe /= np.linalg.norm(probe, axis=1, keepdims=True)
    c = 0.9 * float(spreads(gens, probe @ plane).min())
    width = 2.0 * float(spreads(gens, base[None, :])[0]) / c
    center = np.zeros(k)
    axis = np.linspace(-1.0, 1.0, points)
    best = np.inf
    for _ in range(levels):
        mesh = np.stack(np.meshgrid(*[axis] * k, indexing="ij"), axis=-1).reshape(-1, k)
        offsets = center + width * mesh
        values = spreads(gens, base + offsets @ plane)
        i = int(np.argmin(values))
        best = min(best, float(values[i]))
        center = offsets[i]
        width *= 6.0 / (points - 1)
    return best


def custom_bound_reference(config: dict) -> dict:
    gens = np.array([np.asarray(g)[..., 0] + 1j * np.asarray(g)[..., 1] for g in config["family"]["generators"]])
    q = np.asarray(config["q"], dtype=float)
    return {"gens": gens, "q": q, "grid_min": grid_min_norm(gens, q)}


def custom_bound_check(config: dict, ref: dict, text: str) -> str | None:
    out = _parse(text)
    b = np.asarray(out["b_min"], dtype=float)
    norm = out["norm"]
    if b.shape != ref["q"].shape:
        return f"b_min has shape {b.shape}"
    recomputed = float(spreads(ref["gens"], b[None, :])[0])
    if abs(recomputed - norm) > NORM_MATCH_TOL * max(1.0, norm):
        return f"norm {norm!r} != spread at b_min {recomputed!r}"
    advance = float(ref["q"] @ b)
    if abs(advance - 1.0) > ADVANCE_TOL:
        return f"b_min advances {advance!r} units of q"
    if norm > ref["grid_min"] + GRID_SLACK:
        return f"norm {norm!r} exceeds the grid minimum {ref['grid_min']!r}"
    return None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corner-verify",
            "verify",
            corner_verify_pool,
            corner_verify_reference,
            corner_verify_check,
        ),
        Workload(
            "mc-simulate",
            "simulate",
            mc_simulate_pool,
            mc_simulate_reference,
            mc_simulate_check,
        ),
        Workload(
            "custom-bound",
            "bound",
            custom_bound_pool,
            custom_bound_reference,
            custom_bound_check,
        ),
    )
}


def check_output(workload: Workload, config: dict, reference, code, text: str | None) -> str | None:
    """Why one invocation's result is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code!r}"
    if text is None:
        return "no output written"
    try:
        return workload.check(config, reference, text)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}"
