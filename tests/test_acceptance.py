"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  Every tolerance is pinned here, not configurable.
"""

import time
from itertools import product

import numpy as np
import pytest

from qproc import (
    BlochFamily,
    EpsilonPairFamily,
    OneForm,
    PauliZFamily,
    ProcessFamily,
    PureState,
    ZooAmplitudes,
    bloch_direction_grid,
    bloch_protocol,
    corner_protocol,
    debias,
    fisher_dual,
    fit_bias_correction,
    fit_bias_polynomial,
    hyperedge_protocol,
    hyperface_protocol,
    kissing_residual,
    minimize_norm,
    protocol_fisher,
    qfi_from_sld,
    qfi_pure,
    sample_estimates,
    seminorm,
    sld,
    zoo_protocol,
)

from conftest import qubit_fisher_grid, random_density, random_pure_state, random_traceless_hermitian

RNG = np.random.default_rng(0xACCE97)


def _stamp(number, name, start, limit, detail):
    elapsed = time.time() - start
    print(f"ACCEPTANCE {number} ({name}): PASS — {detail} [{elapsed:.1f}s < {limit}s]")
    assert elapsed < limit


def test_criterion_1_process_norm_closed_forms():
    start = time.time()
    worst = 0.0
    for n in range(1, 7):
        family = PauliZFamily(n)
        for _ in range(200):
            b = RNG.standard_normal(n)
            worst = max(worst, abs(family.norm(b) - seminorm(family.generator(b))))
            assert family.norm(b) == pytest.approx(np.abs(b).sum(), abs=1e-12)
    # the Bloch and pair norms are the spectral spread itself; their closed forms are the oracle
    bloch = BlochFamily()
    for _ in range(200):
        b = RNG.standard_normal(3)
        worst = max(worst, abs(bloch.norm(b) - np.linalg.norm(b)))
        assert bloch.norm(b) == pytest.approx(np.linalg.norm(b), abs=1e-12)
    for eps in (0.0, 0.1, 0.5, 1.0):
        family = EpsilonPairFamily(eps)
        for _ in range(200):
            b = RNG.standard_normal(2)
            expected = abs(b[0]) + np.sqrt(b[1] ** 2 + 2 * eps * b[0] ** 2)
            assert family.norm(b) == pytest.approx(expected, abs=1e-12)
            worst = max(worst, abs(family.norm(b) - expected))
    assert worst < 1e-12
    _stamp(1, "process-norm closed forms", start, 10, f"max closed-form gap {worst:.2e}")


def test_criterion_2_hyperface_fisher():
    start = time.time()
    worst = 0.0
    for n in range(1, 5):
        family = PauliZFamily(n)
        for signs in product((1, -1), repeat=n):
            z = np.array(signs, dtype=float)
            fisher = protocol_fisher(hyperface_protocol(signs), family)
            worst = max(worst, float(np.max(np.abs(fisher.entries - np.outer(z, z)))))
    assert worst < 1e-8
    _stamp(2, "hyperface Fisher", start, 30, f"all 2^N strings N<=4, max gap {worst:.2e}")


def _random_canonical(n):
    mags = np.sort(RNG.uniform(0.02, 1.0, size=n))[::-1]
    mags[0] = 1.0
    signs = RNG.choice([1.0, -1.0], size=n)
    signs[0] = 1.0
    return OneForm(mags * signs)


def test_criterion_3_corner_saturation():
    start = time.time()
    worst_kiss = 0.0
    worst_dual = 0.0
    for trial in range(100):
        n = int(RNG.integers(1, 7))
        dq = _random_canonical(n)
        family = PauliZFamily(n)
        protocol = corner_protocol(dq)
        fisher = protocol_fisher(protocol, family)
        minimizer = minimize_norm(family, dq)
        kiss = kissing_residual(fisher, minimizer.vector, family, dq)
        dual_gap = abs(fisher_dual(fisher, dq) - 1.0)
        worst_kiss = max(worst_kiss, kiss)
        worst_dual = max(worst_dual, dual_gap)
        assert minimizer.dual_norm**2 == pytest.approx(1.0, abs=1e-12)
    assert worst_kiss < 1e-9
    assert worst_dual < 1e-8
    _stamp(
        3,
        "corner saturation",
        start,
        60,
        f"100 canonical targets N<=6, kiss {worst_kiss:.2e}, dual gap {worst_dual:.2e}",
    )


def test_criterion_4_monte_carlo_attainment():
    start = time.time()
    shots = 10_000
    reps = 10_000
    runs = []
    pauli = PauliZFamily(2)
    dq = OneForm([1.0, 0.5])
    runs.append(("corner", sample_estimates(corner_protocol(dq), pauli, [0.0, 0.0], shots, reps, seed=42)))
    bloch = BlochFamily()
    runs.append(
        ("bloch", sample_estimates(bloch_protocol(OneForm([0, 0, 1.0])), bloch, [0.0, 0.0, 0.0], shots, reps, seed=42))
    )
    zoo = zoo_protocol(ZooAmplitudes(np.array([1.0, 0.5])))
    runs.append(("zoo-vertex", sample_estimates(zoo, pauli, [0.0, 0.0], shots, reps, seed=43)))
    details = []
    for name, samples in runs:
        scaled = float(np.var(samples, ddof=1)) * shots
        details.append(f"{name} {scaled:.4f}")
        assert 0.95 <= scaled <= 1.05, f"{name}: Var*M = {scaled}"
    _stamp(4, "Monte-Carlo attainment", start, 300, "Var*M in [0.95, 1.05]: " + ", ".join(details))


def _cat_icat_attained(family, b):
    protocol = (
        hyperface_protocol([1]) if isinstance(family, PauliZFamily) else bloch_protocol(OneForm(b))
    )
    branch = protocol.branches[0]
    rho = branch.fiducial.density().entries
    gen = family.generator(b)
    deriv = -1j * (gen.entries @ rho - rho @ gen.entries)
    total = 0.0
    for element in branch.measurement.elements:
        p = float(np.real(np.trace(element.entries @ rho)))
        dp = float(np.real(np.trace(element.entries @ deriv)))
        if p > 1e-12:
            total += dp**2 / p
    return total, branch.fiducial


def test_criterion_5_chain_ordering():
    start = time.time()
    n_meas = 10_000
    n_states = 1_000
    directions = bloch_direction_grid(n_meas)
    state_dirs = bloch_direction_grid(n_states)
    thetas = np.arccos(np.clip(state_dirs[:, 2], -1, 1))
    phis = np.arctan2(state_dirs[:, 1], state_dirs[:, 0])
    states = np.stack([np.cos(thetas / 2), np.exp(1j * phis) * np.sin(thetas / 2)], axis=1)

    cases = [(PauliZFamily(1), np.array([1.0]))]
    for _ in range(2):
        cases.append((BlochFamily(), RNG.standard_normal(3)))
    worst_violation = -np.inf
    for family, b in cases:
        gen = family.generator(b)
        norm_sq = family.norm(b) ** 2
        q_values = np.array([qfi_pure(PureState(s), gen) for s in states])
        assert q_values.max() <= norm_sq + 1e-6
        for chunk_start in range(0, n_states, 100):
            chunk = states[chunk_start : chunk_start + 100]
            f_values = qubit_fisher_grid(chunk, gen, directions)
            gap = f_values - q_values[chunk_start : chunk_start + 100, None]
            worst_violation = max(worst_violation, float(gap.max()))
        assert worst_violation < 1e-6
        attained, cat = _cat_icat_attained(family, b)
        assert abs(attained - norm_sq) < 1e-6 * max(1.0, norm_sq)
        assert attained <= qfi_pure(cat, gen) + 1e-9
    _stamp(
        5,
        "chain ordering",
        start,
        120,
        f"10^4 measurements x 10^3 states, max F-Q violation {worst_violation:.2e}; "
        "cat/conjugate-cat construction attains the squared norm",
    )


def test_criterion_6_sld_qfi_consistency():
    start = time.time()
    worst_defect = 0.0
    for _ in range(200):
        dim = int(RNG.integers(2, 9))
        rho = random_density(RNG, dim, full_rank=True)
        drho = random_traceless_hermitian(RNG, dim)
        result = sld(rho, drho)
        lyapunov = 0.5 * (rho.entries @ result.operator.entries + result.operator.entries @ rho.entries)
        worst_defect = max(worst_defect, float(np.max(np.abs(lyapunov - drho.entries))))
        assert qfi_from_sld(rho, result.operator) >= 0.0
    assert worst_defect < 1e-10
    worst_pure = 0.0
    for _ in range(200):
        dim = int(RNG.integers(2, 9))
        psi = random_pure_state(RNG, dim)
        gen = random_traceless_hermitian(RNG, dim)
        rho = psi.density()
        delta = gen.entries - np.trace(rho.entries @ gen.entries) * np.eye(dim)
        drho_entries = -1j * (delta @ rho.entries - rho.entries @ delta)
        from qproc import HermitianOperator

        result = sld(rho, HermitianOperator(drho_entries))
        gap = abs(qfi_from_sld(rho, result.operator) - qfi_pure(psi, gen))
        worst_pure = max(worst_pure, gap)
    assert worst_pure < 1e-9
    _stamp(
        6,
        "SLD/QFI consistency",
        start,
        10,
        f"200 mixed solves, defect {worst_defect:.2e}; 200 pure cross-checks, gap {worst_pure:.2e}",
    )


def test_criterion_7_ancilla_zoo_formulas():
    start = time.time()
    worst_formula = 0.0
    worst_coherence = 0.0
    for _ in range(100):
        n = int(RNG.integers(2, 5))
        amplitudes = ZooAmplitudes(RNG.uniform(-0.99, 0.99, size=n))
        family = PauliZFamily(n)
        branched = protocol_fisher(zoo_protocol(amplitudes), family)
        a = amplitudes.a
        formula = np.diag(1.0 - a**2) + np.outer(a, a)
        worst_formula = max(worst_formula, float(np.max(np.abs(branched.entries - formula))))
        pure = protocol_fisher(zoo_protocol(amplitudes, variant="pure"), family)
        mixed = protocol_fisher(zoo_protocol(amplitudes, variant="mixed"), family)
        worst_coherence = max(worst_coherence, float(np.max(np.abs(pure.entries - mixed.entries))))
    assert worst_formula < 1e-8
    assert worst_coherence < 1e-10
    worst_edge = 0.0
    for n in (2, 3):
        family = PauliZFamily(n)
        for signs in product((1, 0, -1), repeat=n):
            if all(s == 0 for s in signs):
                continue
            w = np.array(signs, dtype=float)
            fisher = protocol_fisher(hyperedge_protocol(signs), family)
            worst_edge = max(worst_edge, float(np.max(np.abs(fisher.entries - np.outer(w, w)))))
    assert worst_edge < 1e-8
    _stamp(
        7,
        "ancilla-zoo formulas",
        start,
        60,
        f"factorized formula gap {worst_formula:.2e}, pure-vs-mixed {worst_coherence:.2e}, "
        f"edge outer products {worst_edge:.2e}",
    )


def test_criterion_8_local_debiasing():
    start = time.time()
    family = PauliZFamily(2)
    dq = OneForm([1.0, 0.5])
    protocol = corner_protocol(dq)
    direction = np.array([1.0, 0.0])
    offset, jacobian = fit_bias_correction(
        protocol, family, dq, direction, magnitude=0.02, shots=10_000, repetitions=5000, seed=101
    )
    q_values, errors, stderrs = [], [], []
    for i, magnitude in enumerate((0.005, 0.01, 0.02)):
        for j, sign in enumerate((1, -1)):
            theta = sign * magnitude * direction
            q_true = float(dq.components @ theta)
            samples = sample_estimates(protocol, family, theta, 10_000, 3000, seed=500 + 10 * i + j)
            corrected = debias(offset, jacobian, samples)
            q_values.append(q_true)
            errors.append(float(np.mean(corrected)) - q_true)
            stderrs.append(float(np.std(corrected, ddof=1)) / np.sqrt(samples.size))
    coeffs, covariance = fit_bias_polynomial(q_values, errors, stderrs)
    z = coeffs[0] / np.sqrt(covariance[0, 0])
    assert abs(z) < 3.0
    _stamp(8, "local debiasing", start, 120, f"linear-bias z-score {z:+.2f} (|z| < 3)")


def test_criterion_9_norm_axioms():
    start = time.time()
    families = [
        PauliZFamily(3),
        BlochFamily(),
        EpsilonPairFamily(0.5),
        ProcessFamily([random_traceless_hermitian(RNG, 8) for _ in range(3)]),
    ]
    for family in families:
        n = family.n_params
        for _ in range(500):
            u = RNG.standard_normal(n)
            v = RNG.standard_normal(n)
            assert family.norm(u + v) <= family.norm(u) + family.norm(v) + 1e-10
            c = float(RNG.standard_normal())
            assert abs(family.norm(c * u) - abs(c) * family.norm(u)) <= 1e-10
            if np.linalg.norm(u) > 1e-8:
                assert family.norm(u) > 0.0
    _stamp(9, "norm axioms", start, 10, "triangle/homogeneity/nondegeneracy on 500 pairs per family")
