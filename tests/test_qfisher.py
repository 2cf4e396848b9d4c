import numpy as np
import pytest

from qproc import (
    ArgumentError,
    BlochFamily,
    ChainViolation,
    DensityOperator,
    HermitianOperator,
    InconsistentDerivativeError,
    PauliZFamily,
    Povm,
    PureState,
    bloch_direction_grid,
    born_rule,
    classical_fisher,
    hyperface_protocol,
    qfi_from_sld,
    qfi_pure,
    sld,
    verify_chain,
)
from qproc.operators import SIGMA_X, SIGMA_Z
from qproc.qfisher import _fisher_stack, qubit_basis

from conftest import qubit_fisher_grid, random_density, random_pure_state, random_traceless_hermitian


def commutator_derivative(rho_entries, generator_entries):
    """Derivative of exp(-i t Y) rho exp(i t Y) at t = 0."""
    delta = generator_entries - np.trace(rho_entries @ generator_entries) * np.eye(rho_entries.shape[0])
    return HermitianOperator(-1j * (delta @ rho_entries - rho_entries @ delta))


class TestSld:
    def test_maximally_mixed_qubit(self, rng):
        rho = DensityOperator(np.eye(2) / 2)
        drho = random_traceless_hermitian(rng, 2, scale=0.1)
        result = sld(rho, drho)
        assert np.allclose(result.operator.entries, 2 * drho.entries, atol=1e-12)

    def test_pure_state_commutator_form(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 6))
            psi = random_pure_state(rng, dim)
            rho = psi.density()
            gen = random_traceless_hermitian(rng, dim)
            drho = commutator_derivative(rho.entries, gen.entries)
            result = sld(rho, drho)
            assert np.max(np.abs(result.operator.entries - 2 * drho.entries)) < 1e-10

    def test_zero_derivative(self, rng):
        rho = random_density(rng, 3)
        result = sld(rho, HermitianOperator(np.zeros((3, 3))))
        assert np.max(np.abs(result.operator.entries)) == 0.0

    def test_inconsistent_derivative_rejected(self):
        rho = PureState(np.array([1.0, 0.0])).density()
        drho = HermitianOperator(np.diag([-1.0, 1.0]).astype(complex))
        with pytest.raises(InconsistentDerivativeError):
            sld(rho, drho)

    def test_traceless_precondition(self, rng):
        rho = random_density(rng, 2)
        with pytest.raises(ArgumentError):
            sld(rho, HermitianOperator(np.eye(2)))

    def test_reconstruction_property(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim, full_rank=True)
            drho = random_traceless_hermitian(rng, dim)
            result = sld(rho, drho)
            lyapunov = 0.5 * (rho.entries @ result.operator.entries + result.operator.entries @ rho.entries)
            assert np.max(np.abs(lyapunov - drho.entries)) < 1e-10
            assert abs(np.real(np.trace(rho.entries @ result.operator.entries))) < 1e-9


class TestQfi:
    def test_plus_state_half_z(self):
        plus = PureState(np.array([1, 1]) / np.sqrt(2))
        assert qfi_pure(plus, HermitianOperator(0.5 * SIGMA_Z)) == pytest.approx(1.0)

    def test_eigenstate_carries_nothing(self):
        zero = PureState(np.array([1.0, 0.0]))
        assert qfi_pure(zero, HermitianOperator(0.5 * SIGMA_Z)) == pytest.approx(0.0, abs=1e-14)

    def test_cat_state_reaches_one(self, rng):
        # equal superposition of extremal eigenstates of (1/2) b.sigma_z with |b|_1 = 1
        b = rng.standard_normal(3)
        b /= np.abs(b).sum()
        family = PauliZFamily(3)
        signs = np.where(b >= 0, 1, -1)
        protocol = hyperface_protocol(signs)
        cat = protocol.branches[0].fiducial
        assert qfi_pure(cat, family.generator(b)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_sld_route_for_pure_states(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 9))
            psi = random_pure_state(rng, dim)
            gen = random_traceless_hermitian(rng, dim)
            rho = psi.density()
            drho = commutator_derivative(rho.entries, gen.entries)
            result = sld(rho, drho)
            assert qfi_from_sld(rho, result.operator) == pytest.approx(qfi_pure(psi, gen), abs=1e-9)

    def test_zero_sld(self, rng):
        rho = random_density(rng, 3)
        assert qfi_from_sld(rho, HermitianOperator(np.zeros((3, 3)))) == 0.0

    def test_mixed_qubit_x_sld(self):
        rho = DensityOperator(np.eye(2) / 2)
        assert qfi_from_sld(rho, HermitianOperator(SIGMA_X)) == pytest.approx(1.0)


class TestClassicalFisher:
    def test_face_model(self):
        # p(+/-) = (1 +/- sin(theta_1 + theta_2))/2 at theta = 0
        fisher = classical_fisher([0.5, 0.5], [[0.5, 0.5], [-0.5, -0.5]])
        assert np.allclose(fisher.entries, np.ones((2, 2)), atol=1e-12)

    def test_parameter_independent_model(self):
        fisher = classical_fisher([0.25, 0.75], np.zeros((2, 3)))
        assert np.allclose(fisher.entries, np.zeros((3, 3)))

    def test_single_axis_model(self):
        fisher = classical_fisher([0.5, 0.5], [[0.0, 0.0, 0.5], [0.0, 0.0, -0.5]])
        assert np.allclose(fisher.entries, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_negative_probability_rejected(self):
        from qproc import InvariantViolation

        with pytest.raises(InvariantViolation):
            classical_fisher([1.2, -0.2], np.zeros((2, 1)))

    def test_jacobian_rows_must_match_outcomes(self):
        with pytest.raises(ArgumentError):
            classical_fisher([0.5, 0.5], np.zeros((3, 2)))

    def test_stack_checks_every_distribution(self):
        from qproc import InvariantViolation

        jac = np.array([[[0.5], [-0.5]]] * 2)
        good = np.array([[0.5, 0.5], [0.25, 0.75]])
        assert _fisher_stack(good, jac).shape == (2, 1, 1)
        with pytest.raises(InvariantViolation, match=r"sum to .*0\.75"):
            _fisher_stack(np.array([[0.5, 0.5], [0.25, 0.5]]), jac)
        with pytest.raises(InvariantViolation, match="negative probability"):
            _fisher_stack(np.array([[0.5, 0.5], [1.1, -0.1]]), jac)
        with pytest.raises(InvariantViolation, match="finite"):
            _fisher_stack(good, np.array([[[0.5], [-0.5]], [[np.inf], [0.0]]]))


class TestVerifyChain:
    def test_saturated(self):
        report = verify_chain(1.0, 1.0, 1.0)
        assert report.slack_fisher == pytest.approx(0.0)
        assert report.slack_quantum == pytest.approx(0.0)

    def test_eigenstate_case(self):
        report = verify_chain(0.0, 0.0, 1.0)
        assert report.slack_quantum == pytest.approx(1.0)

    def test_violation_names_link(self):
        with pytest.raises(ChainViolation) as err:
            verify_chain(1.5, 1.0, 1.0)
        assert err.value.link == "fisher<=quantum"
        with pytest.raises(ChainViolation) as err:
            verify_chain(0.5, 2.0, 1.0)
        assert err.value.link == "quantum<=norm"

    def test_negative_rejected(self):
        with pytest.raises(ArgumentError):
            verify_chain(-0.1, 1.0, 1.0)


class TestMeasurementCeiling:
    def test_grid_never_beats_quantum_fisher(self, rng):
        family = BlochFamily()
        directions = bloch_direction_grid(2500)
        for _ in range(5):
            b = rng.standard_normal(3)
            gen = family.generator(b)
            psi = random_pure_state(rng, 2)
            q_bb = qfi_pure(psi, gen)
            values = qubit_fisher_grid(psi.amplitudes[None, :], gen, directions)[0]
            assert values.max() <= q_bb + 1e-6

    def test_brute_force_wrapper(self, rng):
        family = BlochFamily()
        b = np.array([0.0, 0.0, 1.0])
        plus = PureState(np.array([1, 1]) / np.sqrt(2))
        values = qubit_fisher_grid(plus.amplitudes[None, :], family.generator(b), bloch_direction_grid(4000))[0]
        best = values[np.argmax(values)]
        assert best <= qfi_pure(plus, family.generator(b)) + 1e-6
        assert best == pytest.approx(1.0, abs=1e-4)


class TestSharedFloor:
    def test_scan_equals_classical_fisher(self, rng):
        # one batched _fisher_stack over 50 (state, generator, measurement) triples against the
        # per-pair classical_fisher of each
        family = BlochFamily()
        trials = []
        for trial in range(50):
            psi = random_pure_state(rng, 2)
            generator = family.generator(rng.standard_normal(3))
            if trial % 2:
                direction = rng.standard_normal(3)
            else:
                # the state's own Bloch vector: one outcome falls to the floor
                a, b = psi.amplitudes
                direction = np.array([2 * (np.conj(a) * b).real, 2 * (np.conj(a) * b).imag, abs(a) ** 2 - abs(b) ** 2])
            trials.append((psi.columns(), generator.entries, qubit_basis(direction / np.linalg.norm(direction)).T))
        columns, generators, bases = (np.array(stack) for stack in zip(*trials))
        batched = _fisher_stack(*born_rule(bases, columns, ((-1j * generators) @ columns)[:, None]))[:, 0, 0]
        for scan, (column, generator, basis) in zip(batched, trials, strict=True):
            probs, jac = Povm.from_basis(basis, ("+", "-")).born(column, (-1j * generator @ column)[None])
            assert scan == pytest.approx(classical_fisher(probs, jac).entries[0, 0], rel=0, abs=1e-12)
