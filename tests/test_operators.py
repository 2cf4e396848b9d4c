import json

import numpy as np
import pytest

from qproc import (
    ArgumentError,
    HermitianOperator,
    InvariantViolation,
    Povm,
    PureState,
    ResourceLimitError,
    born_probabilities,
    evolve_pure,
    pauli_z_generators,
    seminorm,
    tensor,
)
from qproc.operators import SIGMA_X, SIGMA_Y, SIGMA_Z

from conftest import random_density, random_hermitian, random_pure_state

# Hand Kronecker products, frozen as oracles.
SZ_TENSOR_I = np.diag([1.0, 1.0, -1.0, -1.0]).astype(complex)
SY_TENSOR_SX = np.array(
    [
        [0, 0, 0, -1j],
        [0, 0, -1j, 0],
        [0, 1j, 0, 0],
        [1j, 0, 0, 0],
    ],
    dtype=complex,
)


class TestPauliZGenerators:
    def test_single_qubit_eigenvalues(self):
        (gen,) = pauli_z_generators(1)
        assert np.allclose(np.linalg.eigvalsh(gen.entries), [-0.5, 0.5])

    def test_two_qubit_first_generator_diagonal(self):
        gens = pauli_z_generators(2)
        assert len(gens) == 2
        assert gens[0].dim == 4
        assert np.allclose(np.diag(gens[0].entries), [0.5, 0.5, -0.5, -0.5])
        assert np.allclose(np.diag(gens[1].entries), [0.5, -0.5, 0.5, -0.5])

    def test_generators_commute(self):
        a, b = pauli_z_generators(2)
        commutator = a.entries @ b.entries - b.entries @ a.entries
        assert np.max(np.abs(commutator)) < 1e-14

    def test_dimension_cap(self, monkeypatch):
        monkeypatch.setenv("QPROC_MAX_DIM", "8")
        with pytest.raises(ResourceLimitError):
            pauli_z_generators(4)
        assert len(pauli_z_generators(3)) == 3

    def test_needs_a_qubit(self):
        with pytest.raises(ArgumentError):
            pauli_z_generators(0)


class TestTensor:
    def test_pauli_z_with_identity(self):
        out = tensor([HermitianOperator(SIGMA_Z), HermitianOperator(np.eye(2))])
        assert np.array_equal(out.entries, SZ_TENSOR_I)

    def test_identity_alone(self):
        out = tensor([HermitianOperator(np.eye(2))])
        assert np.array_equal(out.entries, np.eye(2))

    def test_sigma_y_times_sigma_x(self):
        out = tensor([HermitianOperator(SIGMA_Y), HermitianOperator(SIGMA_X)])
        assert np.max(np.abs(out.entries - SY_TENSOR_SX)) == 0.0

    def test_empty_list(self):
        with pytest.raises(ArgumentError):
            tensor([])


class TestSeminorm:
    def test_half_pauli_z(self):
        assert seminorm(HermitianOperator(0.5 * SIGMA_Z)) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_identity_has_zero_spread(self, dim):
        assert seminorm(HermitianOperator(np.eye(dim))) == pytest.approx(0.0, abs=1e-14)

    def test_two_qubit_combination(self):
        gens = pauli_z_generators(2)
        combined = HermitianOperator(0.3 * gens[0].entries - 0.4 * gens[1].entries)
        assert seminorm(combined) == pytest.approx(0.7, abs=1e-14)

    def test_non_hermitian_rejected(self):
        with pytest.raises(InvariantViolation):
            HermitianOperator(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_seminorm_axioms(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 9))
            a = random_hermitian(rng, dim)
            b = random_hermitian(rng, dim)
            lhs = seminorm(HermitianOperator(a.entries + b.entries))
            assert lhs <= seminorm(a) + seminorm(b) + 1e-10
            c = float(rng.standard_normal())
            assert seminorm(HermitianOperator(c * a.entries)) == pytest.approx(
                abs(c) * seminorm(a), abs=1e-10
            )


class TestEvolvePure:
    def test_zero_hamiltonian(self):
        psi = PureState(np.array([1, 1]) / np.sqrt(2))
        out = evolve_pure(psi, HermitianOperator(np.zeros((2, 2))))
        assert np.allclose(out.amplitudes, psi.amplitudes)

    def test_half_turn_phases(self):
        psi = PureState(np.array([1, 1]) / np.sqrt(2))
        ham = HermitianOperator((np.pi / 2) * 0.5 * SIGMA_Z)
        out = evolve_pure(psi, ham)
        expected = np.array([np.exp(-1j * np.pi / 4), np.exp(1j * np.pi / 4)]) / np.sqrt(2)
        assert np.allclose(out.amplitudes, expected, atol=1e-14)

    def test_identity_shift_is_global_phase(self, rng):
        psi = random_pure_state(rng, 4)
        ham = random_hermitian(rng, 4)
        shifted = HermitianOperator(ham.entries + 0.7 * np.eye(4))
        out1 = evolve_pure(psi, ham)
        out2 = evolve_pure(psi, shifted)
        assert np.allclose(out2.amplitudes, np.exp(-0.7j) * out1.amplitudes, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ArgumentError):
            evolve_pure(PureState(np.array([1.0, 0.0])), HermitianOperator(np.eye(4)))

    def test_norm_preserved(self, rng):
        for _ in range(200):
            dim = int(rng.integers(2, 17))
            psi = random_pure_state(rng, dim)
            ham = random_hermitian(rng, dim, scale=2.0)
            out = evolve_pure(psi, ham)
            assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12
            # unitarity: the generator expectation is conserved
            before = np.vdot(psi.amplitudes, ham.entries @ psi.amplitudes).real
            after = np.vdot(out.amplitudes, ham.entries @ out.amplitudes).real
            assert before == pytest.approx(after, abs=1e-10)


def _projective_povm(vectors):
    return Povm.from_basis(np.column_stack(vectors), [str(k) for k in range(len(vectors))])


class TestBornProbabilities:
    def test_projector_on_eigenstate(self):
        rho = PureState(np.array([1.0, 0.0])).density()
        povm = _projective_povm([np.array([1, 0]), np.array([0, 1])])
        probs = born_probabilities(rho, povm)
        assert probs["0"] == pytest.approx(1.0, abs=1e-14)
        assert probs["1"] == pytest.approx(0.0, abs=1e-14)

    def test_maximally_mixed(self, rng):
        from qproc import DensityOperator

        rho = DensityOperator(np.eye(2) / 2)
        direction = rng.standard_normal(3)
        from qproc import Povm
        from qproc.qfisher import qubit_basis

        povm = Povm.from_basis(qubit_basis(direction / np.linalg.norm(direction)).T, ("+", "-"))
        probs = born_probabilities(rho, povm)
        assert probs["+"] == pytest.approx(0.5, abs=1e-12)
        assert probs["-"] == pytest.approx(0.5, abs=1e-12)

    def test_icat_basis_on_plus_state(self):
        # |<(|0> +/- i|1>)/sqrt2 | +>|^2 = |1 -/+ i|^2 / 4 = 1/2, by hand
        plus = PureState(np.array([1, 1]) / np.sqrt(2))
        icat_plus = np.array([1, 1j]) / np.sqrt(2)
        icat_minus = np.array([1, -1j]) / np.sqrt(2)
        povm = _projective_povm([icat_plus, icat_minus])
        probs = born_probabilities(plus.density(), povm)
        assert probs["0"] == pytest.approx(0.5, abs=1e-14)
        assert probs["1"] == pytest.approx(0.5, abs=1e-14)

    def test_dim_mismatch(self):
        rho = PureState(np.array([1.0, 0.0])).density()
        povm = _projective_povm([np.eye(4)[:, k] for k in range(4)])
        with pytest.raises(ArgumentError):
            born_probabilities(rho, povm)

    def test_random_inputs_sum_to_one(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            rho = random_density(rng, dim)
            basis, _ = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
            povm = Povm.from_basis(basis, [str(k) for k in range(dim)])
            probs = born_probabilities(rho, povm)
            assert abs(sum(probs.values()) - 1.0) < 1e-10
            assert min(probs.values()) >= 0.0


class TestPovmValidation:
    def test_elements_must_sum_to_identity(self):
        with pytest.raises(InvariantViolation):
            Povm(np.array([[1.0], [0.0]]), ("only",))

    def test_elements_must_be_psd(self):
        # every element v v^dag of a basis is PSD, so the old non-PSD pair
        # cannot be written down; its nearest frame, whose elements sum to
        # diag(1.5, 0.5), must fail the completeness check instead
        frame = np.diag([np.sqrt(1.5), np.sqrt(0.5)])
        with pytest.raises(InvariantViolation):
            Povm(frame, ("a", "b"))

    def test_labels_unique(self):
        with pytest.raises(ArgumentError):
            Povm(np.eye(2), ("x", "x"))


class TestNonFiniteEntries:
    """NaN compares False with every tolerance, so it is rejected up front."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
    def test_every_validator_rejects_it(self, bad):
        from qproc import DensityOperator

        matrix = np.array([[bad, 0.0], [0.0, 0.5]])
        with pytest.raises(InvariantViolation):
            HermitianOperator(matrix)
        with pytest.raises(InvariantViolation):
            DensityOperator(matrix)
        with pytest.raises(InvariantViolation):
            PureState(np.array([bad, 1.0]))
        with pytest.raises(InvariantViolation):
            Povm(np.array([[bad, 0.0], [0.0, 1.0]]), ("a", "b"))
        with pytest.raises(InvariantViolation):
            Povm(np.array([[bad], [0.0]]), ("a", "rest"))

    def test_nan_generator_exits_2(self, tmp_path, capsys):
        from qproc.cli import main

        nan_z = [[[float("nan"), 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
        config = {"schema_version": 1, "family": {"kind": "custom-unitary", "generators": [nan_z]}, "q": [1.0]}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        assert main(["bound", str(path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "schema"


def _trine():
    """Three real vectors at 120 degrees in C^2: V V^dag = I, V^dag V != I."""
    angles = 2 * np.pi * np.arange(3) / 3
    return np.sqrt(2 / 3) * np.vstack([np.cos(angles), np.sin(angles)]).astype(complex)


def frame_stack(fiducial, povm):
    """The one-branch stack preparing the fiducial and reading the POVM."""
    from qproc import BranchStack

    densities = None if isinstance(fiducial, PureState) else fiducial.entries[None]
    return BranchStack(
        weights=[1.0], columns=fiducial.columns()[None], bases=povm.basis[None], labels=povm.labels, densities=densities
    )


class TestBornRuleOnTheBasis:
    """The basis contraction must match the dense sum over elements v v^dag."""

    def _frames(self, rng):
        yield _trine()
        for dim in (2, 3, 4, 6):
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            yield np.linalg.qr(raw)[0]

    def test_born_probabilities_match_dense_elements(self, rng):
        for basis in self._frames(rng):
            rho = random_density(rng, basis.shape[0])
            povm = Povm(basis, [str(k) for k in range(basis.shape[1])])
            dense = [np.real(np.trace(np.outer(v, v.conj()) @ rho.entries)) for v in basis.T]
            probs = born_probabilities(rho, povm)
            assert np.max(np.abs(np.array([probs[label] for label in povm.labels]) - dense)) < 1e-12

    def test_exact_fisher_matches_dense_elements(self, rng):
        from qproc import ProcessFamily, Protocol, protocol_fisher

        for basis in self._frames(rng):
            dim = basis.shape[0]
            povm = Povm(basis, [str(k) for k in range(basis.shape[1])])
            # the family on the branch space, and on half of it under an ancilla lift
            for family_dim in [dim] + ([dim // 2] if dim % 2 == 0 else []):
                given = [random_hermitian(rng, family_dim) for _ in range(3)]
                family = ProcessFamily(given)
                gens = [np.kron(np.eye(dim // family_dim), g.entries) for g in given]
                for fiducial in (random_pure_state(rng, dim), random_density(rng, dim)):
                    protocol = Protocol(kind="frame", stacks=(frame_stack(fiducial, povm),), family_dim=family_dim)
                    fisher = protocol_fisher(protocol, family)
                    rho = fiducial.density().entries if isinstance(fiducial, PureState) else fiducial.entries
                    drhos = [-1j * (g @ rho - rho @ g) for g in gens]
                    expected = np.zeros((3, 3))
                    for v in basis.T:
                        element = np.outer(v, v.conj())
                        p = np.real(np.trace(element @ rho))
                        dp = np.array([np.real(np.trace(element @ drho)) for drho in drhos])
                        expected += np.outer(dp, dp) / p
                    assert np.max(np.abs(fisher.entries - expected)) < 1e-12

    def test_corner_protocol_makes_no_eigen_solves(self, monkeypatch):
        from qproc import OneForm, corner_protocol

        calls = []
        for name in ("eigh", "eigvalsh"):
            original = getattr(np.linalg, name)

            def counted(*args, _original=original, **kwargs):
                calls.append(1)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        corner_protocol(OneForm([1.0, 0.9, 0.7, 0.5, 0.3, 0.2]))
        assert len(calls) == 0


class TestComplementOutcome:
    """A label after the last column names the outcome I - V V^dag."""

    def _isometry(self, rng, dim, k):
        raw = rng.standard_normal((dim, k)) + 1j * rng.standard_normal((dim, k))
        return np.linalg.qr(raw)[0]

    def test_columns_must_be_orthonormal(self):
        # the trine is a frame (V V^dag = I) but not an isometry
        with pytest.raises(InvariantViolation):
            Povm(_trine(), ("0", "1", "2", "rest"))

    def test_at_most_one_complement(self):
        with pytest.raises(ArgumentError):
            Povm(np.eye(3)[:, :1], ("a", "b", "c"))

    def test_elements_end_with_the_complement(self, rng):
        basis = self._isometry(rng, 5, 2)
        elements = Povm(basis, ("a", "b", "rest")).elements
        assert len(elements) == 3
        assert np.allclose(elements[-1].entries, np.eye(5) - basis @ basis.conj().T, atol=1e-15)
        assert np.allclose(sum(e.entries for e in elements), np.eye(5), atol=1e-14)

    def test_born_and_fisher_match_dense_elements(self, rng):
        from qproc import ProcessFamily, Protocol, protocol_fisher

        for dim, k in ((2, 1), (4, 2), (6, 3)):
            basis = self._isometry(rng, dim, k)
            povm = Povm(basis, [str(x) for x in range(k)] + ["rest"])
            given = [random_hermitian(rng, dim) for _ in range(3)]
            family = ProcessFamily(given)
            gens = [g.entries for g in given]
            for fiducial in (random_pure_state(rng, dim), random_density(rng, dim)):
                rho = fiducial.density().entries if isinstance(fiducial, PureState) else fiducial.entries
                dense = [np.outer(v, v.conj()) for v in basis.T] + [np.eye(dim) - basis @ basis.conj().T]
                expected_p = np.array([np.real(np.trace(e @ rho)) for e in dense])
                probs = born_probabilities(fiducial, povm)
                assert np.max(np.abs(np.array([probs[label] for label in povm.labels]) - expected_p)) < 1e-12
                drhos = [-1j * (g @ rho - rho @ g) for g in gens]
                expected = np.zeros((3, 3))
                for element, p in zip(dense, expected_p):
                    dp = np.array([np.real(np.trace(element @ drho)) for drho in drhos])
                    expected += np.outer(dp, dp) / p
                protocol = Protocol(kind="frame", stacks=(frame_stack(fiducial, povm),), family_dim=dim)
                fisher = protocol_fisher(protocol, family)
                assert np.max(np.abs(fisher.entries - expected)) < 1e-12


class TestMatrixWireFormat:
    def test_round_trip(self, rng):
        matrix = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        from qproc import matrix_from_pairs, matrix_to_pairs

        assert np.array_equal(matrix_from_pairs(matrix_to_pairs(matrix)), matrix)

    def test_rejects_flat_arrays(self):
        from qproc import matrix_from_pairs

        with pytest.raises(ArgumentError):
            matrix_from_pairs([[1.0, 2.0]])


class TestStateValidation:
    def test_pure_state_norm(self):
        with pytest.raises(InvariantViolation):
            PureState(np.array([1.0, 1.0]))

    def test_density_trace(self):
        from qproc import DensityOperator

        with pytest.raises(InvariantViolation):
            DensityOperator(np.eye(2))

    def test_density_negative_eigenvalue(self):
        from qproc import DensityOperator

        with pytest.raises(InvariantViolation):
            DensityOperator(np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3)])
    def test_density_shape(self, shape):
        from qproc import DensityOperator

        # refused before the Hermiticity test, whose max has no value on an empty matrix
        with pytest.raises(ArgumentError):
            DensityOperator(np.zeros(shape))

    def test_density_not_hermitian(self):
        from qproc import DensityOperator

        with pytest.raises(InvariantViolation):
            DensityOperator(np.array([[0.5, 0.1], [0.0, 0.5]]))
