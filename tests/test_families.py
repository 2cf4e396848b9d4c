import numpy as np
import pytest

from qproc import (
    ArgumentError,
    BlochFamily,
    EpsilonPairFamily,
    HermitianOperator,
    OneForm,
    PauliZFamily,
    ProcessFamily,
    UnboundedVarianceError,
    UnsupportedDimensionError,
    cross_polytope_decomposition,
    dual_norm,
    minimize_norm,
    pair,
    pauli_z_generators,
    seminorm,
    tensor,
    unit_ball_mesh,
)
from qproc.operators import SIGMA_X, SIGMA_Z

from conftest import random_traceless_hermitian


def random_custom_family(rng, n_params=3, dim=4):
    gens = [random_traceless_hermitian(rng, dim) for _ in range(n_params)]
    return ProcessFamily(gens)


class TestGenerator:
    def test_pauli_z_axis(self):
        family = PauliZFamily(2)
        gen = family.generator([1.0, 0.0])
        expected = tensor([HermitianOperator(0.5 * SIGMA_Z), HermitianOperator(np.eye(2))])
        assert np.allclose(gen.entries, expected.entries)

    def test_bloch_combination(self, rng):
        family = BlochFamily()
        b = rng.standard_normal(3)
        gen = family.generator(b)
        from qproc.operators import SIGMA_Y

        expected = 0.5 * (b[0] * SIGMA_X + b[1] * SIGMA_Y + b[2] * SIGMA_Z)
        assert np.allclose(gen.entries, expected)

    def test_pair_family_first_axis(self):
        eps = 0.3
        family = EpsilonPairFamily(eps)
        gen = family.generator([1.0, 0.0])
        eye = np.eye(2)
        expected = 0.5 * (np.kron(SIGMA_Z, eye) + np.sqrt(2 * eps) * np.kron(eye, SIGMA_X))
        assert np.allclose(gen.entries, expected)

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            PauliZFamily(2).generator([1.0, 0.0, 0.0])


def _dense_reference(generators, ancilla):
    """Dense generator matrices, lifted under a leading ancilla qubit."""
    return [np.kron(np.eye(2), g.entries) if ancilla else g.entries for g in generators]


def _dense_evolution(dense, theta):
    """exp(-i theta^j X_j) from the eigendecomposition of the dense sum."""
    eigs, vecs = np.linalg.eigh(sum(t * g for t, g in zip(theta, dense)))
    return vecs @ np.diag(np.exp(-1j * eigs)) @ vecs.conj().T


class TestArrayMethods:
    """``apply`` and ``evolve`` against dense generators, with and without the ancilla."""

    @pytest.mark.parametrize("ancilla", [False, True], ids=["family", "ancilla"])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_pauli_z_matches_dense(self, rng, n, ancilla):
        family = PauliZFamily(n)
        dense = _dense_reference(pauli_z_generators(n), ancilla)
        dim = dense[0].shape[0]
        states = rng.standard_normal((dim, 3)) + 1j * rng.standard_normal((dim, 3))
        applied = family.apply(states)
        assert applied.shape == (n, dim, 3)
        for j, gen in enumerate(dense):
            assert np.max(np.abs(applied[j] - gen @ states)) < 1e-12
        theta = rng.standard_normal(n)
        assert np.max(np.abs(family.evolve(theta, states) - _dense_evolution(dense, theta) @ states)) < 1e-12

    @pytest.mark.parametrize("ancilla", [False, True], ids=["family", "ancilla"])
    def test_custom_matches_dense(self, rng, ancilla):
        family = random_custom_family(rng)
        dense = _dense_reference(family.generators, ancilla)
        dim = dense[0].shape[0]
        states = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        applied = family.apply(states)
        for j, gen in enumerate(dense):
            assert np.max(np.abs(applied[j] - gen @ states)) < 1e-12
        theta = rng.standard_normal(3)
        assert np.max(np.abs(family.evolve(theta, states) - _dense_evolution(dense, theta) @ states)) < 1e-12

    def test_rejects_other_dimensions(self):
        with pytest.raises(ArgumentError):
            PauliZFamily(2).apply(np.ones((6, 1)))
        with pytest.raises(ArgumentError):
            PauliZFamily(2).evolve([0.1, 0.2], np.ones(4))

    def test_pauli_z_family_builds_no_dense_generator(self):
        import tracemalloc

        tracemalloc.start()
        try:
            PauliZFamily(10)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestProcessNorm:
    def test_one_norm(self):
        assert PauliZFamily(3).norm([1.0, -1.0, 0.5]) == pytest.approx(2.5)

    def test_euclidean(self):
        assert BlochFamily().norm([3.0, 4.0, 0.0]) == pytest.approx(5.0)

    def test_commuting_limit_of_pair(self, rng):
        family = EpsilonPairFamily(0.0)
        for _ in range(20):
            b = rng.standard_normal(2)
            assert family.norm(b) == pytest.approx(np.abs(b).sum(), abs=1e-12)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_closed_form_matches_spectral_spread_pauli(self, rng, n):
        family = PauliZFamily(n)
        for _ in range(30):
            b = rng.standard_normal(n)
            assert family.norm(b) == pytest.approx(seminorm(family.generator(b)), abs=1e-12)

    @pytest.mark.parametrize("eps", [0.0, 0.1, 0.5, 1.0])
    def test_closed_form_matches_spectral_spread_pair(self, rng, eps):
        family = EpsilonPairFamily(eps)
        for _ in range(50):
            b = rng.standard_normal(2)
            assert family.norm(b) == pytest.approx(seminorm(family.generator(b)), abs=1e-12)

    def test_closed_form_matches_spectral_spread_bloch(self, rng):
        family = BlochFamily()
        for _ in range(50):
            b = rng.standard_normal(3)
            assert family.norm(b) == pytest.approx(seminorm(family.generator(b)), abs=1e-12)


class TestMinimizeNorm:
    def test_polytope_corner(self):
        result = minimize_norm(PauliZFamily(2), OneForm([1.0, 0.5]))
        assert np.allclose(result.vector.components, [1.0, 0.0])
        assert result.norm == pytest.approx(1.0)
        assert result.dual_norm == pytest.approx(1.0)
        assert result.at_corner
        assert result.adjacent_faces == ((1, 1), (1, -1))

    def test_polytope_face_tie(self):
        result = minimize_norm(PauliZFamily(2), OneForm([1.0, 1.0]))
        assert not result.at_corner

    def test_polytope_scaled_and_permuted(self):
        result = minimize_norm(PauliZFamily(3), OneForm([0.5, -2.0, 0.0]))
        assert np.allclose(result.vector.components, [0.0, -0.5, 0.0])
        assert result.dual_norm == pytest.approx(2.0)

    def test_bloch_euclidean_duality(self):
        result = minimize_norm(BlochFamily(), OneForm([0.0, 0.0, 2.0]))
        assert np.allclose(result.vector.components, [0.0, 0.0, 0.5])
        assert result.norm == pytest.approx(0.5)
        assert result.dual_norm == pytest.approx(2.0)
        assert not result.at_corner

    def test_pair_cusp(self):
        result = minimize_norm(EpsilonPairFamily(0.5), OneForm([0.3, 1.0]))
        assert np.allclose(result.vector.components, [0.0, 1.0], atol=1e-9)
        assert result.norm == pytest.approx(1.0, abs=1e-9)
        assert result.at_corner
        assert result.adjacent_faces == ((1, 1), (-1, 1))

    def test_pair_smooth_side_is_not_a_corner(self):
        result = minimize_norm(EpsilonPairFamily(0.5), OneForm([1.0, 0.05]))
        assert not result.at_corner

    def test_zero_form_rejected(self):
        with pytest.raises(ArgumentError):
            minimize_norm(PauliZFamily(2), OneForm([0.0, 0.0]))

    def test_pair_matches_grid_oracle(self):
        # dense 1-D scan over the constraint line as an independent oracle
        for eps, q in [(0.5, np.array([0.3, 1.0])), (0.25, np.array([1.0, 0.4])), (1.0, np.array([-0.6, 0.8]))]:
            family = EpsilonPairFamily(eps)
            result = minimize_norm(family, OneForm(q))
            free = 0 if abs(q[1]) >= abs(q[0]) else 1
            fixed = 1 - free
            t = np.linspace(-0.5, 0.5, 10**6 + 1) + result.vector.components[free]
            other = (1.0 - q[free] * t) / q[fixed]
            b1 = t if free == 0 else other
            b2 = other if free == 0 else t
            values = np.abs(b1) + np.sqrt(b2**2 + 2 * eps * b1**2)
            assert result.norm == pytest.approx(values.min(), abs=1e-6)

    @pytest.mark.parametrize("seed", [0, 2])
    def test_target_the_process_cannot_see(self, seed):
        # On a diagonal qubit family the norm is |b . delta| with
        # delta_j = d_j1 - d_j2, so the plane q . b = 1 crosses its zero set
        # unless q is parallel to delta; seed 2 lands on an exact zero.
        rng = np.random.default_rng(seed)
        diagonals = rng.standard_normal((3, 2))
        family = ProcessFamily([HermitianOperator(np.diag(d).astype(complex)) for d in diagonals])
        with pytest.raises(UnboundedVarianceError):
            minimize_norm(family, OneForm(rng.standard_normal(3)))

    def test_invisible_target_whose_descent_stalls(self):
        # the traceless generators have rank 3, so some b with q . b = 1
        # has norm 0; a descent stalled at a tiny norm once reported a
        # variance bound of 1.7e14 here instead of raising
        diagonals = [
            [1.05, -0.01, 0.58, -1.29],
            [0.35, -1.69, -2.04, -0.3],
            [-0.9, 0.16, 2.24, -0.83],
            [-0.62, 0.21, 0.49, -0.18],
        ]
        family = ProcessFamily([HermitianOperator(np.diag(d).astype(complex)) for d in diagonals])
        with pytest.raises(UnboundedVarianceError):
            minimize_norm(family, OneForm([-0.21, 0.7, 0.52, -1.03]))

    def test_target_along_the_only_visible_direction(self):
        # every b on the plane q . b = 1 with q = delta has norm |b . delta| = 1
        diagonals = np.random.default_rng(0).standard_normal((3, 2))
        family = ProcessFamily([HermitianOperator(np.diag(d).astype(complex)) for d in diagonals])
        delta = diagonals[:, 0] - diagonals[:, 1]
        result = minimize_norm(family, OneForm(delta))
        assert result.norm == pytest.approx(1.0, abs=1e-12)
        assert result.dual_norm**2 == pytest.approx(1.0, abs=1e-12)
        assert not result.at_corner

    def test_custom_family_matches_scan(self, rng):
        family = random_custom_family(rng, n_params=2, dim=4)
        q = np.array([1.0, 0.7])
        result = minimize_norm(family, OneForm(q))
        t = np.linspace(-3, 3, 20001)
        values = np.array([family.norm(np.array([ti, (1 - q[0] * ti) / q[1]])) for ti in t])
        assert result.norm <= values.min() + 1e-6
        assert pair(OneForm(q), result.vector) == pytest.approx(1.0, abs=1e-9)


class TestDualNorm:
    def test_max_coefficient_for_polytope(self):
        assert dual_norm(PauliZFamily(3), OneForm([1.0, 2 / 3, 1 / 3])) == pytest.approx(1.0)

    def test_euclidean_self_dual(self):
        assert dual_norm(BlochFamily(), OneForm([1.0, 1.0, 1.0])) == pytest.approx(np.sqrt(3.0))

    def test_zero_form_convention(self):
        assert dual_norm(PauliZFamily(2), OneForm([0.0, 0.0])) == 0.0

    def test_duality_product(self, rng):
        for _ in range(50):
            family = PauliZFamily(3)
            q = rng.standard_normal(3)
            if np.all(q == 0):
                continue
            result = minimize_norm(family, OneForm(q))
            assert result.dual_norm * result.norm == pytest.approx(1.0, abs=1e-10)

    def test_sup_characterization(self, rng):
        for family in (PauliZFamily(3), BlochFamily(), EpsilonPairFamily(0.5)):
            n = family.n_params
            q = rng.standard_normal(n)
            dual = dual_norm(family, OneForm(q))
            for _ in range(200):
                b = rng.standard_normal(n)
                b = b / family.norm(b) * rng.uniform(0, 1)
                assert q @ b <= dual + 1e-8


class TestNormAxioms:
    @pytest.mark.parametrize(
        "make_family",
        [
            lambda rng: PauliZFamily(3),
            lambda rng: BlochFamily(),
            lambda rng: EpsilonPairFamily(0.5),
            random_custom_family,
        ],
    )
    def test_axioms(self, rng, make_family):
        family = make_family(rng)
        n = family.n_params
        for _ in range(100):
            u = rng.standard_normal(n)
            v = rng.standard_normal(n)
            assert family.norm(u + v) <= family.norm(u) + family.norm(v) + 1e-10
            c = float(rng.standard_normal())
            assert family.norm(c * u) == pytest.approx(abs(c) * family.norm(u), abs=1e-10)
            if np.linalg.norm(u) > 1e-6:
                assert family.norm(u) > 0.0


class TestCrossPolytopeDecomposition:
    def test_reconstructs_form(self, rng):
        for _ in range(50):
            n = int(rng.integers(1, 7))
            mags = np.sort(rng.uniform(0.05, 1.0, size=n))[::-1]
            mags[0] = 1.0
            signs = rng.choice([1.0, -1.0], size=n)
            signs[0] = 1.0
            c = mags * signs
            strings, weights = cross_polytope_decomposition(c)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(weights >= -1e-15)
            assert np.allclose(weights @ strings, c, atol=1e-12)

    def test_known_five_parameter_weights(self):
        c = np.array([1.0, 4 / 5, 2 / 3, -1 / 2, 1 / 4])
        strings, weights = cross_polytope_decomposition(c)
        assert np.allclose(weights, [0.625, 0.1, 1 / 15, 1 / 12, 0.125])
        expected_strings = np.array(
            [
                [1, 1, 1, -1, 1],
                [1, -1, -1, 1, -1],
                [1, 1, -1, 1, -1],
                [1, 1, 1, 1, -1],
                [1, 1, 1, -1, -1],
            ]
        )
        assert np.array_equal(strings, expected_strings)


class TestUnitBallMesh:
    def test_octahedron_vertices(self):
        mesh = unit_ball_mesh(PauliZFamily(3), 64)
        expected = np.concatenate([np.eye(3), -np.eye(3)])
        assert np.allclose(mesh.vertices, expected)
        norms = np.abs(mesh.samples).sum(axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_bloch_sphere(self):
        mesh = unit_ball_mesh(BlochFamily(), 128)
        radii = np.linalg.norm(mesh.samples, axis=1)
        assert np.allclose(radii, 1.0, atol=1e-10)

    def test_commuting_pair_square(self):
        mesh = unit_ball_mesh(EpsilonPairFamily(0.0), 96)
        norms = np.abs(mesh.samples).sum(axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_too_many_parameters(self):
        with pytest.raises(UnsupportedDimensionError):
            unit_ball_mesh(PauliZFamily(4), 16)

    def test_two_parameter_polytope(self):
        mesh = unit_ball_mesh(PauliZFamily(2), 16)
        assert mesh.vertices.shape == (4, 2)
