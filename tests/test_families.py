import sys

import numpy as np
import pytest

from qproc import (
    ArgumentError,
    BlochFamily,
    ConvergenceError,
    EpsilonPairFamily,
    HermitianOperator,
    OneForm,
    PauliZFamily,
    ProcessFamily,
    TangentVector,
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
from qproc import families
from qproc.operators import SIGMA_X, SIGMA_Z

from conftest import random_hermitian, random_traceless_hermitian


def pair_norm(eps, b) -> float:
    """The pair family's closed-form norm |b_1| + sqrt(b_2^2 + 2 eps b_1^2)."""
    return abs(b[0]) + np.sqrt(b[1] ** 2 + 2 * eps * b[0] ** 2)


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
        # generators with a trace, so the stored shift enters every method
        gens = [HermitianOperator(random_hermitian(rng, 4).entries + 3.0 * np.eye(4)) for _ in range(3)]
        family = ProcessFamily(gens)
        dense = _dense_reference(gens, ancilla)
        dim = dense[0].shape[0]
        states = rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2))
        applied = family.apply(states)
        for j, gen in enumerate(dense):
            assert np.max(np.abs(applied[j] - gen @ states)) < 1e-12
        theta = rng.standard_normal(3)
        assert np.max(np.abs(family.evolve(theta, states) - _dense_evolution(dense, theta) @ states)) < 1e-12
        expected = sum(t * g.entries for t, g in zip(theta, gens))
        assert np.max(np.abs(family.generator(theta).entries - expected)) < 1e-12

    def test_rejects_other_dimensions(self):
        with pytest.raises(ArgumentError):
            PauliZFamily(2).apply(np.ones((6, 1)))
        with pytest.raises(ArgumentError):
            PauliZFamily(2).evolve([0.1, 0.2], np.ones(4))

    @pytest.mark.parametrize("ancilla", [False, True], ids=["family", "ancilla"])
    @pytest.mark.parametrize("custom", [False, True], ids=["pauli-z", "custom"])
    def test_stacked_states_match_each_slice(self, rng, ancilla, custom):
        family = random_custom_family(rng) if custom else PauliZFamily(2)
        dim = family.dim * (2 if ancilla else 1)
        stack = rng.standard_normal((5, dim, 2)) + 1j * rng.standard_normal((5, dim, 2))
        theta = rng.standard_normal(family.n_params)
        applied = family.apply(stack)
        evolved = family.evolve(theta, stack)
        assert applied.shape == (5, family.n_params, dim, 2) and applied.flags.c_contiguous
        for b in range(5):
            assert np.array_equal(applied[b], family.apply(stack[b]))
            assert np.array_equal(evolved[b], family.evolve(theta, stack[b]))

    def test_custom_family_holds_one_stack_while_built(self, rng):
        import tracemalloc

        gens = [random_hermitian(rng, 256) for _ in range(3)]
        tracemalloc.start()
        try:
            family = ProcessFamily(gens)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        stack = 3 * 256 * 256 * np.dtype(complex).itemsize
        assert peak <= stack + stack // 3  # the stack plus at most one generator
        # filled in place, the stack holds the bits of one stacked from a list
        listed = np.stack([0.5 * (g.entries + g.entries.conj().T) for g in gens])
        shift = np.trace(listed, axis1=1, axis2=2).real / 256
        listed[:, np.arange(256), np.arange(256)] -= shift[:, None]
        assert np.array_equal(family._shift, shift)
        assert np.array_equal(family._stack, listed)

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
            assert family.norm(b) == pytest.approx(pair_norm(eps, b), abs=1e-12)

    def test_closed_form_matches_spectral_spread_bloch(self, rng):
        family = BlochFamily()
        for _ in range(50):
            b = rng.standard_normal(3)
            assert family.norm(b) == pytest.approx(np.linalg.norm(b), abs=1e-12)

    @pytest.mark.parametrize(
        "make_family",
        [
            lambda rng: PauliZFamily(3),
            lambda rng: BlochFamily(),
            lambda rng: EpsilonPairFamily(0.3),
            random_custom_family,
        ],
    )
    def test_rows_match_one_direction_at_a_time(self, rng, make_family):
        family = make_family(rng)
        directions = rng.standard_normal((40, family.n_params))
        norms = family.norm(directions)
        assert norms.shape == (40,)
        assert np.allclose(norms, [family.norm(b) for b in directions], rtol=1e-14, atol=0)
        assert type(family.norm(directions[0])) is float
        with pytest.raises(ArgumentError):
            family.norm(np.ones((4, family.n_params + 1)))


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

    def test_bloch_matches_euclidean_closed_form(self, rng):
        # the shortest b with q.b = 1 is q / |q|^2, of norm 1 / |q|, at every scale of q
        for scale in 10.0 ** np.arange(-150, 151, 25):
            for _ in range(10):
                q = rng.standard_normal(3)
                q *= scale / np.linalg.norm(q)
                result = minimize_norm(BlochFamily(), OneForm(q))
                assert result.norm == pytest.approx(1.0 / scale, rel=1e-14)
                assert np.allclose(result.vector.components, q / (q @ q), rtol=1e-12, atol=0)
                assert not result.at_corner
                assert 0.0 <= result.gap <= families.GAP_TOL * result.norm

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

    def test_more_generators_than_matrix_entries(self):
        # three 1x1 generators: every b acts as a multiple of the identity,
        # and the null space has more directions than the matrices have entries
        family = ProcessFamily([HermitianOperator(np.array([[float(j)]])) for j in (1, 2, 3)])
        with pytest.raises(UnboundedVarianceError):
            minimize_norm(family, OneForm([0.0, 0.0, 1.0]))

    def test_dim_128_family_with_a_trace(self):
        # the rank test's SVD once built a (2 dim^2)^2 factor, 8 GiB at dim 128
        rng = np.random.default_rng(128)
        gens = [random_hermitian(rng, 128).entries + (j + 1) * np.eye(128) for j in range(3)]
        family = ProcessFamily([HermitianOperator(g) for g in gens])
        result = minimize_norm(family, OneForm([1.0, -0.5, 0.3]))
        eigs = np.linalg.eigvalsh(np.tensordot(result.vector.components, np.array(gens), axes=1))
        assert result.norm == pytest.approx(eigs[-1] - eigs[0], rel=1e-12)
        assert 0.0 <= result.gap <= families.GAP_TOL * result.norm

    def test_custom_family_matches_scan(self, rng):
        family = random_custom_family(rng, n_params=2, dim=4)
        q = np.array([1.0, 0.7])
        result = minimize_norm(family, OneForm(q))
        t = np.linspace(-3, 3, 20001)
        values = np.array([family.norm(np.array([ti, (1 - q[0] * ti) / q[1]])) for ti in t])
        assert result.norm <= values.min() + 1e-6
        assert pair(OneForm(q), result.vector) == pytest.approx(1.0, abs=1e-9)

    def test_commuting_custom_family_reaches_the_vertex(self):
        # a polytope norm on which the multi-start descent once stalled
        # at 0.19059, overstating the attainable precision 1.8 times
        rows = [
            [-0.8, 1.08, -0.33, -0.33, 1.52],
            [0.49, 0.7, 0.85, -0.91, 0.12],
            [0.15, -0.16, -1.09, 0.46, -1.66],
            [-0.94, -0.81, -0.41, 0.84, 1.66],
        ]
        family = ProcessFamily([HermitianOperator(np.diag(d).astype(complex)) for d in rows])
        result = minimize_norm(family, OneForm([1.72, 0.81, 0.44, -2.34]))
        assert result.norm == pytest.approx(0.1411802244284279, rel=1e-9)
        assert result.at_corner

    @pytest.mark.parametrize("scale", [1, 10, 1000])
    def test_smooth_qubit_family_at_every_scale(self, scale):
        # the spread is scale * |(b1 + b2/2, b2)|, so on q . b = 1 the
        # variance bound is (1 + 0.9^2) / scale^2 and the minimum is smooth;
        # a finite-difference probe once called it a corner from scale 10 up
        first = HermitianOperator(scale * np.diag([0.5, -0.5]).astype(complex))
        second = HermitianOperator(scale * np.array([[0.25, 0.5], [0.5, -0.25]], dtype=complex))
        result = minimize_norm(ProcessFamily([first, second]), OneForm([1.0, -0.4]))
        assert not result.at_corner
        assert result.dual_norm**2 == pytest.approx(1.81 / scale**2, rel=1e-12)

    def test_cut_cap_raises_with_the_best_point(self, rng, monkeypatch):
        # one round of cuts cannot close the gap: the first LP leans on its box
        family = random_custom_family(rng)
        q = np.array([1.0, -0.5, 0.3])
        monkeypatch.setattr(families, "MAX_CUTS", 1)
        with pytest.raises(ConvergenceError) as caught:
            minimize_norm(family, OneForm(q))
        best = caught.value.best
        assert isinstance(best, TangentVector)
        assert q @ best.components == pytest.approx(1.0, abs=1e-12)


    @pytest.mark.parametrize("shift", [1e2, 1e6, 1e10])
    def test_identity_shift_costs_no_digits(self, shift):
        # the spread ignores a multiple of the identity; taken over the full
        # generators it lost digits to it, and the gap reported the loss
        rng = np.random.default_rng(3)
        gens = [random_hermitian(rng, 4).entries + shift * (j + 1) * np.eye(4) for j in range(3)]
        family = ProcessFamily([HermitianOperator(g) for g in gens])
        result = minimize_norm(family, OneForm([1.0, -0.5, 0.3]))
        eigs = np.linalg.eigvalsh(np.tensordot(result.vector.components, family._stack, axes=1))
        assert result.norm == pytest.approx(eigs[-1] - eigs[0], rel=1e-14)
        assert 0.0 <= result.gap <= families.GAP_TOL * result.norm


def _count_eigensolves(monkeypatch) -> list[int]:
    """Count the matrices numpy eigen-solves called from qproc.families
    from now on: P for a (P, dim, dim) stack."""
    count = [0]
    for name in ("eigh", "eigvalsh"):

        def counted(matrices, *args, _solve=getattr(np.linalg, name), **kwargs):
            if sys._getframe(1).f_globals.get("__name__") == "qproc.families":
                count[0] += int(np.prod(np.shape(matrices)[:-2]))
            return _solve(matrices, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return count


class TestWork:
    """Eigen-solves per ``minimize_norm``: Newton points on smooth minima."""

    def test_custom_bound_problem(self, monkeypatch):
        # three dense dim-4 generators and q, drawn as the custom-bound
        # benchmark draws them; plain Kelley cutting planes took 56 solves,
        # and Newton points from q / |q|^2, with an LP every round, 16 and 9 LPs
        rng = np.random.default_rng(1)
        gens = []
        for _ in range(3):
            raw = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            gens.append(HermitianOperator(0.5 * (raw + raw.conj().T)))
        q = rng.standard_normal(3)
        count = _count_eigensolves(monkeypatch)
        lps, master_dual = [0], families._master_dual

        def counted_lp(*args):
            lps[0] += 1
            return master_dual(*args)

        monkeypatch.setattr(families, "_master_dual", counted_lp)
        result = minimize_norm(ProcessFamily(gens), OneForm(q))
        assert count[0] <= 12
        assert lps[0] <= 3
        assert 0.0 <= result.gap <= families.GAP_TOL * result.norm
        assert not result.at_corner

    def test_smooth_random_families(self, monkeypatch):
        # end eigenvalues of complex Hermitian matrices cross in codimension
        # three, so on a plane of at most two dimensions the minimum is smooth
        rng = np.random.default_rng(12)
        count = _count_eigensolves(monkeypatch)
        for _ in range(8):
            n, dim = int(rng.integers(2, 4)), int(rng.integers(3, 7))
            family, gens = _random_family(rng, "dense", n, dim)
            q = np.round(rng.standard_normal(n), 2)
            count[0] = 0
            result = minimize_norm(family, OneForm(q))
            assert count[0] <= 30
            assert not result.at_corner
            assert 0.0 <= result.gap <= families.GAP_TOL * result.norm
            assert result.norm <= _grid_minimum(gens, q) + 1e-9


def _random_family(rng, kind, n, dim):
    """A family and its generators, of one of four kinds: commuting
    diagonals rounded to one decimal, sparse real symmetric matrices with
    rounded entries, dense complex Hermitian matrices, and the same times
    1000."""
    mats = []
    for _ in range(n):
        if kind == "diagonal":
            mat = np.diag(np.round(rng.standard_normal(dim), 1))
        elif kind == "sparse":
            upper = np.triu(np.round(rng.standard_normal((dim, dim)), 1) * (rng.random((dim, dim)) < 0.4))
            mat = upper + np.triu(upper, 1).T
        else:
            raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mat = 0.5 * (raw + raw.conj().T) * (1000.0 if kind == "dense-x1000" else 1.0)
        mats.append(HermitianOperator(np.asarray(mat, dtype=complex)))
    return ProcessFamily(mats), np.array([mat.entries for mat in mats])


def _grid_minimum(gens, q, points=21, levels=16):
    """Smallest spread of the generators ``gens`` on a zooming grid over the plane q . b = 1.

    On the plane, norm(base + v) >= c |v| - norm(base), with c the least
    norm of a unit direction orthogonal to q, so the minimizer lies within
    2 norm(base) / c of base; the first window takes twice that, with c
    from a fine sample of directions.  Each level re-centres on the best
    point and shrinks the window to two grid steps.  Every grid point lies
    on the plane, so the result is never below the true minimum.
    """

    def spreads(bs):
        eigs = np.linalg.eigvalsh(np.einsum("mj,jab->mab", bs, gens))
        return eigs[:, -1] - eigs[:, 0]

    base = q / (q @ q)
    perp = np.linalg.svd(q[None, :])[2][1:]
    best = spreads(base[None, :])[0]
    k = perp.shape[0]
    if k == 0:
        return best
    angles = np.linspace(0.0, np.pi, 1800, endpoint=False)
    units = np.ones((1, 1)) if k == 1 else np.column_stack([np.cos(angles), np.sin(angles)])
    radius = 4.0 * best / spreads(units @ perp).min()
    axis = np.linspace(-1.0, 1.0, points)
    offsets = np.stack(np.meshgrid(*[axis] * k), axis=-1).reshape(-1, k) @ perp
    center = base
    for _ in range(levels):
        candidates = center + radius * offsets
        values = spreads(candidates)
        if values.min() < best:
            best, center = values.min(), candidates[np.argmin(values)]
        radius *= 4.0 / (points - 1)
    return best


class TestCertificate:
    """Cutting planes on random families: a certified gap, checked against
    an independent grid search where the plane has at most two dimensions."""

    KINDS = ("diagonal", "sparse", "dense", "dense-x1000")

    @pytest.mark.parametrize("kind", KINDS)
    def test_random_families(self, kind):
        rng = np.random.default_rng([7, self.KINDS.index(kind)])
        solved = 0
        for _ in range(16):
            n, dim = int(rng.integers(2, 6)), int(rng.integers(2, 7))
            family, gens = _random_family(rng, kind, n, dim)
            q = np.round(rng.standard_normal(n), 2)
            try:
                result = minimize_norm(family, OneForm(q))
            except UnboundedVarianceError:
                continue
            solved += 1
            assert 0.0 <= result.gap <= families.GAP_TOL * result.norm * (1 + 1e-9)
            if n <= 3:
                grid = _grid_minimum(gens, q)
                # the certified lower bound, up to a few ulps of rounding
                assert result.norm - result.gap <= grid * (1 + 1e-13)
                assert result.norm <= grid * (1 + 1e-9)
        assert solved >= 5

    def test_master_lp_refuses_an_infeasible_basis(self):
        # the start basis weighs the cuts 1.5 and -0.5: every reduced cost is
        # already nonpositive, so the simplex would stop there, but cut
        # weights below zero certify no lower bound
        columns = np.array([[0.0, 1.0, 1.0], [1.0, 1.0, 3.0]])
        with pytest.raises(ConvergenceError, match="negative weights"):
            families._master_dual(columns, np.array([-1.0, 0.0, 0.0]), np.array([1, 2]))

    def test_degenerate_master_lp_settles(self):
        # the master LP of this kinked family is degenerate, with weights that
        # are rounding noise of either sign where exact arithmetic has zeros;
        # a lowest-index tie break in the ratio test cycled there for 10,000
        # pivots, and the lexicographic ratio test settles
        rng = np.random.default_rng([5, 12, 4, 2])
        family, _ = _random_family(rng, "dense", 12, 4)
        result = minimize_norm(family, OneForm(rng.standard_normal(12)))
        assert result.norm == pytest.approx(0.2036688145627, rel=1e-11)
        assert result.at_corner
        assert 0.0 <= result.gap <= families.GAP_TOL * result.norm


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
        assert np.allclose(mesh["vertices"], expected)
        norms = np.abs(mesh["samples"]).sum(axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_bloch_sphere(self):
        mesh = unit_ball_mesh(BlochFamily(), 128)
        radii = np.linalg.norm(mesh["samples"], axis=1)
        assert np.allclose(radii, 1.0, atol=1e-10)

    def test_commuting_pair_square(self):
        mesh = unit_ball_mesh(EpsilonPairFamily(0.0), 96)
        norms = np.abs(mesh["samples"]).sum(axis=1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_too_many_parameters(self):
        with pytest.raises(UnsupportedDimensionError):
            unit_ball_mesh(PauliZFamily(4), 16)

    def test_large_mesh_runs_in_bounded_solves(self, monkeypatch):
        family = EpsilonPairFamily(0.3)
        whole = unit_ball_mesh(family, 1000)["samples"]
        monkeypatch.setattr(families, "MESH_ENTRIES", 64 * 16)  # 64 rays of 4 x 4 combinations
        sizes, eigvalsh = [], np.linalg.eigvalsh

        def counted(matrices):
            sizes.append(len(matrices))
            return eigvalsh(matrices)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        assert unit_ball_mesh(family, 1000)["samples"] == whole
        assert sizes == [64] * 15 + [40]

    def test_two_parameter_polytope(self):
        mesh = unit_ball_mesh(PauliZFamily(2), 16)
        assert np.shape(mesh["vertices"]) == (4, 2)
