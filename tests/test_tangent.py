import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import (
    ArgumentError,
    FisherMatrix,
    InvariantViolation,
    OneForm,
    TangentVector,
    UnboundedVarianceError,
    canonicalize,
    fisher_dual,
    pair,
)


class TestPair:
    def test_two_units_of_q(self):
        # dq = dtheta^1 + (1/2) dtheta^2 across v = (9/4, -1/2) spans two units
        assert pair(OneForm([1, 0.5]), TangentVector([2.25, -0.5])) == pytest.approx(2.0)

    def test_dual_bases(self):
        for j in range(3):
            for k in range(3):
                dq = OneForm(np.eye(3)[j])
                v = TangentVector(np.eye(3)[k])
                assert pair(dq, v) == (1.0 if j == k else 0.0)

    def test_zero_vector(self, rng):
        dq = OneForm(rng.standard_normal(5))
        assert pair(dq, TangentVector(np.zeros(5))) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ArgumentError):
            pair(OneForm([1.0]), TangentVector([1.0, 2.0]))


class TestFisherForm:
    def test_rank_one_projects_on_form(self):
        dq = np.array([1.0, 0.5])
        fisher = FisherMatrix(np.outer(dq, dq))
        v = TangentVector([1, 0])
        assert v.components @ fisher.entries @ v.components == pytest.approx(1.0)

    def test_euclidean_case(self):
        fisher = FisherMatrix(np.eye(2))
        v = TangentVector([3, 4])
        assert v.components @ fisher.entries @ v.components == pytest.approx(25.0)

    def test_null_direction_of_face_matrix(self):
        fisher = FisherMatrix(np.ones((2, 2)))
        v = TangentVector([1, -1])
        assert v.components @ fisher.entries @ v.components == pytest.approx(0.0)


class TestFisherDual:
    def test_identity_metric(self):
        assert fisher_dual(FisherMatrix(np.eye(2)), OneForm([1, 0.5])) == pytest.approx(1.25)

    def test_corner_mixture_matrix(self):
        # hand 2x2 inversion: F^{-1} = (4/3) [[1, -1/2], [-1/2, 1]]
        fisher = FisherMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        assert fisher_dual(fisher, OneForm([1, 0.5])) == pytest.approx(1.0, abs=1e-12)

    def test_rank_one_pseudo_inverse(self):
        dq = np.array([1.0, 0.5])
        fisher = FisherMatrix(np.outer(dq, dq))
        assert fisher_dual(fisher, OneForm(dq)) == pytest.approx(1.0, abs=1e-12)

    def test_null_space_component_unbounded(self):
        fisher = FisherMatrix(np.diag([1.0, 0.0]))
        with pytest.raises(UnboundedVarianceError):
            fisher_dual(fisher, OneForm([1.0, 0.3]))

    def test_zero_matrix_unbounded(self):
        fisher = FisherMatrix(np.zeros((2, 2)))
        with pytest.raises(UnboundedVarianceError):
            fisher_dual(fisher, OneForm([1.0, 0.0]))


class TestCanonicalize:
    def test_reorders_and_drops(self):
        result = canonicalize(OneForm([0.5, 1.0, 0.0]))
        assert result.permutation == (1, 0)
        assert result.dropped == frozenset({2})
        assert result.scale == pytest.approx(1.0)
        assert result.sign == 1
        assert np.allclose(result.canonical.components, [1.0, 0.5])

    def test_already_canonical(self):
        result = canonicalize(OneForm([1.0, 2 / 3, 1 / 3]))
        assert result.permutation == (0, 1, 2)
        assert result.scale == pytest.approx(1.0)
        assert np.allclose(result.canonical.components, [1.0, 2 / 3, 1 / 3])

    def test_negative_leader(self):
        result = canonicalize(OneForm([-2.0, 1.0]))
        assert result.scale == pytest.approx(2.0)
        assert result.sign == -1
        assert np.allclose(result.canonical.components, [1.0, -0.5])

    def test_zero_form_rejected(self):
        with pytest.raises(ArgumentError):
            canonicalize(OneForm([0.0, 0.0]))

    def test_tie_break_is_stable(self):
        result = canonicalize(OneForm([0.5, -0.5, 1.0, 1.0]))
        assert result.permutation == (2, 3, 0, 1)

    @given(
        st.lists(
            st.floats(min_value=-10, max_value=10, allow_nan=False).filter(lambda x: x == 0 or abs(x) > 1e-6),
            min_size=1,
            max_size=7,
        ).filter(lambda xs: any(x != 0 for x in xs))
    )
    @settings(max_examples=200, deadline=None)
    def test_restore_round_trips(self, components):
        form = OneForm(components)
        result = canonicalize(form)
        restored = np.zeros(result.n_original)
        restored[list(result.permutation)] = result.sign * result.scale * result.canonical.components
        assert np.allclose(restored, form.components, rtol=1e-12, atol=1e-12)

    def test_embed_signs_folds_leading_sign(self):
        result = canonicalize(OneForm([-2.0, 1.0]))
        embedded = result.embed_signs([1, -1])
        # canonical slot 0 is original index 0 (lead -2): sign folds to -1 there
        assert embedded.tolist() == [-1, 1]


def _fisher_orthogonal(fisher: FisherMatrix, q: np.ndarray) -> np.ndarray:
    """Reference: the raised form F^+ q, scaled to advance one unit of q."""
    raised = np.linalg.pinv(fisher.entries) @ q
    return raised / (q @ raised)


class TestInvariantProperties:
    def test_cauchy_schwarz_and_saturation(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 7))
            raw = rng.standard_normal((n, n))
            fisher = FisherMatrix(raw @ raw.T + 0.1 * np.eye(n))
            q = rng.standard_normal(n)
            if abs(np.linalg.norm(q)) < 1e-3:
                continue
            dq = OneForm(q)
            b_raw = rng.standard_normal(n)
            advance = q @ b_raw
            if abs(advance) < 1e-6:
                continue
            b = TangentVector(b_raw / advance)
            lower = 1.0 / fisher_dual(fisher, dq)
            assert b.components @ fisher.entries @ b.components >= lower - 1e-9
            best = _fisher_orthogonal(fisher, q)
            assert best @ fisher.entries @ best == pytest.approx(lower, abs=1e-9)

    def test_orthogonality_to_level_surfaces(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 7))
            raw = rng.standard_normal((n, n))
            fisher = FisherMatrix(raw @ raw.T + 0.1 * np.eye(n))
            q = rng.standard_normal(n)
            best = _fisher_orthogonal(fisher, q)
            v_raw = rng.standard_normal(n)
            v_level = v_raw - q * (q @ v_raw) / (q @ q)
            level = TangentVector(v_level)
            assert best @ fisher.entries @ level.components == pytest.approx(0.0, abs=1e-9)

    def test_degenerate_matrix_is_one_from_many(self, rng):
        q = np.array([1.0, 0.5, -0.25])
        amplitude = 1.7
        fisher = FisherMatrix(amplitude**2 * np.outer(q, q))
        for _ in range(100):
            b_raw = rng.standard_normal(3)
            advance = q @ b_raw
            if abs(advance) < 1e-6:
                continue
            b = TangentVector(b_raw / advance)
            assert b.components @ fisher.entries @ b.components == pytest.approx(amplitude**2, abs=1e-9)


class TestFisherMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(InvariantViolation):
            FisherMatrix(np.array([[1.0, 0.2], [0.1, 1.0]]))

    def test_negative_eigenvalue_rejected(self):
        with pytest.raises(InvariantViolation):
            FisherMatrix(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_degenerate_allowed(self):
        FisherMatrix(np.ones((3, 3)))

    @pytest.mark.parametrize("shape", [(0, 0), (2, 3)])
    def test_bad_shape_rejected(self, shape):
        # refused before the Hermiticity test, whose max has no value on an empty matrix
        with pytest.raises(ArgumentError):
            FisherMatrix(np.zeros(shape))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(InvariantViolation):
            FisherMatrix(np.array([[1.0, bad], [bad, 1.0]]))

    def test_entries_are_a_frozen_copy(self):
        entries = np.eye(2)
        fisher = FisherMatrix(entries)
        entries[0, 0] = 5.0
        assert fisher.entries[0, 0] == 1.0
        assert not fisher.entries.flags.writeable
