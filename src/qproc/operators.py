"""Dense complex linear algebra over small Hilbert spaces.

Hermitian operators, pure and mixed states, POVMs, Kronecker products,
unitary evolution generated by a Hamiltonian, and the spectral-spread
seminorm.  A POVM is stored as its measurement vectors and the Pauli-z
generators as their diagonals; operators and states are dense ``numpy``
arrays.  All values are immutable after construction and safe to share
between concurrent tasks.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InvariantViolation, ResourceLimitError

HERMITICITY_TOL = 1e-12
PSD_TOL = 1e-10
TRACE_TOL = 1e-10
STATE_NORM_TOL = 1e-12
PROB_SUM_TOL = 1e-9

DEFAULT_MAX_DIM = 2**12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)


def max_dim() -> int:
    """Hilbert-space dimension cap; override with the QPROC_MAX_DIM env var, a positive integer."""
    value = os.environ.get("QPROC_MAX_DIM", DEFAULT_MAX_DIM)
    try:
        cap = int(value)
    except ValueError as exc:
        raise ArgumentError(f"QPROC_MAX_DIM must be a positive integer, got {value!r}") from exc
    if cap < 1:
        raise ArgumentError(f"QPROC_MAX_DIM must be a positive integer, got {value!r}")
    return cap


def _frozen(a: np.ndarray, what: str = "entries", dtype=None) -> np.ndarray:
    """A read-only copy of the array, cast to ``dtype`` if given, rejecting non-finite
    entries: a NaN would pass every ``defect > tol`` check, since the comparison is False."""
    out = np.array(a, dtype=dtype)
    if not np.isfinite(out).all():
        raise InvariantViolation(f"{what} must be finite numbers")
    out.setflags(write=False)
    return out


def _hermitian(a, what: str, dtype=complex, stacked: bool = False) -> np.ndarray:
    """The read-only copy of :func:`_frozen`, checked to be a nonempty square matrix, or (B, dim, dim) stack, with
    max |A - A^dag| <= HERMITICITY_TOL; never symmetrised, so a stored v v^dag reads back exactly."""
    out = _frozen(a, f"{what} entries", dtype)
    if out.ndim != 2 + stacked or out.shape[-1] != out.shape[-2]:
        raise ArgumentError(f"{what} must be a square matrix, got shape {out.shape[stacked:]}")
    if out.shape[-1] < 1:
        raise ArgumentError(f"{what} dimension must be at least 1")
    defect = np.max(np.abs(out - np.swapaxes(out.conj(), -1, -2)))
    if defect > HERMITICITY_TOL:
        raise InvariantViolation(f"matrix is not Hermitian: max |A - A^dag| = {defect:.3e} > {HERMITICITY_TOL:g}")
    return out


def _psd(a: np.ndarray, what: str) -> None:
    """Refuse a Hermitian matrix, or a stack of them, with an eigenvalue below
    -PSD_TOL, times the largest entry where that exceeds 1: the eigenvalues'
    rounding scales with the entries."""
    low = np.linalg.eigvalsh(a).min()
    if low < -PSD_TOL * max(1.0, float(np.abs(a).max())):
        raise InvariantViolation(f"{what} has negative eigenvalue {low:.3e}")


@dataclass(frozen=True)
class HermitianOperator:
    """A Hermitian matrix on a ``dim``-dimensional Hilbert space."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _hermitian(self.entries, "operator"))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


@dataclass(frozen=True)
class PureState:
    """A normalized state vector."""

    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _frozen(np.asarray(self.amplitudes, dtype=complex).reshape(-1))
        if amps.size < 1:
            raise ArgumentError("state vector must have at least one amplitude")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > STATE_NORM_TOL:
            raise InvariantViolation(f"state norm {norm!r} deviates from 1 by more than {STATE_NORM_TOL:g}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def density(self) -> "DensityOperator":
        return DensityOperator(np.outer(self.amplitudes, self.amplitudes.conj()))

    def columns(self) -> np.ndarray:
        """The state as the single column of a (dim, 1) array."""
        return self.amplitudes[:, None]


@dataclass(frozen=True)
class DensityOperator:
    """A density matrix: Hermitian, positive semidefinite, unit trace."""

    entries: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "entries", _density(self.entries))

    @property
    def dim(self) -> int:
        return self.entries.shape[0]

    def columns(self) -> np.ndarray:
        """Columns psi_k with rho = sum_k psi_k psi_k^dag: the eigenvectors
        of the positive eigenvalues, each scaled by the root of its eigenvalue."""
        eigs, vecs = np.linalg.eigh(self.entries)
        keep = eigs > 0.0
        return vecs[:, keep] * np.sqrt(eigs[keep])


def _density(entries, stacked: bool = False) -> np.ndarray:
    """The read-only density matrix, or (B, dim, dim) stack, checked Hermitian, PSD and of unit trace."""
    rho = _hermitian(entries, "density matrix", stacked=stacked)
    _psd(rho, "density matrix")
    traces = np.real(np.trace(rho, axis1=-2, axis2=-1)).reshape(-1)
    if (off := np.abs(traces - 1.0) > TRACE_TOL).any():
        raise InvariantViolation(f"density matrix trace {traces[off][0]!r} deviates from 1")
    return rho


def _povm_basis(basis, labels, stacked: bool = False) -> tuple[np.ndarray, tuple[str, ...]]:
    """The frozen basis and labels of a :class:`Povm`, checked as it documents, or of a (B, dim, m) stack of bases."""
    basis = _frozen(basis, dtype=complex)
    labels = tuple(map(str, labels))
    if basis.ndim != 2 + stacked or basis.shape[-1] < 1:
        raise ArgumentError(f"POVM basis must be a (dim, n_outcomes) matrix, got shape {basis.shape[stacked:]}")
    if len(labels) - basis.shape[-1] not in (0, 1):
        raise ArgumentError("POVM needs one label per outcome, plus at most one for the complement")
    if len(set(labels)) != len(labels):
        raise ArgumentError("POVM outcome labels must be distinct")
    adjoint = np.swapaxes(basis.conj(), -1, -2)
    gram = adjoint @ basis if len(labels) > basis.shape[-1] else basis @ adjoint
    defects = np.abs(gram - np.eye(gram.shape[-1])).max(axis=(-2, -1)).reshape(-1)
    if (off := defects > TRACE_TOL).any():
        raise InvariantViolation(f"POVM basis misses its completeness check by {defects[off][0]:.3e}")
    return basis, labels


@dataclass(frozen=True)
class Povm:
    """A rank-one measurement with named outcomes, stored as its basis.

    Column x of the (dim, n_outcomes) array ``basis`` is the vector v_x of
    outcome x, whose element is v_x v_x^dag.  Every such element is
    positive semidefinite, so the elements form a POVM exactly when they
    sum to the identity, V V^dag = I.  A label after the last column
    names a complement outcome with element I - V V^dag; the columns must
    then be orthonormal, V^dag V = I, which makes that element a projector.
    """

    basis: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        basis, labels = _povm_basis(self.basis, self.labels)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "labels", labels)

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def complement(self) -> bool:
        """Whether the last label names the complement outcome I - V V^dag."""
        return len(self.labels) > self.basis.shape[1]

    @property
    def elements(self) -> tuple[HermitianOperator, ...]:
        """The dense elements v_x v_x^dag, then any complement, built on each access."""
        dense = [np.outer(v, v.conj()) for v in self.basis.T]
        if self.complement:
            dense.append(np.eye(self.dim) - self.basis @ self.basis.conj().T)
        return tuple(HermitianOperator(entries) for entries in dense)

    @classmethod
    def from_basis(cls, vectors: np.ndarray, labels) -> "Povm":
        """Projective POVM built from the columns of an orthonormal basis."""
        return cls(vectors, tuple(labels))


def matrix_to_pairs(matrix: np.ndarray) -> list:
    """Complex matrix as row-major nested [re, im] pairs (the JSON wire form)."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=complex))
    return np.stack([matrix.real, matrix.imag], axis=-1).tolist()


def matrix_from_pairs(nested) -> np.ndarray:
    """Inverse of :func:`matrix_to_pairs`."""
    try:
        arr = np.asarray(nested, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ArgumentError(f"expected a nested array of [re, im] pairs: {exc}") from exc
    if arr.ndim != 3 or arr.shape[-1] != 2:
        raise ArgumentError("expected a nested array of [re, im] pairs")
    return arr[..., 0] + 1j * arr[..., 1]


def tensor(ops: list[HermitianOperator]) -> HermitianOperator:
    """Kronecker product of the operators, in list order."""
    if not ops:
        raise ArgumentError("tensor product of an empty operator list")
    out = ops[0].entries
    for op in ops[1:]:
        out = np.kron(out, op.entries)
    return HermitianOperator(out)


def pauli_z_diagonal(n_qubits: int) -> np.ndarray:
    """Diagonals of the single-qubit z rotations on an n-qubit register.

    Row j holds the diagonal of one half of the Pauli z operator acting on
    qubit j (qubit 1 leftmost in the Kronecker ordering) and the identity
    on the rest: +1/2 where the qubit's bit is 0, -1/2 where it is 1.
    """
    if n_qubits < 1:
        raise ArgumentError("need at least one qubit")
    cap = max_dim()
    # 2^n > cap exactly when n reaches the cap's bit length; comparing
    # that first never builds (or formats) a huge 2^n
    if n_qubits >= cap.bit_length():
        raise ResourceLimitError(f"dimension 2^{n_qubits} exceeds the cap {cap}")
    dim = 2**n_qubits
    shifts = np.arange(n_qubits - 1, -1, -1)[:, None]
    return 0.5 - ((np.arange(dim)[None, :] >> shifts) & 1)


def pauli_z_generators(n_qubits: int) -> list[HermitianOperator]:
    """The dense single-qubit z rotations of :func:`pauli_z_diagonal`.

    All generators commute.
    """
    return [HermitianOperator(np.diag(diag).astype(complex)) for diag in pauli_z_diagonal(n_qubits)]


def seminorm(op: HermitianOperator) -> float:
    """Spectral spread: largest minus smallest eigenvalue."""
    eigs = np.linalg.eigvalsh(op.entries)
    return float(eigs[-1] - eigs[0])


def evolve_pure(state: PureState, hamiltonian: HermitianOperator) -> PureState:
    """Apply exp(-iH) to a pure state via the eigendecomposition of H.

    The eigendecomposition route keeps the evolution exactly unitary, so
    the output renormalizes only round-off.
    """
    if state.dim != hamiltonian.dim:
        raise ArgumentError(f"state dim {state.dim} != operator dim {hamiltonian.dim}")
    eigs, vecs = np.linalg.eigh(hamiltonian.entries)
    phases = np.exp(-1j * eigs)
    amps = vecs @ (phases * (vecs.conj().T @ state.amplitudes))
    amps = amps / np.linalg.norm(amps)
    return PureState(amps)


def born_rule(basis: np.ndarray, columns: np.ndarray, derivatives: np.ndarray | None = None, complement: bool = False):
    """Born probabilities of a state given by its columns, and their derivatives.

    The state is rho = sum_k psi_k psi_k^dag over the columns psi_k of
    ``columns`` (..., dim, k); the measurement vectors v_x are the columns
    of ``basis`` (..., dim, n_outcomes).  Returns the raw, unnormalized
    p_x = sum_k |<v_x|psi_k>|^2 with shape (..., n_outcomes).  Given the
    column derivatives d_j psi_k as ``derivatives`` (..., n_params, dim, k),
    also returns d_j p_x = sum_k 2 Re[conj(<v_x|psi_k>) <v_x|d_j psi_k>]
    with shape (..., n_outcomes, n_params).  Leading axes broadcast.  With
    ``complement`` a last outcome I - V V^dag follows, read from the
    residuals r_k = psi_k - V V^dag psi_k: p = sum_k |r_k|^2 and
    d_j p = sum_k 2 Re<r_k|d_j psi_k>.
    """
    # conj(<v_x|psi>) = v_x^T conj(psi): the basis is read through a
    # transposed view rather than a conjugated copy.
    vt = np.swapaxes(basis, -1, -2)
    amps = vt @ np.conj(columns)
    probs = np.sum(amps.real**2 + amps.imag**2, axis=-1)
    if complement:
        residual = columns - basis @ (np.swapaxes(basis.conj(), -1, -2) @ columns)
        probs = np.concatenate([probs, np.sum(residual.real**2 + residual.imag**2, axis=(-2, -1))[..., None]], axis=-1)
    if derivatives is None:
        return probs
    d_amps = vt[..., None, :, :] @ np.conj(derivatives)
    d_probs = 2.0 * np.sum(np.real(np.conj(amps[..., None, :, :]) * d_amps), axis=-1)
    if complement:
        d_rest = 2.0 * np.sum(np.real(np.conj(residual[..., None, :, :]) * derivatives), axis=(-2, -1))
        d_probs = np.concatenate([d_probs, d_rest[..., None]], axis=-1)
    return probs, np.swapaxes(d_probs, -1, -2)


def outcome_distribution(basis: np.ndarray, columns: np.ndarray, complement: bool = False) -> np.ndarray:
    """The :func:`born_rule` distributions over every outcome, each checked and normalized; leading axes stack."""
    probs = np.clip(born_rule(basis, columns, complement=complement), 0.0, 1.0)
    total = probs.sum(axis=-1, keepdims=True)
    off = ~(np.abs(total - 1.0) < PROB_SUM_TOL)  # a NaN total fails too
    if off.any():
        raise InvariantViolation(f"Born probabilities sum to {total[off][0]!r}; not a distribution")
    return probs / total


def born_probabilities(state: "PureState | DensityOperator", povm: Povm) -> dict[str, float]:
    """Outcome distribution p(x) = tr(E_x rho) over the POVM labels."""
    if state.dim != povm.dim:
        raise ArgumentError(f"state dim {state.dim} != POVM dim {povm.dim}")
    return dict(zip(povm.labels, outcome_distribution(povm.basis, state.columns(), povm.complement).tolist()))
