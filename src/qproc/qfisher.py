"""Quantum side of the bound chain.

Symmetric-logarithmic-derivative solve, quantum Fisher information for
pure and mixed states, the classical Fisher matrix of an outcome
distribution given with its derivatives, and verification of the ordering

    F_bb  <=  Q_bb  <=  (spectral spread of the generator)^2.

The module also scans grids of single-qubit states and projective
measurements, used to check attainability of the quantum bound
empirically rather than by citation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    ChainViolation,
    InconsistentDerivativeError,
    InvariantViolation,
)
from .operators import DensityOperator, HermitianOperator, PureState, born_rule
from .tangent import FisherMatrix

SLD_TRACE_TOL = 1e-10
SLD_RESIDUAL_TOL = 1e-9
SLD_EIGENVALUE_CUTOFF = 1e-10
DEFAULT_P_FLOOR = 1e-12
CHAIN_TOL = 1e-9


@dataclass(frozen=True)
class SldResult:
    """Symmetric logarithmic derivative together with its solve quality."""

    operator: HermitianOperator
    residual: float

    def __post_init__(self):
        if self.residual > SLD_RESIDUAL_TOL:
            raise InvariantViolation(f"SLD residual {self.residual:.3e} exceeds {SLD_RESIDUAL_TOL:g}")


def sld(rho: DensityOperator, drho: HermitianOperator) -> SldResult:
    """Solve (rho L + L rho)/2 = drho in the eigenbasis of rho.

    Matrix elements between eigenvectors whose eigenvalues sum to
    (numerically) zero are left at zero: the projection of L onto the
    null space of rho never enters any probability, so it is a gauge
    choice, not information.  A derivative with genuine support there is
    inconsistent with rho and raises.
    """
    if rho.dim != drho.dim:
        raise ArgumentError("state and derivative dimensions differ")
    trace = complex(np.trace(drho.entries))
    if abs(trace) > SLD_TRACE_TOL:
        raise ArgumentError(f"state derivative must be traceless, got trace {trace!r}")
    eigs, vecs = np.linalg.eigh(rho.entries)
    d_tilde = vecs.conj().T @ drho.entries @ vecs
    denom = eigs[:, None] + eigs[None, :]
    solvable = denom > SLD_EIGENVALUE_CUTOFF
    bad = np.max(np.abs(np.where(solvable, 0.0, d_tilde)))
    if bad > SLD_RESIDUAL_TOL:
        raise InconsistentDerivativeError(
            f"derivative has weight {bad:.3e} where rho has no support; "
            "the Lyapunov equation has no solution there"
        )
    l_tilde = np.where(solvable, 2.0 * d_tilde / np.where(solvable, denom, 1.0), 0.0)
    l_matrix = vecs @ l_tilde @ vecs.conj().T
    l_matrix = 0.5 * (l_matrix + l_matrix.conj().T)
    operator = HermitianOperator(l_matrix)
    defect = 0.5 * (rho.entries @ l_matrix + l_matrix @ rho.entries) - drho.entries
    residual = float(np.max(np.abs(defect)))
    mean = np.real(np.trace(rho.entries @ l_matrix))
    if abs(mean) > 1e-9:
        raise InvariantViolation(f"SLD has nonzero mean {mean:.3e} in the state")
    return SldResult(operator=operator, residual=residual)


def qfi_pure(psi: PureState, generator: HermitianOperator) -> float:
    """Quantum Fisher information 4 Var(Y) of a pure state under exp(-i phi Y)."""
    if psi.dim != generator.dim:
        raise ArgumentError("state and generator dimensions differ")
    amps = psi.amplitudes
    g_psi = generator.entries @ amps
    mean = np.real(np.vdot(amps, g_psi))
    second = np.real(np.vdot(g_psi, g_psi))
    return float(4.0 * (second - mean**2))


def qfi_from_sld(rho: DensityOperator, sld_operator: HermitianOperator) -> float:
    """Quantum Fisher information tr(rho L^2) from a precomputed SLD."""
    if rho.dim != sld_operator.dim:
        raise ArgumentError("state and SLD dimensions differ")
    l_entries = sld_operator.entries
    return float(np.real(np.trace(rho.entries @ l_entries @ l_entries)))


def _fisher_sum(probs: np.ndarray, jacobian: np.ndarray) -> np.ndarray:
    """sum_x (d_j p_x)(d_k p_x)/p_x over the outcomes above ``DEFAULT_P_FLOOR``, the
    others entering as zero rows; ``probs`` is (..., n_outcomes) and
    ``jacobian`` (..., n_outcomes, n_params), leading axes broadcast."""
    keep = probs > DEFAULT_P_FLOOR
    dkeep = np.where(keep[..., None], jacobian, 0.0)
    scaled = dkeep / np.where(keep, probs, 1.0)[..., None]
    return np.swapaxes(scaled, -1, -2) @ dkeep


def classical_fisher(probs, jacobian) -> FisherMatrix:
    """Fisher matrix sum_x (d_j p)(d_k p)/p of an outcome distribution.

    ``probs`` is the distribution at the point of interest and
    ``jacobian`` its (n_outcomes, n_params) array of derivatives there.
    Outcomes below ``DEFAULT_P_FLOOR`` are excluded: for the smooth models
    in scope a vanishing probability at an interior point forces a
    vanishing derivative, so those outcomes carry no information.
    """
    p0 = np.asarray(probs, dtype=float).reshape(-1)
    if p0.min() < -1e-12:
        raise InvariantViolation(f"negative probability {p0.min():.3e} in the distribution")
    p0 = np.clip(p0, 0.0, None)
    total = p0.sum()
    if abs(total - 1.0) > 1e-10:
        raise InvariantViolation(f"probabilities sum to {total!r}")
    jac = np.asarray(jacobian, dtype=float)
    if jac.ndim != 2 or jac.shape[0] != p0.size:
        raise ArgumentError(f"jacobian shape {jac.shape} does not have {p0.size} outcome rows")
    fisher = _fisher_sum(p0, jac)
    fisher = 0.5 * (fisher + fisher.T)
    return FisherMatrix(fisher)


@dataclass(frozen=True)
class ChainReport:
    """Slack in each link of the ordered bound chain."""

    fisher: float
    quantum_fisher: float
    norm: float
    slack_fisher: float
    slack_quantum: float


def verify_chain(f_bb: float, q_bb: float, norm: float) -> ChainReport:
    """Check F_bb <= Q_bb <= norm^2 and report the slack in each link."""
    if min(f_bb, q_bb, norm) < 0:
        raise ArgumentError("chain quantities must be nonnegative")
    slack_fisher = q_bb - f_bb
    slack_quantum = norm**2 - q_bb
    if slack_fisher < -CHAIN_TOL:
        raise ChainViolation(
            "fisher<=quantum",
            f"classical Fisher {f_bb!r} exceeds quantum Fisher {q_bb!r}",
        )
    if slack_quantum < -CHAIN_TOL:
        raise ChainViolation(
            "quantum<=norm",
            f"quantum Fisher {q_bb!r} exceeds squared norm {norm**2!r}",
        )
    return ChainReport(
        fisher=float(f_bb),
        quantum_fisher=float(q_bb),
        norm=float(norm),
        slack_fisher=float(slack_fisher),
        slack_quantum=float(slack_quantum),
    )


# ---------------------------------------------------------------------------
# Grids over single-qubit states and projective measurements.


def bloch_direction_grid(count: int) -> np.ndarray:
    """`count` directions spread quasi-uniformly over the sphere (Fibonacci)."""
    if count < 1:
        raise ArgumentError("need at least one direction")
    i = np.arange(count)
    golden = np.pi * (3.0 - np.sqrt(5.0))
    z = 1.0 - 2.0 * (i + 0.5) / count
    radius = np.sqrt(np.clip(1.0 - z**2, 0.0, None))
    angle = golden * i
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle), z])


def qubit_basis(directions: np.ndarray) -> np.ndarray:
    """The +1 and -1 eigenvectors of n . sigma for Bloch directions n.

    ``directions`` has shape (..., 3) and is taken as already unit
    length; the result has shape (..., 2 outcomes, 2 amplitudes).
    """
    theta = np.arccos(np.clip(directions[..., 2], -1.0, 1.0))
    phi = np.arctan2(directions[..., 1], directions[..., 0])
    c, s = np.cos(theta / 2), np.sin(theta / 2)
    plus = np.stack([c, np.exp(1j * phi) * s], axis=-1)
    minus = np.stack([-s, np.exp(1j * phi) * c], axis=-1)
    return np.stack([plus, minus], axis=-2)


def qubit_fisher_scan(
    states: np.ndarray,
    generator: HermitianOperator,
    directions: np.ndarray,
) -> np.ndarray:
    """Scalar classical Fisher at the fiducial point for every
    (state, projective measurement) pair on a single qubit.

    ``states`` is (n_states, 2) of amplitudes; returns an array of shape
    (n_states, n_directions).  Derivatives are exact: the derivative of
    |<e|exp(-i phi Y)|psi>|^2 at phi = 0 is 2 Re[conj(<e|psi>) <e|-iY|psi>].
    """
    states = np.asarray(states, dtype=complex)
    directions = np.asarray(directions, dtype=float)
    bases = qubit_basis(directions / np.linalg.norm(directions, axis=1, keepdims=True))
    # each state is a one-column fiducial, broadcast against each basis
    columns = states[:, :, None]  # (n_states, 2, 1)
    d_columns = ((-1j * generator.entries) @ columns)[:, None]  # (n_states, 1 param, 2, 1)
    p, dp = born_rule(np.swapaxes(bases, -1, -2)[:, None], columns, d_columns)
    return _fisher_sum(p, dp)[..., 0, 0].T  # (n_states, n_directions)

