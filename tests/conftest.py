import numpy as np
import pytest

from qproc import DensityOperator, HermitianOperator, PureState, born_rule
from qproc.qfisher import _fisher_stack, qubit_basis


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_hermitian(rng, dim, scale=1.0):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator(scale * 0.5 * (raw + raw.conj().T))


def random_pure_state(rng, dim):
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return PureState(amps / np.linalg.norm(amps))


def random_density(rng, dim, full_rank=True):
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = raw @ raw.conj().T
    if full_rank:
        rho += 0.1 * np.eye(dim)
    return DensityOperator(rho / np.real(np.trace(rho)))


def random_traceless_hermitian(rng, dim, scale=1.0):
    op = random_hermitian(rng, dim, scale).entries
    op = op - np.eye(dim) * np.trace(op) / dim
    return HermitianOperator(op)


def qubit_fisher_grid(states, generator, directions):
    """Scalar classical Fisher information at phi = 0, under exp(-i phi Y), of every (state, projective
    measurement) pair on one qubit, through ``born_rule`` and ``_fisher_stack``.  ``states`` is
    (n_states, 2) amplitudes and ``directions`` (n_directions, 3) unit Bloch vectors naming the bases;
    returns (n_states, n_directions)."""
    bases = np.swapaxes(qubit_basis(directions), -1, -2)[:, None]  # (n_directions, 1, 2, 2 outcomes)
    columns = np.asarray(states, dtype=complex)[:, :, None]  # each state a one-column fiducial
    probs, jacobian = born_rule(bases, columns, ((-1j * generator.entries) @ columns)[:, None])
    return _fisher_stack(probs, jacobian)[..., 0, 0].T
