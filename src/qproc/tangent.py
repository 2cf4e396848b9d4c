"""Real tangent-space geometry at the fiducial operating point.

Vectors move through parameter space; one-forms measure how the target
quantity changes.  The Fisher matrix acts covariantly on vectors and,
through its pseudo-inverse, contravariantly on forms.  Keeping the two
roles separate is what the whole bound chain hangs on, so the functions
here never silently transpose one into the other.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, InvariantViolation, UnboundedVarianceError
from .operators import _frozen, _hermitian, _psd

DEFAULT_RANK_TOL = 1e-10


def _real_vector(values, what: str) -> np.ndarray:
    arr = _frozen(np.asarray(values, dtype=float).reshape(-1), f"{what} components")
    if arr.size == 0:
        raise ArgumentError(f"{what} must have at least one component")
    return arr


@dataclass(frozen=True)
class TangentVector:
    """A displacement b = b^j d/dtheta^j in the tangent space."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _real_vector(self.components, "tangent vector"))

    def __len__(self) -> int:
        return self.components.size


@dataclass(frozen=True)
class OneForm:
    """A differential form dq = q_j dtheta^j measuring changes of the target."""

    components: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "components", _real_vector(self.components, "one-form"))

    def __len__(self) -> int:
        return self.components.size


@dataclass(frozen=True)
class FisherMatrix:
    """Symmetric positive-semidefinite information tensor F_jk.

    Degenerate (rank-deficient) matrices are allowed; operations that
    need an inverse use a spectral pseudo-inverse with relative cutoff
    ``DEFAULT_RANK_TOL`` times the largest eigenvalue.
    """

    entries: np.ndarray

    def __post_init__(self):
        entries = _hermitian(self.entries, "Fisher matrix", float)
        _psd(entries, "Fisher matrix")
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return self.entries.shape[0]


def pair(dq: OneForm, v: TangentVector) -> float:
    """Action of the form on the vector: the change in q across v."""
    if len(dq) != len(v):
        raise ArgumentError(f"form length {len(dq)} != vector length {len(v)}")
    return float(dq.components @ v.components)


def fisher_dual(fisher: FisherMatrix, dq: OneForm) -> float:
    """Contravariant invariant q_j (F^+)^{jk} q_k, through the spectral pseudo-inverse.

    This is the optimal variance for estimating q when none of the other
    parameters can be controlled.  A form with weight in the null space
    of F has infinite marginal variance, which is an error, not a number.
    """
    if fisher.size != len(dq):
        raise ArgumentError("size mismatch between Fisher matrix and form")
    form = dq.components
    eigs, vecs = np.linalg.eigh(fisher.entries)
    top = max(float(eigs[-1]), 0.0)
    cutoff = DEFAULT_RANK_TOL * top
    keep = eigs > cutoff
    coeffs = vecs.T @ form
    null_part = float(np.linalg.norm(coeffs[~keep]))
    if null_part >= DEFAULT_RANK_TOL * np.linalg.norm(form):
        raise UnboundedVarianceError(
            "form has a component in the null space of the Fisher matrix; "
            "the marginalized variance is unbounded"
        )
    return float(np.sum(coeffs[keep] ** 2 / eigs[keep]))


@dataclass(frozen=True)
class CanonicalForm:
    """A target form reduced to canonical shape 1 = q_1 >= |q_2| >= ... > 0.

    ``permutation[i]`` is the original index sitting at canonical slot i;
    indices in ``dropped`` had exactly zero coefficient and do not
    contribute to the target.  The original form is recovered as
    ``sign * scale * canonical`` pushed back through the permutation, and
    any variance bound computed in canonical coordinates rescales by
    ``scale**2``.
    """

    permutation: tuple[int, ...]
    scale: float
    sign: int
    canonical: OneForm
    n_original: int

    def __post_init__(self):
        comps = self.canonical.components
        mags = np.abs(comps)
        if abs(comps[0] - 1.0) > 1e-12:
            raise InvariantViolation("canonical forms lead with coefficient +1")
        if np.any(mags[1:] - mags[:-1] > 1e-12) or mags[-1] == 0.0:
            raise InvariantViolation("canonical coefficients must descend in magnitude and stay nonzero")
        if self.scale <= 0 or self.sign not in (1, -1):
            raise InvariantViolation("scale must be positive and sign must be +/-1")

    @property
    def dropped(self) -> frozenset[int]:
        return frozenset(range(self.n_original)) - set(self.permutation)

    def embed_signs(self, signs) -> np.ndarray:
        """Place canonical-slot sign entries at their original indices.

        Sign flips from a negative leading coefficient are folded in, so
        the embedded string pairs with original-space vectors; dropped
        indices come back as zeros.  Leading axes stack strings.
        """
        signs = np.asarray(signs, dtype=int)
        if signs.shape[-1:] != (len(self.permutation),):
            raise ArgumentError("sign count does not match the canonical length")
        out = np.zeros(signs.shape[:-1] + (self.n_original,), dtype=int)
        out[..., list(self.permutation)] = self.sign * signs
        return out


def canonicalize(dq: OneForm) -> CanonicalForm:
    """Drop zero coefficients, sort by descending magnitude, scale the
    leader to +1.

    Ties in magnitude keep their original order (stable sort), which
    makes the reduction deterministic without preferring any particular
    equally-valid ordering.
    """
    comps = dq.components
    kept = np.flatnonzero(comps != 0.0)
    if kept.size == 0:
        raise ArgumentError("cannot canonicalize the zero form")
    order = kept[np.argsort(-np.abs(comps[kept]), kind="stable")]
    lead = comps[order[0]]
    sign = 1 if lead > 0 else -1
    scale = abs(float(lead))
    canonical = comps[order] / lead
    canonical[0] = 1.0
    return CanonicalForm(
        permutation=tuple(order.tolist()),
        scale=scale,
        sign=sign,
        canonical=OneForm(canonical),
        n_original=comps.size,
    )
