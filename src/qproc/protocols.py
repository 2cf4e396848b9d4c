"""Explicit measurement protocols saturating the process bound.

Every saturating measurement here reads Schroedinger cats, and
:func:`_cut_stack` builds every cat branch from a cut and the orthonormal
pair a, b it came from.  The optimal protocol mixes the cuts of the
minimizer's dual certificate, for every family.  Hyperface and hyperedge
branches take a, b from opposite computational basis states; the corner
strategy mixes the hyperfaces adjacent to a polytope vertex; the ancilla
("zoo") construction spreads one protocol over many faces, its pure and
mixed variants reading every string's pair in one basis; and the Bloch
protocol is the cat on the eigenvectors of the target-axis spin.

A protocol holds its branches as :class:`BranchStack` records, one per
run of like branches, which the Fisher pass, the sampler and the wire
form read row by row.  Each builder fills its stack in one go, and the
stack's constructor runs every per-branch gate once over all rows:
finiteness, unit norm (or unit trace and positivity of a mixed state),
POVM completeness, weight range and sign entries; :class:`Protocol`
checks the weight sum and the dimensions.  :class:`Branch` views of the
rows are built only on access.  Every branch records the linear
combination of parameters whose sine it reads and the coefficient with
which that readout enters the target, which is all an estimator
downstream needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ArgumentError, InvariantViolation
from .families import Certificate, NormMinimizer, ProcessFamily, polytope_certificate, string_states
from .operators import (
    SIGMA_X,
    SIGMA_Y,
    STATE_NORM_TOL,
    TRACE_TOL,
    DensityOperator,
    HermitianOperator,
    Povm,
    PureState,
    _density,
    _frozen,
    _povm_basis,
    _psd,
    born_rule,
    matrix_to_pairs,
    outcome_distribution,
    tensor,
)
# DEFAULT_P_FLOOR, the probability floor protocol_fisher applies, is
# re-exported for callers that report it.
from .qfisher import DEFAULT_P_FLOOR, _fisher_stack, classical_fisher, qubit_basis  # noqa: F401
from .tangent import FisherMatrix, OneForm, TangentVector, canonicalize, pair

WEIGHT_SUM_TOL = 1e-12
WEIGHT_FLOOR = 1e-15
DEFAULT_STEP = 1e-5
# entries the derivative stack of one chunk of stack rows may hold; a row over it runs alone
_CHUNK_ENTRIES = 8192
# the axes of each array of a BranchStack, the first running over its branches
_ROW_NDIM = {"weights": 1, "columns": 3, "bases": 3, "densities": 3, "readouts": 2, "estimator_weights": 1, "signs": 2}


def _sign_text(entries) -> str:
    return "".join("+" if e > 0 else "-" if e < 0 else "0" for e in entries)


@dataclass(frozen=True)
class SignString:
    """A string over {+1, 0, -1} labeling faces and edges of the cross-polytope."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ArgumentError("sign string must be nonempty")
        # checked before int(), which truncates 1.9 to 1; True == 1, so booleans are refused by type
        if any(isinstance(e, (bool, np.bool_)) or e not in (-1, 0, 1) for e in entries):
            raise ArgumentError("sign string entries must be -1, 0, or +1")
        object.__setattr__(self, "entries", tuple(int(e) for e in entries))

    @classmethod
    def parse(cls, value) -> "SignString":
        if isinstance(value, SignString):
            return value
        if isinstance(value, str):
            table = {"+": 1, "-": -1, "0": 0, "1": 1}
            try:
                return cls(tuple(table[ch] for ch in value))
            except KeyError as exc:
                raise ArgumentError(f"cannot parse sign string {value!r}") from exc
        return cls(tuple(value))

    @property
    def has_zeros(self) -> bool:
        return 0 in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def __str__(self) -> str:
        return _sign_text(self.entries)


@dataclass(frozen=True)
class Branch:
    """One row of a :class:`BranchStack` as objects, built on access."""

    weight: float
    fiducial: PureState | DensityOperator
    measurement: Povm
    readout_form: OneForm | None = None
    estimator_weight: float | None = None
    sign_string: SignString | None = None


@dataclass(frozen=True, kw_only=True)
class BranchStack:
    """B branches of one shape, row b of each array belonging to branch b.

    Each fiducial is held as columns psi_k (B, dim, k) with rho = sum_k
    psi_k psi_k^dag: one unit column for a pure state, while a mixed one
    also keeps the densities (B, dim, dim) its columns factor.  Each row of
    ``bases`` (B, dim, m) is a :class:`Povm` basis for the shared labels.
    A readout (B, n) is the combination s of parameters whose sine a branch
    estimates, and its estimator weight (B,) the coefficient of s in the
    target, so that the target is sum_b estimator_weight_b s_b; ``signs``
    (B, n) are face or edge strings.  Each gate runs once for the stack and
    raises the error of the per-object gate for the first failing row.
    """

    weights: np.ndarray
    columns: np.ndarray
    bases: np.ndarray
    labels: tuple[str, ...]
    densities: np.ndarray | None = None
    readouts: np.ndarray | None = None
    estimator_weights: np.ndarray | None = None
    signs: np.ndarray | None = None

    def __post_init__(self):
        weights = np.asarray(self.weights, dtype=float)
        if weights.size == 0:
            raise ArgumentError("protocol needs at least one branch")
        # a NaN weight fails the range test too
        if not (inside := (weights >= 0.0) & (weights <= 1.0 + 1e-12)).all():
            raise ArgumentError(f"branch weight {float(weights[~inside][0])!r} outside [0, 1]")
        columns = _frozen(self.columns, dtype=complex)
        bases, labels = _povm_basis(self.bases, self.labels, stacked=True)
        rows = {"weights": _frozen(weights), "columns": columns, "bases": bases}
        if self.densities is not None:
            rows["densities"] = _density(self.densities, stacked=True)
        for name, what in (("readouts", "one-form components"), ("estimator_weights", "estimator weights")):
            if getattr(self, name) is not None:
                rows[name] = _frozen(getattr(self, name), what, float)
        if self.signs is not None:
            signs = np.asarray(self.signs)
            # booleans are refused by type, as True == 1; a non-integer is refused before the cast truncates it
            if signs.dtype == bool or not ((signs == -1) | (signs == 0) | (signs == 1)).all():
                raise ArgumentError("sign string entries must be -1, 0, or +1")
            rows["signs"] = _frozen(signs, dtype=int)
        for name, value in rows.items():
            if value.ndim != _ROW_NDIM[name] or len(value) != weights.size or value.shape[-1] < 1:
                raise ArgumentError(f"{name} must hold one nonempty row per branch, got shape {value.shape}")
        if columns.shape[1] != bases.shape[1]:
            raise ArgumentError("branch state and measurement dimensions differ")
        if self.densities is not None:
            factored = columns @ np.swapaxes(columns.conj(), 1, 2)
            if factored.shape != rows["densities"].shape or np.abs(factored - rows["densities"]).max() > TRACE_TOL:
                raise ArgumentError("fiducial columns must factor their densities")
        elif columns.shape[2] != 1:
            raise ArgumentError("a pure fiducial is one column; a mixed one comes with its densities")
        elif (off := np.abs(np.sqrt((np.abs(columns) ** 2).sum(axis=(1, 2))) - 1.0) > STATE_NORM_TOL).any():
            norm = np.linalg.norm(columns[off][0])
            raise InvariantViolation(f"state norm {norm!r} deviates from 1 by more than {STATE_NORM_TOL:g}")
        object.__setattr__(self, "labels", labels)
        for name, value in rows.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return self.weights.size

    @property
    def complement(self) -> bool:
        """Whether the last label names the complement outcome I - V V^dag."""
        return len(self.labels) > self.bases.shape[2]

    def branch(self, b: int) -> Branch:
        fiducial = PureState(self.columns[b, :, 0]) if self.densities is None else DensityOperator(self.densities[b])
        return Branch(
            weight=float(self.weights[b]),
            fiducial=fiducial,
            measurement=Povm.from_basis(self.bases[b], self.labels),
            readout_form=None if self.readouts is None else OneForm(self.readouts[b]),
            estimator_weight=None if self.estimator_weights is None else float(self.estimator_weights[b]),
            sign_string=None if self.signs is None else SignString(tuple(self.signs[b])),
        )

    def wire(self, b: int) -> dict:
        """Row b in the protocol's JSON form."""
        if self.densities is None:
            fiducial = {"type": "pure", "amplitudes": matrix_to_pairs(self.columns[b, :, 0])[0]}
        else:
            fiducial = {"type": "mixed", "entries": matrix_to_pairs(self.densities[b])}
        return {
            "weight": float(self.weights[b]),
            "fiducial": fiducial,
            # row x of "vectors" holds v_x; outcome labels[x] has element v_x v_x^dag,
            # and a label after the last row names the complement I - sum_x v_x v_x^dag
            "measurement": {"labels": list(self.labels), "vectors": matrix_to_pairs(self.bases[b].T)},
            "readout_form": None if self.readouts is None else self.readouts[b].tolist(),
            "estimator_weight": None if self.estimator_weights is None else float(self.estimator_weights[b]),
            "sign_string": None if self.signs is None else _sign_text(self.signs[b]),
        }


@dataclass(frozen=True)
class Protocol:
    """A probabilistic mixture of branches, held as stacks in branch order."""

    kind: str
    stacks: tuple[BranchStack, ...]
    family_dim: int

    def __post_init__(self):
        object.__setattr__(self, "stacks", tuple(self.stacks))
        if not self.stacks:
            raise ArgumentError("protocol needs at least one branch")
        total = sum(self.weights.tolist())
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvariantViolation(f"branch weights sum to {total!r}")
        for dim in (stack.columns.shape[1] for stack in self.stacks):
            if dim not in (self.family_dim, 2 * self.family_dim):
                raise ArgumentError(
                    f"branch dimension {dim} matches neither the family dimension "
                    f"{self.family_dim} nor its single-ancilla extension"
                )

    @property
    def weights(self) -> np.ndarray:
        return np.concatenate([stack.weights for stack in self.stacks])

    @property
    def branches(self) -> tuple[Branch, ...]:
        """Every branch as a :class:`Branch` view, built on each access."""
        return tuple(stack.branch(b) for stack in self.stacks for b in range(len(stack)))

    def to_dict(self) -> dict:
        branches = [stack.wire(b) for stack in self.stacks for b in range(len(stack))]
        return {"kind": self.kind, "family_dim": self.family_dim, "branches": branches}


# ---------------------------------------------------------------------------
# Cat-state machinery.


def _cat_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cat (a + b)/sqrt2 and its conjugate pair (a +/- i b)/sqrt2 as
    the three columns (B, dim, 3) of each row of a, b (B, dim)."""
    cats = np.empty(a.shape + (3,), dtype=complex)
    ib = 1j * b
    np.add(a, b, out=cats[..., 0])
    np.add(a, ib, out=cats[..., 1])
    np.subtract(a, ib, out=cats[..., 2])
    cats /= np.sqrt(2)
    return cats


def _cut_stack(certificate: Certificate) -> BranchStack:
    """One cat branch per cut g_i of weight w_i >= WEIGHT_FLOOR: it prepares
    (t + u)/sqrt2 for the cut's pair t, u and reads (t +/- i u)/sqrt2, with
    readout form g_i and estimator weight w_i/mu.  The outcome "null", I
    minus their projectors, keeps the POVM complete; a qubit pair spans its
    space and needs none.  Sign-string cuts label their branches.  A
    branch's information matrix is g_i g_i^T at the fiducial, so the
    mixture has F b = sum_i w_i g_i (g_i.b) = mu norm(b) q where the cuts
    are tight at b: a dual certificate's kisses the unit ball there.
    """
    kept = certificate.weights >= WEIGHT_FLOOR
    cuts, weights = certificate.cuts[kept], certificate.weights[kept]
    cats = _cat_columns(*certificate.pairs[:, kept])
    return BranchStack(
        weights=weights,
        columns=cats[..., :1],
        bases=cats[..., 1:],
        labels=("+", "-") if cats.shape[1] == 2 else ("+", "-", "null"),
        readouts=cuts,
        estimator_weights=weights * certificate.inv_mu,
        signs=cuts if np.array_equal(cuts, np.sign(cuts)) else None,
    )


def hyperface_protocol(z) -> Protocol:
    """Optimal deterministic protocol for a target aligned with one face.

    Prepares the cat superposition of the two product states singled out
    by the sign string, reads it in the conjugate-cat basis, and sees
    outcome probabilities (1 +/- sin(z_j theta^j))/2, for an information
    matrix equal to the outer product of the string with itself.  A face
    string is an edge string without zeros, so the branch is hyperedge's.
    """
    z = SignString.parse(z)
    if z.has_zeros:
        raise ArgumentError("face strings contain no zeros; use hyperedge_protocol instead")
    return replace(hyperedge_protocol(z), kind="hyperface")


def hyperedge_protocol(w) -> Protocol:
    """Protocol sensitive only to the parameters on a polytope edge.

    Zero slots of the string put their qubits in the +1 eigenstate, so
    the branch reads sin(w_j theta^j) and is exactly insensitive to the
    remaining parameters.
    """
    w = SignString.parse(w)
    if all(e == 0 for e in w.entries):
        raise ArgumentError("edge string needs at least one nonzero entry")
    signs = np.array([w.entries])
    stack = _cut_stack(Certificate(signs, np.ones(1), string_states(signs)[0], 1.0))
    return Protocol(kind="hyperedge", stacks=(stack,), family_dim=2 ** len(w))


def corner_protocol(dq: OneForm) -> Protocol:
    """Probabilistic mixture saturating the bound at a polytope vertex.

    For a canonical target 1 = q_1 >= |q_2| >= ... > 0 the mixture runs
    the face adjacent to the vertex on each side, with weights
    p_1 = (1 + |q_N|)/2 and p_k = (|q_{k-1}| - |q_k|)/2, which reproduce
    the target exactly: dq = sum_k p_k dz(k).  Any other target is
    canonicalized first: zero coefficients become insensitive edge slots,
    the branch strings come back in the original indexing, and the
    estimator weights absorb the overall scale of the target.
    """
    stack = _cut_stack(polytope_certificate(canonicalize(dq)))
    return Protocol(kind="corner", stacks=(stack,), family_dim=2 ** len(dq))


# ---------------------------------------------------------------------------
# Ancilla-assisted ("zoo") protocols.


@dataclass(frozen=True)
class ZooAmplitudes:
    """Per-qubit marginals a_j of a factorized face distribution."""

    a: np.ndarray

    def __post_init__(self):
        a = _frozen(np.asarray(self.a, dtype=float).reshape(-1))
        if a.size == 0:
            raise ArgumentError("need at least one marginal")
        if np.any(np.abs(a) > 1.0 + 1e-12):
            raise InvariantViolation("marginals must lie in [-1, 1]")
        object.__setattr__(self, "a", a)

    @property
    def n(self) -> int:
        return self.a.size

    def distribution(self) -> np.ndarray:
        """Factorized probabilities p(z) = prod_j (1 + a_j z_j)/2 of the full
        sign strings z, in ``product((1, -1), repeat=n)`` order."""
        strings = product((1, -1), repeat=self.n)
        return np.array([np.prod([(1 + aj * zj) / 2 for aj, zj in zip(self.a, z)]) for z in strings])


def _zoo_distribution(weights, n_params: int | None) -> np.ndarray:
    """Checked probabilities of the full sign strings, in ``product((1, -1))``
    order; a dict reads the strings it leaves out as probability 0."""
    if isinstance(weights, ZooAmplitudes):
        probs = weights.distribution()
    elif isinstance(weights, dict):
        if not weights:
            raise ArgumentError("zoo distribution is empty")
        table = {SignString.parse(key).entries: float(value) for key, value in weights.items()}
        n = len(next(iter(table)))
        if any(len(s) != n or 0 in s for s in table):
            raise ArgumentError("zoo distributions run over full sign strings of one length")
        probs = np.array([table.get(s, 0.0) for s in product((1, -1), repeat=n)])
    else:
        probs = np.asarray(weights, dtype=float).reshape(-1)
        if probs.size < 2:
            raise ArgumentError("zoo distribution needs the 2^N strings of some N >= 1")
        if n_params is None:
            n_params = int(np.round(np.log2(probs.size)))
        if probs.size != 2**n_params:
            raise ArgumentError("distribution length must be 2^N over full sign strings")
    if not np.isfinite(probs).all():
        raise ArgumentError("zoo distribution has non-finite weights")
    if np.any(probs < -1e-15):
        raise ArgumentError("zoo distribution has negative weights")
    probs = np.clip(probs, 0.0, None)
    if abs(probs.sum() - 1.0) > 1e-12:
        raise ArgumentError(f"zoo distribution sums to {probs.sum()!r}")
    return probs


def zoo_protocol(weights, n_params: int | None = None, variant: str = "branched") -> Protocol:
    """Ancilla-assisted protocol spreading one measurement over many faces.

    ``weights`` is a distribution over full sign strings (dict, flat
    array, or factorized ZooAmplitudes).  The default "branched" variant
    exposes one branch per string, which is what sampling and estimation
    consume; "pure" builds the single entangled-ancilla preparation and
    "mixed" its decohered counterpart, both measured in the shared
    ancilla-tagged basis.  All three give the same information matrix.
    """
    probs = _zoo_distribution(weights, n_params)
    n = probs.size.bit_length() - 1
    signs = np.array(list(product((1, -1), repeat=n)))
    states, indices = string_states(signs, ancilla=True)
    if variant == "branched":
        stack = _cut_stack(Certificate(signs, probs, states, 1.0))
        return Protocol(kind="zoo", stacks=(stack,), family_dim=2**n)
    if variant not in ("pure", "mixed"):
        raise ArgumentError(f"unknown zoo variant {variant!r}")
    cats = _cat_columns(*states)
    labels = [f"{_sign_text(z)}:{outcome}" for z in signs for outcome in "+-"]
    basis = np.swapaxes(cats[..., 1:], 0, 1).reshape(2 * len(probs), -1)
    if variant == "pure":
        amplitudes = np.zeros(2 * len(probs), dtype=complex)
        # no two strings share a slot, so each pair is set once to sqrt(p/2)
        amplitudes[indices.T] = np.sqrt(probs / 2)[:, None]
        columns, densities = (amplitudes / np.linalg.norm(amplitudes))[:, None], None
    else:
        rho = DensityOperator(sum(p * np.outer(c, c.conj()) for c, p in zip(cats[..., 0], probs)))
        columns, densities = rho.columns(), rho.entries[None]
    stack = BranchStack(weights=[1.0], columns=columns[None], bases=basis[None], labels=labels, densities=densities)
    return Protocol(kind=f"zoo-{variant}", stacks=(stack,), family_dim=2**n)


# ---------------------------------------------------------------------------
# Bloch-sphere protocol.


def bloch_protocol(dq: OneForm) -> Protocol:
    """Single-qubit interferometry along the target rotation axis.

    The fiducial is the equal superposition of the +/- eigenstates of
    the target-axis spin; the conjugate superpositions read out the
    rotation angle along that axis, whose coefficient in the target is
    the Euclidean length of the form: the one-cut certificate of the norm.
    """
    q = dq.components
    if q.size != 3:
        raise ArgumentError("the Bloch protocol lives on three rotation parameters")
    length = float(np.linalg.norm(q))
    if length == 0.0:
        raise ArgumentError("cannot build a protocol for the zero form")
    axis = q / length
    stack = _cut_stack(Certificate(axis[None], np.ones(1), np.swapaxes(qubit_basis(axis[None]), 0, 1), length))
    return Protocol(kind="bloch", stacks=(stack,), family_dim=2)


# ---------------------------------------------------------------------------
# Information matrices and saturation checks.


def branch_distribution(stack: BranchStack, family: ProcessFamily, theta) -> np.ndarray:
    """Exact outcome probabilities (B, outcomes) of the stack's branches at a
    parameter point, each row ordered like the stack's labels."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != family.n_params:
        raise ArgumentError("parameter point length does not match the family")
    if not np.isfinite(theta).all():
        raise ArgumentError("parameter point has non-finite entries")
    return outcome_distribution(stack.bases, family.evolve(theta, stack.columns), stack.complement)


def protocol_fisher(protocol: Protocol, family: ProcessFamily, derivative: str = "exact") -> FisherMatrix:
    """Information matrix of a protocol at the fiducial point.

    Per branch the Born vector and its Jacobian give a Fisher matrix, and
    these are mixed with the branch weights in branch order.  The "exact"
    mode differentiates the evolved state: the derivative of exp(-i t X) psi
    at t = 0 is -i X psi.  It runs each stack as one pass per chunk of rows
    whose derivatives keep within ``_CHUNK_ENTRIES``, with one positivity
    eigen-solve per stack.  The "central" mode is an independent cross-check:
    it differences :func:`branch_distribution` at +/- ``DEFAULT_STEP`` along
    each parameter.  Outcomes below ``DEFAULT_P_FLOOR`` are left out.
    """
    if family.dim != protocol.family_dim:
        raise ArgumentError(f"protocol built for dimension {protocol.family_dim}, family has {family.dim}")
    if derivative not in ("exact", "central"):
        raise ArgumentError(f"unknown derivative mode {derivative!r}")
    n = family.n_params
    total = np.zeros((n, n))
    for stack in protocol.stacks:
        if derivative == "exact":
            fishers = []
            size = max(1, _CHUNK_ENTRIES // (n * stack.columns[0].size))
            for rows in (slice(start, start + size) for start in range(0, len(stack), size)):
                # -i X_j psi_k scaled in place and dropped after use, so one derivative stack is alive
                derivatives = family.apply(stack.columns[rows])
                derivatives *= -1j
                born = born_rule(stack.bases[rows], stack.columns[rows], derivatives, stack.complement)
                fishers.append(_fisher_stack(*born))
                del derivatives
            fishers = np.concatenate(fishers)
            _psd(fishers, "Fisher matrix")
        else:
            shifts = DEFAULT_STEP * np.eye(n)
            probs = branch_distribution(stack, family, np.zeros(n))
            diffs = [branch_distribution(stack, family, s) - branch_distribution(stack, family, -s) for s in shifts]
            jacobians = np.stack(diffs, axis=-1) / (2 * DEFAULT_STEP)
            fishers = [classical_fisher(p, jac).entries for p, jac in zip(probs, jacobians)]
        for weight, fisher in zip(stack.weights, fishers):
            total += weight * fisher
    return FisherMatrix(total)


def mixture(protocols: list[Protocol], weights) -> Protocol:
    """Probabilistic combination of protocols; information mixes linearly."""
    weights = np.asarray(weights, dtype=float).reshape(-1)
    if weights.size != len(protocols) or not protocols:
        raise ArgumentError("need one weight per protocol")
    if np.any(weights < 0) or abs(weights.sum() - 1.0) > WEIGHT_SUM_TOL:
        raise ArgumentError("mixture weights must be a distribution")
    family_dim = protocols[0].family_dim
    if any(p.family_dim != family_dim for p in protocols):
        raise ArgumentError("mixture components must share the family dimension")
    runs = []  # [(labels, row shapes), rows] per run of like branches, in branch order
    for protocol, w in zip(protocols, weights):
        for stack in protocol.stacks:
            kept = w * stack.weights >= WEIGHT_FLOOR
            rows = {name: getattr(stack, name)[kept] for name in _ROW_NDIM if getattr(stack, name) is not None}
            for name in {"weights", "estimator_weights"} & rows.keys():
                rows[name] = w * rows[name]
            shape = (stack.labels, [(name, value.shape[1:]) for name, value in rows.items()])
            if runs and runs[-1][0] == shape:
                runs[-1][1] = {name: np.concatenate([runs[-1][1][name], value]) for name, value in rows.items()}
            elif kept.any():
                runs.append([shape, rows])
    stacks = tuple(BranchStack(labels=shape[0], **rows) for shape, rows in runs)
    return Protocol(kind="mixture", stacks=stacks, family_dim=family_dim)


def kissing_residual(fisher: FisherMatrix, b: TangentVector, family: ProcessFamily, dq: OneForm) -> float:
    """How far F b falls from ||b||^2 dq; zero certifies joint saturation
    of the one-from-many inequality and the process bound at b."""
    advance = pair(dq, b)
    if abs(advance - 1.0) > 1e-9:
        raise ArgumentError(f"b advances {advance!r} units of q; the check needs exactly one")
    norm = family.norm(b)
    gap = fisher.entries @ b.components - norm**2 * dq.components
    return float(np.max(np.abs(gap)))


def optimal_protocol(minimizer: NormMinimizer) -> Protocol:
    """Saturating protocol of any family: the cat readouts of the unit
    ball's supporting planes at the minimizer, the cuts of its certificate."""
    certificate = minimizer.certificate
    return Protocol(kind="optimal", stacks=(_cut_stack(certificate),), family_dim=certificate.pairs.shape[-1])


# ---------------------------------------------------------------------------
# Local parity realization of the conjugate-cat measurement.


def parity_operator(n_qubits: int) -> HermitianOperator:
    """Product observable whose eigenbasis realizes the conjugate-cat
    measurement locally: all-y for odd registers, y...yx for even ones."""
    if n_qubits < 1:
        raise ArgumentError("need at least one qubit")
    ops = [HermitianOperator(SIGMA_Y)] * n_qubits
    if n_qubits % 2 == 0:
        ops[-1] = HermitianOperator(SIGMA_X)
    return tensor(ops)


def parity_eigenvalue(z, branch_sign: int) -> int:
    """Parity eigenvalue of the conjugate-cat state for outcome +/-."""
    z = SignString.parse(z)
    if z.has_zeros:
        raise ArgumentError("parity eigenvalues are defined for full sign strings")
    if branch_sign not in (1, -1):
        raise ArgumentError("branch sign must be +1 or -1")
    n = len(z)
    if n % 2 == 1:
        value = -branch_sign * (-1) ** ((n + 1) // 2) * int(np.prod(z.entries))
    else:
        value = -branch_sign * (-1) ** (n // 2) * int(np.prod(z.entries[:-1]))
    return int(value)
