"""Explicit measurement protocols saturating the process bound.

Every saturating measurement here reads Schroedinger cats, and
:func:`_cat_branch` builds every cat branch from any two orthonormal
vectors a, b: prepare (a + b)/sqrt2 and read the conjugate pair
(a +/- i b)/sqrt2, plus a complement outcome "null" that keeps the POVM
complete where the pair does not span the space.  Hyperface and
hyperedge branches take a, b from opposite computational basis states;
the corner strategy mixes the hyperfaces adjacent to a polytope vertex;
the ancilla ("zoo") construction spreads one protocol over many faces,
its pure and mixed variants reading every string's pair in one basis;
and the Bloch protocol is the two-outcome cat on the eigenvectors of
the target-axis spin.

Every constructor records, per branch, the linear combination of
parameters whose sine the branch reads and the coefficient with which
that readout enters the target, which is all an estimator downstream
needs.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import product

import numpy as np

from .errors import ArgumentError, InvariantViolation, UnsupportedProtocolError
from .families import (
    BlochFamily,
    EpsilonPairFamily,
    PauliZFamily,
    ProcessFamily,
    cross_polytope_decomposition,
)
from .operators import (
    SIGMA_X,
    SIGMA_Y,
    DensityOperator,
    HermitianOperator,
    Povm,
    PureState,
    _frozen,
    matrix_to_pairs,
    outcome_distribution,
    tensor,
)
# DEFAULT_P_FLOOR, the probability floor protocol_fisher applies, is
# re-exported for callers that report it.
from .qfisher import DEFAULT_P_FLOOR, classical_fisher, qubit_basis  # noqa: F401
from .tangent import FisherMatrix, OneForm, TangentVector, canonicalize, pair

WEIGHT_SUM_TOL = 1e-12
WEIGHT_FLOOR = 1e-15
DEFAULT_STEP = 1e-5


@dataclass(frozen=True)
class SignString:
    """A string over {+1, 0, -1} labeling faces and edges of the cross-polytope."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        if not entries:
            raise ArgumentError("sign string must be nonempty")
        if any(e not in (-1, 0, 1) for e in entries):  # before int(), which truncates 1.9 to 1
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
        return "".join("+" if e > 0 else "-" if e < 0 else "0" for e in self.entries)


@dataclass(frozen=True)
class Branch:
    """One deterministic protocol inside a probabilistic mixture.

    ``readout_form`` is the combination s of parameters whose sine the
    branch estimates; ``estimator_weight`` is the coefficient of s in the
    target, so that the target decomposes as sum_n estimator_weight_n s_n
    across branches.
    """

    weight: float
    fiducial: PureState | DensityOperator
    measurement: Povm
    readout_form: OneForm | None = None
    estimator_weight: float | None = None
    sign_string: SignString | None = None

    def __post_init__(self):
        if not (0.0 <= self.weight <= 1.0 + 1e-12):
            raise ArgumentError(f"branch weight {self.weight!r} outside [0, 1]")
        if self.fiducial.dim != self.measurement.dim:
            raise ArgumentError("branch state and measurement dimensions differ")


@dataclass(frozen=True)
class Protocol:
    """A probabilistic mixture of preparation/measurement branches."""

    kind: str
    branches: tuple[Branch, ...]
    family_dim: int

    def __post_init__(self):
        if not self.branches:
            raise ArgumentError("protocol needs at least one branch")
        total = sum(branch.weight for branch in self.branches)
        if abs(total - 1.0) > WEIGHT_SUM_TOL:
            raise InvariantViolation(f"branch weights sum to {total!r}")
        for branch in self.branches:
            dim = branch.fiducial.dim
            if dim not in (self.family_dim, 2 * self.family_dim):
                raise ArgumentError(
                    f"branch dimension {dim} matches neither the family dimension "
                    f"{self.family_dim} nor its single-ancilla extension"
                )

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "family_dim": self.family_dim,
            "branches": [_branch_to_dict(branch) for branch in self.branches],
        }


def _branch_to_dict(branch: Branch) -> dict:
    if isinstance(branch.fiducial, PureState):
        fiducial = {"type": "pure", "amplitudes": matrix_to_pairs(branch.fiducial.amplitudes)[0]}
    else:
        fiducial = {"type": "mixed", "entries": matrix_to_pairs(branch.fiducial.entries)}
    return {
        "weight": float(branch.weight),
        "fiducial": fiducial,
        # row x of "vectors" holds v_x; outcome labels[x] has element v_x v_x^dag,
        # and a label after the last row names the complement I - sum_x v_x v_x^dag
        "measurement": {
            "labels": list(branch.measurement.labels),
            "vectors": matrix_to_pairs(branch.measurement.basis.T),
        },
        "readout_form": None
        if branch.readout_form is None
        else [float(x) for x in branch.readout_form.components],
        "estimator_weight": None if branch.estimator_weight is None else float(branch.estimator_weight),
        "sign_string": None if branch.sign_string is None else str(branch.sign_string),
    }


# ---------------------------------------------------------------------------
# Cat-state machinery.


def _basis_index(signs: np.ndarray) -> int:
    """Computational index of the product state with the given z signs."""
    index = 0
    for s in signs:
        index = (index << 1) | (0 if s > 0 else 1)
    return index


def _cat_columns(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The cat (a + b)/sqrt2 and its conjugate pair (a +/- i b)/sqrt2, as
    the three columns of one array."""
    return np.column_stack([a + b, a + 1j * b, a - 1j * b]) / np.sqrt(2)


def _unit_pair(dim: int, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """The computational basis vectors |i> and |j> of a dim-dimensional space."""
    a, b = np.zeros((2, dim))
    a[i] = b[j] = 1.0
    return a, b


def _cat_branch(
    a: np.ndarray,
    b: np.ndarray,
    readout: np.ndarray,
    weight: float,
    estimator_weight: float,
    sign_string: SignString | None = None,
    labels: tuple[str, ...] = ("+", "-", "null"),
) -> Branch:
    """Branch preparing (a + b)/sqrt2 and reading the conjugate pair
    (a +/- i b)/sqrt2, for any two orthonormal vectors a and b.

    Every cat branch is built here.  The default third label is the
    complement outcome "null", I minus the pair's projectors: it never
    fires for this fiducial but keeps the POVM complete.  A qubit pair
    spans its space, so the Bloch branch passes ``("+", "-")``.
    """
    columns = _cat_columns(a, b)
    return Branch(
        weight=weight,
        fiducial=PureState(columns[:, 0]),
        measurement=Povm.from_basis(columns[:, 1:], labels),
        readout_form=OneForm(readout),
        estimator_weight=estimator_weight,
        sign_string=sign_string,
    )


def _edge_branch(signs, weight: float, estimator_weight: float) -> Branch:
    """Cat branch for a face or edge string; zero slots sit in |+1>."""
    signs = np.asarray(signs, dtype=int)
    plus = _basis_index(np.where(signs == 0, 1, signs))
    minus = _basis_index(np.where(signs == 0, 1, -signs))
    return _cat_branch(
        *_unit_pair(2**signs.size, plus, minus),
        signs.astype(float),
        weight,
        estimator_weight,
        SignString(tuple(signs)),
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
    branch = _edge_branch(w.entries, weight=1.0, estimator_weight=1.0)
    return Protocol(kind="hyperedge", branches=(branch,), family_dim=2 ** len(w))


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
    canonical = canonicalize(dq)
    strings, weights = cross_polytope_decomposition(canonical.canonical.components)
    branches = []
    for k in range(strings.shape[0]):
        if weights[k] < WEIGHT_FLOOR:
            continue
        embedded = canonical.embed_signs(strings[k])
        branches.append(
            _edge_branch(
                embedded,
                weight=float(weights[k]),
                estimator_weight=float(weights[k] * canonical.scale),
            )
        )
    return Protocol(kind="corner", branches=tuple(branches), family_dim=2 ** len(dq))


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

    def fisher(self) -> FisherMatrix:
        """Closed-form information matrix delta_jk (1 - a_j^2) + a_j a_k."""
        a = self.a
        return FisherMatrix(np.diag(1.0 - a**2) + np.outer(a, a))

    @classmethod
    def for_vertex(cls, dq_canonical: np.ndarray) -> "ZooAmplitudes":
        """Marginals (1, q_2, ..., q_N) tangent at the leading vertex."""
        a = np.array(dq_canonical, dtype=float)
        a[0] = 1.0
        return cls(a)

    @classmethod
    def for_edge(cls, dq_canonical: np.ndarray, edge_size: int) -> "ZooAmplitudes":
        """Marginals 1 on the first ``edge_size`` slots, q_j beyond."""
        a = np.array(dq_canonical, dtype=float)
        a[:edge_size] = 1.0
        return cls(a)


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


def _ancilla_cat_indices(signs: tuple[int, ...]) -> tuple[int, int]:
    offset = (0 if signs[0] > 0 else 1) << len(signs)
    arr = np.array(signs, dtype=int)
    return offset + _basis_index(arr), offset + _basis_index(-arr)


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
    dim = 2 ** (n + 1)
    strings = [SignString(signs) for signs in product((1, -1), repeat=n)]
    indices = [_ancilla_cat_indices(z.entries) for z in strings]
    if variant == "branched":
        branches = tuple(
            _cat_branch(*_unit_pair(dim, *pair), np.array(z.entries, dtype=float), float(p), float(p), z)
            for z, pair, p in zip(strings, indices, probs)
            if p >= WEIGHT_FLOOR
        )
        return Protocol(kind="zoo", branches=branches, family_dim=2**n)
    if variant not in ("pure", "mixed"):
        raise ArgumentError(f"unknown zoo variant {variant!r}")
    cats = [_cat_columns(*_unit_pair(dim, *pair)) for pair in indices]
    labels = [f"{z}:{outcome}" for z in strings for outcome in "+-"]
    povm = Povm.from_basis(np.hstack([c[:, 1:] for c in cats]), labels)
    if variant == "pure":
        amplitudes = np.zeros(dim, dtype=complex)
        # no two strings share a slot, so each pair is set once to sqrt(p/2)
        amplitudes[np.array(indices)] = np.sqrt(probs / 2)[:, None]
        fiducial = PureState(amplitudes / np.linalg.norm(amplitudes))
    else:
        fiducial = DensityOperator(sum(p * np.outer(c[:, 0], c[:, 0].conj()) for c, p in zip(cats, probs)))
    branch = Branch(weight=1.0, fiducial=fiducial, measurement=povm)
    return Protocol(kind=f"zoo-{variant}", branches=(branch,), family_dim=2**n)


# ---------------------------------------------------------------------------
# Bloch-sphere protocol.


def bloch_protocol(dq: OneForm) -> Protocol:
    """Single-qubit interferometry along the target rotation axis.

    The fiducial is the equal superposition of the +/- eigenstates of
    the target-axis spin; the conjugate superpositions read out the
    rotation angle along that axis, whose coefficient in the target is
    the Euclidean length of the form.
    """
    q = dq.components
    if q.size != 3:
        raise ArgumentError("the Bloch protocol lives on three rotation parameters")
    length = float(np.linalg.norm(q))
    if length == 0.0:
        raise ArgumentError("cannot build a protocol for the zero form")
    axis = q / length
    branch = _cat_branch(*qubit_basis(axis), axis, 1.0, length, labels=("+", "-"))
    return Protocol(kind="bloch", branches=(branch,), family_dim=2)


# ---------------------------------------------------------------------------
# Information matrices and saturation checks.


def branch_distribution(branch: Branch, family: ProcessFamily, theta) -> np.ndarray:
    """Exact outcome probabilities of one branch at a parameter point,
    ordered like the branch's POVM labels."""
    theta = np.asarray(theta, dtype=float).reshape(-1)
    if theta.size != family.n_params:
        raise ArgumentError("parameter point length does not match the family")
    if not np.isfinite(theta).all():
        raise ArgumentError("parameter point has non-finite entries")
    columns = family.evolve(theta, branch.fiducial.columns())
    return outcome_distribution(branch.measurement, columns)


def protocol_fisher(protocol: Protocol, family: ProcessFamily, derivative: str = "exact") -> FisherMatrix:
    """Information matrix of a protocol at the fiducial point.

    Per branch the Born vector and its Jacobian go to
    :func:`classical_fisher`, then the branch matrices are mixed with the
    branch weights.  The "exact" mode differentiates the evolved state
    directly: the derivative of exp(-i t X) psi at t = 0 is -i X psi, so
    the fiducial's columns and their images -i X_j psi_k give the exact
    Jacobian.  The "central" mode is an independent cross-check: it
    differences :func:`branch_distribution` at +/- ``DEFAULT_STEP`` along
    each parameter.  Outcomes below ``DEFAULT_P_FLOOR`` are left out.
    """
    if family.dim != protocol.family_dim:
        raise ArgumentError(
            f"protocol built for dimension {protocol.family_dim}, family has {family.dim}"
        )
    if derivative not in ("exact", "central"):
        raise ArgumentError(f"unknown derivative mode {derivative!r}")
    n = family.n_params
    total = np.zeros((n, n))
    for branch in protocol.branches:
        if derivative == "exact":
            columns = branch.fiducial.columns()
            probs, jac = branch.measurement.born(columns, -1j * family.apply(columns))
        else:
            probs = branch_distribution(branch, family, np.zeros(n))
            jac = np.column_stack(
                [
                    (branch_distribution(branch, family, shift) - branch_distribution(branch, family, -shift))
                    / (2 * DEFAULT_STEP)
                    for shift in DEFAULT_STEP * np.eye(n)
                ]
            )
        total += branch.weight * classical_fisher(probs, jac).entries
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
    branches = []
    for protocol, w in zip(protocols, weights):
        for branch in protocol.branches:
            if w * branch.weight < WEIGHT_FLOOR:
                continue
            estimator = None if branch.estimator_weight is None else float(w * branch.estimator_weight)
            branches.append(replace(branch, weight=float(w * branch.weight), estimator_weight=estimator))
    return Protocol(kind="mixture", branches=tuple(branches), family_dim=family_dim)


def kissing_residual(
    fisher: FisherMatrix, b: TangentVector, family: ProcessFamily, dq: OneForm
) -> float:
    """How far F b falls from ||b||^2 dq; zero certifies joint saturation
    of the one-from-many inequality and the process bound at b."""
    advance = pair(dq, b)
    if abs(advance - 1.0) > 1e-9:
        raise ArgumentError(f"b advances {advance!r} units of q; the check needs exactly one")
    norm = family.norm(b)
    gap = fisher.entries @ b.components - norm**2 * dq.components
    return float(np.max(np.abs(gap)))


def optimal_protocol(family: ProcessFamily, dq: OneForm) -> Protocol:
    """Saturating protocol for the family/target pair, where one is known.

    Commuting families always admit the corner mixture.  The pair family
    admits it exactly when the target kisses at a persistent cusp (the
    second-axis coefficient dominates); its smooth points, and corners of
    arbitrary custom families, have no constructive recipe here.
    """
    if isinstance(family, PauliZFamily):
        return corner_protocol(dq)
    if isinstance(family, BlochFamily):
        return bloch_protocol(dq)
    if isinstance(family, EpsilonPairFamily):
        if family.epsilon == 0.0:
            return corner_protocol(dq)
        q = dq.components
        if abs(q[0]) <= abs(q[1]):
            return corner_protocol(dq)
        raise UnsupportedProtocolError(
            "the minimizer sits on a smooth stretch of the pair family's unit "
            "surface; only its cusp protocols are constructed"
        )
    raise UnsupportedProtocolError(
        f"no constructive saturating protocol for family kind {family.kind!r}"
    )


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
