"""Process families, the process norm, and its dual.

For a unitary family the norm of a direction b is the spectral spread of
the generator b^j X_j; its unit ball is a cross-polytope for commuting
Pauli-z generators, the Euclidean ball for the single-qubit Bloch
family, and develops rounded sides with persistent cusps for the
partially commuting pair family.  The dual norm of the target form gives
the attainable variance bound, reached by the shortest vector advancing
one unit of the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ArgumentError,
    ConvergenceError,
    InvariantViolation,
    ResourceLimitError,
    UnboundedVarianceError,
    UnsupportedDimensionError,
)
from .operators import SIGMA_X, SIGMA_Y, SIGMA_Z, HermitianOperator, max_dim, pauli_z_diagonal
from .qfisher import bloch_direction_grid
from .tangent import CanonicalForm, OneForm, TangentVector, canonicalize, pair

# Cutting planes stop once the best norm is within GAP_TOL (relative) of
# the certified lower bound; one cut proves it alone where it is parallel
# to q within ALIGN_TOL of each generator's Frobenius norm.  Newton points
# need end eigenvalues split by more than SIMPLE_TOL of the spread; at most
# POLISH_STEPS of them may promise a fall below GAP_TOL of it.
GAP_TOL = 1e-12
SIMPLE_TOL = 1e-9
POLISH_STEPS = 3
ALIGN_TOL = 1e-12
MAX_CUTS = 1000
MAX_PIVOTS = 10000
PIVOT_TOL = 1e-14
UNSEEN_TOL = 1e-12
CERTIFICATE_TOL = 1e-10  # the rounding to which check_certificate holds a certificate
# the dual norms whose square, the variance bound, is a finite normal float
MAX_DUAL_NORM = float(np.sqrt(np.finfo(float).max))
MIN_DUAL_NORM = float(np.sqrt(np.finfo(float).tiny))
# the generator entries (64 MB) that one batched norm of a mesh may hold
MESH_ENTRIES = 2**22


class ProcessFamily:
    """A parametrized unitary family given by its Hamiltonian generators.

    ``apply`` and ``evolve`` act on state columns, an array of shape
    (dim, k) or, on the single-ancilla lift, (2 dim, k) with the ancilla
    as the leading qubit; leading axes stack several such arrays.
    """

    kind = "custom-unitary"

    def __init__(self, generators: list[HermitianOperator]):
        if not generators:
            raise ArgumentError("a process family needs at least one generator")
        dim = generators[0].dim
        if any(gen.dim != dim for gen in generators):
            raise InvariantViolation("family generators must share one dimension")
        cap = max_dim()
        if dim > cap:
            raise ResourceLimitError(f"generator dimension {dim} exceeds the cap {cap}")
        # X_j = T_j + shift_j I, T_j traceless and exactly Hermitian: real combinations
        # of the T_j have the spread and eigenvectors of b^j X_j without the digits
        # a large trace costs, and the shift adds only a global phase to evolution.
        # each (X^dag + X)/2 is built in its slot: no second stack, nor generator, is alive
        self._stack = np.empty((len(generators), dim, dim), dtype=complex)
        for gen, part in zip(generators, self._stack):
            np.multiply(0.5, np.add(np.conj(gen.entries.T, out=part), gen.entries, out=part), out=part)
        self._shift = np.trace(self._stack, axis1=1, axis2=2).real / dim
        self._stack[:, np.arange(dim), np.arange(dim)] -= self._shift[:, None]

    @property
    def n_params(self) -> int:
        return self._stack.shape[0]

    @property
    def dim(self) -> int:
        return self._stack.shape[-1]

    def _combination(self, b) -> np.ndarray:
        """b^j T_j, the combination of the stored stack; one per row of a 2-D b."""
        comps = _components(b)
        if comps.shape[-1] != self.n_params:
            raise ArgumentError(f"direction length {comps.shape[-1]} != parameter count {self.n_params}")
        return np.tensordot(comps, self._stack, axes=1)

    def generator(self, b) -> HermitianOperator:
        """The change generator Y = b^j X_j for a tangent direction b."""
        comps = _components(b)
        return HermitianOperator(self._combination(comps) + (comps @ self._shift) * np.eye(self.dim))

    def norm(self, b) -> float | np.ndarray:
        """Process norm of the direction: spectral spread of its generator.
        A (P, n_params) array of directions gives their P norms from one
        batched eigen-solve."""
        eigs = np.linalg.eigvalsh(self._combination(b))
        spread = eigs[..., -1] - eigs[..., 0]
        return spread if spread.ndim else float(spread)

    def _blocks(self, states) -> np.ndarray:
        """State columns (..., rows, k) as (..., 1 generator, ancilla, dim, k) blocks."""
        states = np.asarray(states, dtype=complex)
        if states.ndim < 2 or states.shape[-2] not in (self.dim, 2 * self.dim):
            raise ArgumentError(
                f"state columns of shape {states.shape} fit neither the family dimension "
                f"{self.dim} nor its single-ancilla extension"
            )
        return states.reshape(states.shape[:-2] + (1, -1, self.dim, states.shape[-1]))

    def apply(self, states) -> np.ndarray:
        """X_j psi for every generator j, shape (..., n_params, rows, k) for states (..., rows, k)."""
        blocks = self._blocks(states)
        out = self._stack[:, None] @ blocks + self._shift[:, None, None, None] * blocks
        return out.reshape(out.shape[:-4] + (self.n_params,) + np.shape(states)[-2:])

    def evolve(self, theta, states) -> np.ndarray:
        """exp(-i theta^j X_j) psi, via the eigendecomposition of b^j T_j and a global phase."""
        blocks = self._blocks(states)
        comps = _components(theta)
        eigs, vecs = np.linalg.eigh(self._combination(comps))
        out = vecs @ (np.exp(-1j * (eigs + comps @ self._shift))[:, None] * (vecs.conj().T @ blocks))
        return out.reshape(np.shape(states))

    def describe(self) -> dict:
        return {"kind": self.kind, "n_params": self.n_params, "dim": self.dim}


class PauliZFamily(ProcessFamily):
    """Commuting z rotations on independent qubits; the norm is the 1-norm.

    The generators are held as their (n_qubits, 2^n_qubits) diagonal, so
    ``apply`` and ``evolve`` are elementwise products.
    """

    kind = "pauli-z"

    def __init__(self, n_qubits: int):
        self._stack = pauli_z_diagonal(n_qubits)
        self.n_qubits = n_qubits

    def generator(self, b) -> HermitianOperator:
        return HermitianOperator(np.diag(self._combination(b)).astype(complex))

    def norm(self, b) -> float | np.ndarray:
        comps = _components(b)
        if comps.shape[-1] != self.n_params:
            raise ArgumentError("direction length does not match qubit count")
        norms = np.abs(comps).sum(axis=-1)
        return norms if norms.ndim else float(norms)

    def apply(self, states) -> np.ndarray:
        blocks = self._blocks(states)
        out = self._stack[:, None, :, None] * blocks
        return out.reshape(out.shape[:-4] + (self.n_params,) + np.shape(states)[-2:])

    def evolve(self, theta, states) -> np.ndarray:
        blocks = self._blocks(states)
        phases = np.exp(-1j * self._combination(theta))
        return (phases[:, None] * blocks).reshape(np.shape(states))


class BlochFamily(ProcessFamily):
    """All rotations of a single qubit; the norm is the Euclidean length."""

    kind = "bloch"

    def __init__(self):
        super().__init__(
            [
                HermitianOperator(0.5 * SIGMA_X),
                HermitianOperator(0.5 * SIGMA_Y),
                HermitianOperator(0.5 * SIGMA_Z),
            ]
        )


class EpsilonPairFamily(ProcessFamily):
    """Two-qubit pair whose generators fail to commute by a tunable amount.

    At epsilon = 0 the unit ball is the cross-polytope of the commuting
    case; growing epsilon rounds the two side corners while the cusps on
    the second axis persist.
    """

    kind = "epsilon-pair"

    def __init__(self, epsilon: float):
        if epsilon < 0:
            raise ArgumentError("epsilon must be nonnegative")
        self.epsilon = float(epsilon)
        eye = np.eye(2, dtype=complex)
        first = np.kron(0.5 * SIGMA_Z, eye) + np.sqrt(2 * self.epsilon) * np.kron(eye, 0.5 * SIGMA_X)
        second = np.kron(eye, 0.5 * SIGMA_Z)
        super().__init__([HermitianOperator(first), HermitianOperator(second)])


def _components(b) -> np.ndarray:
    """The components of a direction; the rows of a 2-D array are directions."""
    if isinstance(b, (TangentVector, OneForm)):
        return b.components
    comps = np.asarray(b, dtype=float)
    return comps if comps.ndim == 2 else comps.reshape(-1)


def string_states(signs: np.ndarray, ancilla: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """The one-hot states |z> and |-z> (2, B, 2^(n + ancilla)) of the rows z
    of ``signs`` (B, n), zero slots read as +1, and their indices (2, B):
    qubit j's bit is 1 where its sign is -1; ``ancilla`` prepends a qubit
    that records the string's first sign."""
    n = signs.shape[1]
    bits = 1 << np.arange(n - 1, -1, -1)
    indices = np.array([(signs < 0) @ bits, (signs > 0) @ bits])
    if ancilla:
        indices += (signs[:, 0] < 0).astype(int) << n
    states = np.zeros((2, len(signs), 2 ** (n + ancilla)))
    rows = np.arange(len(signs))
    states[0, rows, indices[0]] = states[1, rows, indices[1]] = 1.0
    return states, indices


@dataclass(frozen=True)
class Certificate:
    """Cuts g_i (C, n) with weights w_i (C,), g_j = <t|X_j|t> - <u|X_j|u> for
    the unit pair t, u = pairs[:, i] (2, C, dim), so g_i.b <= norm(b).  In a
    dual certificate w_i > 0, sum_i w_i = 1 and sum_i w_i g_i = mu q with
    ``inv_mu`` = 1/mu, so every b with q.b = 1 has norm(b) >= mu."""

    cuts: np.ndarray
    weights: np.ndarray
    pairs: np.ndarray
    inv_mu: float


def polytope_certificate(canonical: CanonicalForm) -> Certificate:
    """The commuting family's certificate at the cross-polytope's vertex.

    For the canonical form c (1 = c_1 >= |c_2| >= ... > 0) the cuts are the
    faces adjacent to the leading vertex, sign strings z^(k) with weights
    p_k and sum_k p_k z^(k) = c: the first string takes the signs of c,
    string k flips every sign from slot k onward, and p_1 = (1 + |c_m|)/2,
    p_k = (|c_{k-1}| - |c_k|)/2.  Those of positive weight come back in the
    original indexing, each the cut of the pair |z>, |-z>.
    """
    c = canonical.canonical.components
    mags = np.abs(c)
    weights = np.empty(c.size)
    weights[0] = 0.5 * (1.0 + mags[-1])
    weights[1:] = 0.5 * (mags[:-1] - mags[1:])
    kept = np.flatnonzero(weights > 0.0)
    # string k >= 1 flips slots k onward: slot j flips in the strings 1..j
    flips = (np.arange(c.size) >= kept[:, None]) & (kept[:, None] > 0)
    cuts = canonical.embed_signs(np.where(flips, -1, 1) * np.where(c >= 0, 1, -1))
    return Certificate(cuts, weights[kept], string_states(cuts)[0], canonical.scale)


def check_certificate(family: ProcessFamily, dq: OneForm, minimizer: "NormMinimizer") -> bool:
    """Whether the minimizer's certificate proves its norm, each cut recomputed
    through ``family.apply`` from its pair: unit pairs, w_i >= 0, sum_i w_i =
    1 and sum_i w_i g_i = mu q to rounding, and norm - mu <= GAP_TOL norm."""
    cert = minimizer.certificate
    expect = (cert.pairs.conj()[:, :, None, None] @ family.apply(cert.pairs[..., None]))[..., 0, 0].real
    residual = cert.weights @ (expect[0] - expect[1]) - dq.components / cert.inv_mu
    # the rounding of each sum scales with the expectations it differences
    rounding = CERTIFICATE_TOL * np.max(cert.weights @ np.abs(expect).sum(axis=0))
    return bool(
        np.all(np.abs(np.linalg.norm(cert.pairs, axis=-1) - 1.0) <= CERTIFICATE_TOL)
        and cert.weights.min() >= 0.0
        and abs(cert.weights.sum() - 1.0) <= CERTIFICATE_TOL
        and np.all(np.abs(residual) <= rounding)
        and minimizer.gap <= GAP_TOL * minimizer.norm
    )


@dataclass(frozen=True)
class NormMinimizer:
    """Shortest direction advancing one unit of the target, and the bound.

    ``dual_norm`` squared is the attainable variance bound per
    interaction.  The ``certificate``, never printed, proves norm(b) >=
    norm - gap for every b with q.b = 1 (gap 0.0 on the polytope path).
    ``at_corner`` holds where it needs more than one cut: a kink of the
    unit surface, where saturating measurements must be mixed
    probabilistically, and its cuts there are the ``adjacent_faces``.
    """

    vector: TangentVector
    norm: float
    certificate: Certificate

    @property
    def at_corner(self) -> bool:
        return len(self.certificate.weights) > 1

    @property
    def dual_norm(self) -> float:
        return 1.0 / self.norm

    @property
    def gap(self) -> float:
        return max(self.norm - 1.0 / self.certificate.inv_mu, 0.0)

    @property
    def adjacent_faces(self) -> list | None:
        return self.certificate.cuts.tolist() if self.at_corner else None

    def __post_init__(self):
        if not MIN_DUAL_NORM <= self.dual_norm < MAX_DUAL_NORM:
            flows = "underflows" if self.dual_norm < MIN_DUAL_NORM else "overflows"
            raise ArgumentError(
                f"the variance bound {self.dual_norm:.3e}^2 {flows} a float; rescale the target or the generators"
            )


def minimize_norm(family: ProcessFamily, dq: OneForm) -> NormMinimizer:
    """Minimize the process norm over the plane of unit advance in q.

    The commuting family has its closed form at the cross-polytope's
    vertex.  Every other family, named or custom, runs cutting planes
    (``_numeric_minimizer``) until the best norm found is within GAP_TOL
    (relative) of the lower bound its certificate proves.
    UnboundedVarianceError flags a target the process cannot see;
    ConvergenceError a singular or non-finite solve or, carrying the best
    point as ``best``, a gap left open by MAX_CUTS rounds or a repeated point.
    """
    q = dq.components
    if q.size != family.n_params:
        raise ArgumentError("form length does not match the family parameter count")
    if not np.any(q != 0.0):
        raise ArgumentError("cannot minimize against the zero form")

    if isinstance(family, PauliZFamily):
        result = _polytope_minimizer(q)
    else:
        try:
            result = _numeric_minimizer(family, q)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError(f"cutting planes met a singular or non-finite solve: {exc}") from exc
    advance = pair(dq, result.vector)
    if abs(advance - 1.0) > 1e-9:
        raise InvariantViolation(f"minimizer advances {advance!r} units of the target, not one")
    return result


def _polytope_minimizer(q: np.ndarray) -> NormMinimizer:
    canonical = canonicalize(OneForm(q))
    vec = np.zeros(q.size)
    vec[canonical.permutation[0]] = canonical.sign / canonical.scale
    return NormMinimizer(TangentVector(vec), 1.0 / canonical.scale, polytope_certificate(canonical))


def dual_norm(family: ProcessFamily, dq: OneForm) -> float:
    """Dual process norm of the target form; zero for the zero form."""
    if not np.any(dq.components != 0.0):
        return 0.0
    return minimize_norm(family, dq).dual_norm


# ---------------------------------------------------------------------------
# Numerical minimization over the constraint plane.


def _visible_plane(stack: np.ndarray, scale: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Orthonormal directions of the plane q.b = 1 that the process can see.

    ``stack`` holds the traceless generators and ``scale`` the norms of the
    full ones.  Along their null space U, b^j X_j gains only a multiple of
    the identity and its spread does not move.  A target with a component
    in U is advanced at zero norm, so its variance is unbounded; otherwise
    the search runs orthogonal to q and U.  Each generator enters the rank
    test over its own norm, so one far smaller than the rest is still seen.
    """
    scale = np.where(scale > 0, scale, 1.0)
    rows = stack.reshape(stack.shape[0], -1) / scale[:, None]
    flat = np.hstack([rows.real, rows.imag])
    # the (2 dim^2)^2 right factor is never read; u stays square to span the whole null space
    u, s, _ = np.linalg.svd(flat, full_matrices=flat.shape[0] > flat.shape[1])
    rank = int(np.sum(s > s[0] * max(rows.shape) * np.finfo(float).eps))
    unseen = np.linalg.qr(u[:, rank:] / scale[:, None])[0]
    if np.linalg.norm(unseen.T @ q) > UNSEEN_TOL * np.linalg.norm(q):
        raise UnboundedVarianceError(
            "the target has a component on which every generator acts as a multiple of "
            "the identity; it is invisible to the process and its variance is unbounded"
        )
    _, _, vt = np.linalg.svd(np.vstack([q, unseen.T]))
    return vt[1 + unseen.shape[1] :].T


def _cut(stack: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The norm at b and its cut g_j = <top|X_j|top> - <bottom|X_j|bottom>,
    with g.b' <= norm(b') for every b', equality at b; then the spectrum of
    b^j X_j, the rows <end|X_j|v> (n, 2, dim) of its ends (top, bottom)
    against every eigenvector v, and the end columns (dim, 2)."""
    eigs, vecs = np.linalg.eigh((b @ stack.reshape(b.size, -1)).reshape(stack.shape[1:]))
    ends = vecs[:, [-1, 0]]
    rows = ends.conj().T @ stack @ vecs
    return float(eigs[-1] - eigs[0]), rows[:, 0, -1].real - rows[:, 1, 0].real, eigs, rows, ends


def _newton_point(step: np.ndarray, plane_gram: np.ndarray, g: np.ndarray, eigs: np.ndarray, rows: np.ndarray):
    """The step d on the plane to the minimizer of the spread's quadratic
    model at a point with cut g, spectrum eigs and rows <end|X_j|v>, and
    the fall it promises; None where the model is refused.

    The model holds where the top and bottom eigenvalues are simple:
    second-order perturbation theory gives the Hessian
    H_ab = 2 Re sum_m <t|X_a|m><m|X_b|t> / (l_t - l_m) for the top t,
    plus the mirrored sum for the bottom.  It is refused unless step^T H
    step is positive definite, its solve regular, and the step moves
    b^j X_j, in Frobenius norm sqrt(d^T plane_gram d), by less than the gap
    between an end eigenvalue and its neighbour (an overflowing move is
    refused).
    """
    above, below = eigs[-1] - eigs[:-1], eigs[1:] - eigs[0]
    split = min(above[-1], below[0])
    if split <= SIMPLE_TOL * (eigs[-1] - eigs[0]):
        return None
    top, bottom = rows[:, 0, :-1], rows[:, 1, 1:]
    hessian = 2.0 * ((top / above) @ top.conj().T + (bottom / below) @ bottom.conj().T).real
    curvature = step.T @ hessian @ step
    grad = step.T @ g
    try:
        np.linalg.cholesky(curvature)
        d = -np.linalg.solve(curvature, grad)
    except np.linalg.LinAlgError:
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        if not d @ plane_gram @ d <= split**2:
            return None
    return d, -0.5 * grad @ d


def _master_dual(columns: np.ndarray, costs: np.ndarray, basis: np.ndarray):
    """Maximize costs.x over x >= 0 with columns @ x = e_0, by revised simplex.

    Each pivot solves with the basis columns of the original matrix; the
    lowest index with a positive reduced cost enters, and the ratio test is
    lexicographic over the columns of the inverse basis, x the first, with
    ties up to rounding, so degenerate weights that are rounding noise
    cannot make a basis repeat.  Returns the optimal basis, its weights x and
    the multipliers y, which solve the LP dual min y_0 s.t. columns^T y >=
    costs.  A cut (first-row) weight that an ill-conditioned basis leaves
    below zero past rounding is raised by dual simplex pivots, where some
    column can raise it.  ConvergenceError flags a non-finite solve, before
    reduced costs are formed from it.
    """
    rhs = np.eye(columns.shape[0])[0]
    abs_costs, abs_columns = np.abs(costs), np.abs(columns)
    for _ in range(MAX_PIVOTS):
        square = columns[:, basis]
        x = np.linalg.solve(square, rhs)
        y = np.linalg.solve(square.T, costs[basis])
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ConvergenceError("the master LP met a non-finite solve")
        reduced = costs - y @ columns
        reduced[basis] = 0.0
        # the rounding error of a reduced cost scales with the terms it sums
        improving = reduced > PIVOT_TOL * (abs_costs + np.abs(y) @ abs_columns)
        entering = improving.argmax()
        if not improving[entering]:
            cut_weights = np.where(columns[0, basis] != 0, x, 0.0)
            leave = cut_weights.argmin()
            if cut_weights[leave] >= -PIVOT_TOL * np.abs(x).max():
                return basis, x, y
            # the most negative cut weight leaves for the column that keeps every reduced cost nonpositive
            row = np.linalg.solve(square.T, np.eye(len(basis))[leave]) @ columns
            eligible = np.flatnonzero(row < -PIVOT_TOL * np.abs(row).max())
            if eligible.size == 0:
                return basis, x, y
            basis[leave] = eligible[np.argmin(reduced[eligible] / row[eligible])]
            continue
        step = np.linalg.solve(square, columns[:, entering])
        top = np.abs(step).max()
        rows = np.flatnonzero(step > PIVOT_TOL * top)
        ratios = np.maximum(x[rows], 0.0) / step[rows]
        ties = rows[ratios <= ratios.min() + PIVOT_TOL * np.abs(x).max() / top]
        for col in np.linalg.inv(square).T[1:] if ties.size > 1 else ():
            ratios = col[ties] / step[ties]
            ties = ties[ratios <= ratios.min() + PIVOT_TOL * np.abs(col).max() / top]
        basis[ties[0]] = entering
    raise ConvergenceError(f"the master LP did not settle in {MAX_PIVOTS} pivots")


def _numeric_minimizer(family: ProcessFamily, q: np.ndarray) -> NormMinimizer:
    """Cutting planes on the visible plane, with a dual certificate.

    The oracle works on the family's traceless stack, whose combinations
    have the same spread and eigenvectors as b^j X_j, one point per round.
    Points are b = center + step @ t, with center the best point so far
    and step the visible plane scaled by 1/|q|.  The first, base,
    minimizes over the plane the Hilbert-Schmidt norm |b^j T_j|_F, which
    bounds the spread above and below.

    Where the unit surface is smooth, one cut proves the bound.  A point
    whose cut g is mu q, with mu = g.b its norm as the cut sums it, within
    ALIGN_TOL of each |T_j|_F, returns at once with that cut alone, of
    weight 1, and no LP is solved.  The points that reach it are Newton's
    (``_newton_point``), taken while each improves on the best and its
    quadratic model holds; at most POLISH_STEPS of them may promise a
    fall below GAP_TOL of the norm.

    Everywhere else (at kinks, far from the minimum, and once the polish
    is spent) the next point is Kelley's, the minimizer -y of the master
    LP.  Each point adds its cut g and the mirror -g as columns (1,
    step^T g) with cost g.center to that LP, solved in its dual form with
    every cut scaled by the best norm.  Taking costs at the best point
    rather than at base keeps steep cuts from cancelling digits.  The
    first 2k columns +-e_i with cost -radius bound the box |t_i| <=
    radius, which keeps the LP bounded; radius grows tenfold while the box
    carries weight.  With no weight on the box, and none below zero on a
    cut, the LP value mu is certified: sum_i w_i g_i = mu q.  The loop
    stops when the best norm seen is within GAP_TOL of mu, and the
    positive-weight cuts, with their pairs, are the certificate.  A Kelley
    point already cut, to rounding, adds a cut that cannot move the LP, so
    ConvergenceError reports the open gap at once.
    """
    stack = family._stack
    flat = stack.reshape(q.size, -1)
    # Frobenius norms of the traceless and, as T_j is orthogonal to I, of the full generators
    norms = np.linalg.norm(flat, axis=1)
    scale = np.hypot(norms, np.sqrt(family.dim) * np.abs(family._shift))
    step = _visible_plane(stack, scale, q) / np.linalg.norm(q)
    gram = step.T @ (flat.conj() @ flat.T).real  # S^T G with G_ij = Re tr(T_i T_j)
    plane_gram = gram @ step
    base = (q - step @ np.linalg.lstsq(plane_gram, gram @ q, rcond=None)[0]) / (q @ q)
    k = step.shape[1]
    box = np.vstack([np.zeros(2 * k), np.hstack([np.eye(k), -np.eye(k)])])
    cuts, ends, tried = np.zeros((q.size, 0)), [], np.zeros((0, q.size))
    radius, best, center, point, basis, polish = 1.0, np.inf, base, base, None, 0
    for rounds in range(MAX_CUTS):
        value, g, eigs, rows, pair = _cut(stack, point)
        cuts = np.hstack([cuts, g[:, None], -g[:, None]])
        ends.append(pair)
        tried = np.vstack([tried, point])
        mu, newton = g @ point, None
        if np.all(np.abs(g - mu * q) <= ALIGN_TOL * norms) and value - mu <= GAP_TOL * value:
            certificate = Certificate(g[None], np.ones(1), pair.T[:, None], 1.0 / mu)
            return NormMinimizer(TangentVector(point), value, certificate)
        if value < best:
            best, center = value, point
            newton = _newton_point(step, plane_gram, g, eigs, rows)
        if newton is not None and polish < POLISH_STEPS and rounds < MAX_CUTS - 1:
            polish += newton[1] <= GAP_TOL * best
            point = center + step @ newton[0]
            continue
        if basis is None:  # column 2k is base's cut, so the basis is feasible
            basis = np.concatenate([[2 * k], np.where(step.T @ cuts[:, 0] > 0, k, 0) + np.arange(k)])
        columns = np.hstack([box, np.vstack([np.ones(cuts.shape[1]), step.T @ cuts / best])])
        costs = np.concatenate([np.full(2 * k, -radius), center @ cuts / best])
        basis, x, y = _master_dual(columns, costs, basis)
        held = basis >= 2 * k
        boxed = np.any(np.abs(x[~held]) > PIVOT_TOL)  # a negative box weight is noise, not a certificate
        negative = x[held].min() < -PIVOT_TOL * np.abs(x).max()
        mu = best * float(costs[basis] @ x)  # sum_i w_i g_i.center, as the LP sums it
        if not (boxed or negative) and best - mu <= GAP_TOL * best:
            break
        if boxed:
            radius *= 10.0
        point = center - step @ y[1:]
        stalled = np.min(np.abs(tried - point) @ norms) <= PIVOT_TOL * np.abs(point) @ norms
        if stalled or rounds == MAX_CUTS - 1:
            raise ConvergenceError(
                f"cutting planes left a gap of {best - mu:.3e} after {rounds + 1} rounds of cuts"
                + ("; the next point repeats one already cut" if stalled else ""),
                best=TangentVector(center),
            )
    held &= x > PIVOT_TOL
    columns = basis[held] - 2 * k
    # column 2p holds point p's cut from (top, bottom), column 2p + 1 its mirror from (bottom, top)
    pairs = np.moveaxis(np.array(ends)[columns // 2], -1, 0)
    pairs[:, columns % 2 == 1] = pairs[::-1, columns % 2 == 1]
    return NormMinimizer(TangentVector(center), best, Certificate(cuts[:, columns].T, x[held], pairs, 1.0 / mu))


# ---------------------------------------------------------------------------
# Unit-ball geometry export.


def unit_ball_mesh(family: ProcessFamily, resolution: int) -> dict:
    """Scale rays of a uniform sphere sampling onto the unit norm surface; returns the JSON payload."""
    if resolution < 1:
        raise ArgumentError("resolution must be positive")
    n = family.n_params
    if n == 2:
        angles = 2 * np.pi * np.arange(resolution) / resolution
        rays = np.column_stack([np.cos(angles), np.sin(angles)])
    elif n == 3:
        rays = bloch_direction_grid(resolution)
    else:
        raise UnsupportedDimensionError(f"mesh export supports 2 or 3 parameters, not {n}")
    rows = max(1, MESH_ENTRIES // family.dim**2)
    norms = np.concatenate([family.norm(rays[i : i + rows]) for i in range(0, len(rays), rows)])
    samples = rays / norms[:, None]
    vertices = np.concatenate([np.eye(n), -np.eye(n)]) if isinstance(family, PauliZFamily) else np.zeros((0, n))
    return {
        "norm": family.kind,
        "vertices": [list(map(float, v)) for v in vertices],
        "samples": [list(map(float, s)) for s in samples],
    }
