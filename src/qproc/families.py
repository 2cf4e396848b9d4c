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
# the certified lower bound; a certificate cut whose plane part exceeds
# KINK_TOL of the norm of its direction marks a kink.  Newton points need
# end eigenvalues split by more than SIMPLE_TOL of the spread, and bring
# probes once they promise a fall of less than PROBE_TOL of it.
GAP_TOL = 1e-12
KINK_TOL = 1e-2
SIMPLE_TOL = 1e-9
PROBE_TOL = 1e-8
MAX_CUTS = 1000
MAX_PIVOTS = 10000
PIVOT_TOL = 1e-14
UNSEEN_TOL = 1e-12
# the dual norms whose square, the variance bound, is a finite normal float
MAX_DUAL_NORM = float(np.sqrt(np.finfo(float).max))
MIN_DUAL_NORM = float(np.sqrt(np.finfo(float).tiny))


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
        """b^j T_j, the combination of the stored stack."""
        comps = _components(b)
        if comps.size != self.n_params:
            raise ArgumentError(f"direction length {comps.size} != parameter count {self.n_params}")
        return np.tensordot(comps, self._stack, axes=1)

    def generator(self, b) -> HermitianOperator:
        """The change generator Y = b^j X_j for a tangent direction b."""
        comps = _components(b)
        return HermitianOperator(self._combination(comps) + (comps @ self._shift) * np.eye(self.dim))

    def norm(self, b) -> float:
        """Process norm of the direction: spectral spread of its generator."""
        eigs = np.linalg.eigvalsh(self._combination(b))
        return float(eigs[-1] - eigs[0])

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

    def norm(self, b) -> float:
        comps = _components(b)
        if comps.size != self.n_params:
            raise ArgumentError("direction length does not match qubit count")
        return float(np.sum(np.abs(comps)))

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

    def norm(self, b) -> float:
        comps = _components(b)
        if comps.size != 3:
            raise ArgumentError("Bloch directions have three components")
        return float(np.linalg.norm(comps))


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

    def norm(self, b) -> float:
        comps = _components(b)
        if comps.size != 2:
            raise ArgumentError("pair directions have two components")
        return float(abs(comps[0]) + np.sqrt(comps[1] ** 2 + 2 * self.epsilon * comps[0] ** 2))


def _components(b) -> np.ndarray:
    if isinstance(b, (TangentVector, OneForm)):
        return b.components
    return np.asarray(b, dtype=float).reshape(-1)


def cross_polytope_decomposition(canonical_components) -> tuple[np.ndarray, np.ndarray]:
    """Faces adjacent to the leading vertex and the mixing weights.

    For a canonical form c (1 = c_1 >= |c_2| >= ... > 0) returns sign
    strings z^(k) (rows) and weights p_k with sum_k p_k z^(k) = c: the
    first string takes the signs of c, string k flips every sign from
    slot k onward, and the weights are p_1 = (1 + |c_m|)/2,
    p_k = (|c_{k-1}| - |c_k|)/2.
    """
    c = np.asarray(canonical_components, dtype=float).reshape(-1)
    m = c.size
    signs = np.where(c >= 0, 1, -1).astype(int)
    strings = np.tile(signs, (m, 1))
    for k in range(1, m):
        strings[k, k:] *= -1
    mags = np.abs(c)
    weights = np.empty(m)
    weights[0] = 0.5 * (1.0 + mags[-1])
    if m > 1:
        weights[1:] = 0.5 * (mags[:-1] - mags[1:])
    return strings, weights


def _adjacent_faces(canonical: CanonicalForm) -> tuple[tuple[int, ...], ...]:
    """Faces adjacent to the target's vertex, as sign strings in the original indexing."""
    strings, _ = cross_polytope_decomposition(canonical.canonical.components)
    return tuple(tuple(int(s) for s in canonical.embed_signs(row)) for row in strings)


@dataclass(frozen=True)
class NormMinimizer:
    """Shortest direction advancing one unit of the target, and the bound.

    ``dual_norm`` squared is the attainable variance bound per
    interaction; ``at_corner`` flags a kink of the unit surface at the
    minimizer, where saturating measurements must be mixed
    probabilistically.  ``gap`` is ``norm`` minus a certified lower bound
    on the minimum over the plane: every b with q.b = 1 has
    norm(b) >= norm - gap.  It is 0.0 for the closed forms.
    """

    vector: TangentVector
    norm: float
    at_corner: bool
    adjacent_faces: tuple[tuple[int, ...], ...] | None = None
    gap: float = 0.0

    @property
    def dual_norm(self) -> float:
        return 1.0 / self.norm

    def __post_init__(self):
        if not self.dual_norm < MAX_DUAL_NORM:
            raise ArgumentError(
                f"the variance bound {self.dual_norm:.3e}^2 overflows a float; rescale the target or the generators"
            )
        if self.dual_norm < MIN_DUAL_NORM:
            raise ArgumentError(
                f"the variance bound {self.dual_norm:.3e}^2 underflows a float; rescale the target or the generators"
            )


def minimize_norm(family: ProcessFamily, dq: OneForm) -> NormMinimizer:
    """Minimize the process norm over the plane of unit advance in q.

    Closed-form solutions cover the commuting and Bloch families.  The
    partially commuting pair and custom families run cutting planes over
    the part of the constraint plane the process can see, until the best
    norm found is within GAP_TOL (relative) of the lower bound certified
    by the master LP's weights; the result carries that ``gap``.  Trial
    points are Newton points of the spread, with probes about the last
    one, where its end eigenvalues are simple, and Kelley's points
    elsewhere.  They raise UnboundedVarianceError for a target the
    process cannot see, and ConvergenceError if a solve is singular or
    non-finite, or, carrying the best point as ``best``, if MAX_CUTS
    rounds of cuts leave the gap open.
    """
    q = dq.components
    if q.size != family.n_params:
        raise ArgumentError("form length does not match the family parameter count")
    if not np.any(q != 0.0):
        raise ArgumentError("cannot minimize against the zero form")

    if isinstance(family, PauliZFamily):
        result = _polytope_minimizer(q)
    elif isinstance(family, BlochFamily):
        vec = q / (q @ q)
        norm = float(np.linalg.norm(vec))
        result = NormMinimizer(vector=TangentVector(vec), norm=norm, at_corner=False)
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
    lead_index = canonical.permutation[0]
    vec = np.zeros(q.size)
    vec[lead_index] = 1.0 / q[lead_index]
    mags = np.abs(canonical.canonical.components)
    at_corner = bool(np.any(np.abs(mags - 1.0) > 1e-12))
    faces = _adjacent_faces(canonical) if at_corner else None
    return NormMinimizer(
        vector=TangentVector(vec),
        norm=float(np.abs(vec).sum()),
        at_corner=at_corner,
        adjacent_faces=faces,
    )


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


def _cut(stack: np.ndarray, b: np.ndarray) -> tuple[float, np.ndarray, np.ndarray, np.ndarray]:
    """The norm at b and its cut g_j = <top|X_j|top> - <bottom|X_j|bottom>,
    which satisfies g.b' <= norm(b') for every b', with equality at b; then
    the eigenvalues and eigenvectors it came from."""
    eigs, vecs = np.linalg.eigh(np.tensordot(b, stack, axes=1))
    ends = vecs[:, [-1, 0]]
    expect = np.einsum("ak,jab,bk->jk", ends.conj(), stack, ends).real
    return float(eigs[-1] - eigs[0]), expect[:, 0] - expect[:, 1], eigs, vecs


def _newton_points(
    stack: np.ndarray, step: np.ndarray, center: np.ndarray, g: np.ndarray, eigs: np.ndarray, vecs: np.ndarray
) -> list[np.ndarray] | None:
    """The minimizer of the spread's quadratic model on the plane about
    center, where g and (eigs, vecs) are the cut and spectrum there.

    The model holds where the top and bottom eigenvalues are simple:
    second-order perturbation theory gives the Hessian
    H_ab = 2 Re sum_m <t|X_a|m><m|X_b|t> / (l_t - l_m) for the top t,
    plus the mirrored sum for the bottom.  It is refused (None) unless
    step^T H step is positive definite, its solve regular, and the Newton
    step moves b^j X_j, in Frobenius norm, by less than the gap between an
    end eigenvalue and its neighbour (an overflowing move is refused).  Once the step promises less than PROBE_TOL of
    the norm, the 2k probes d +- h L^-T e_i join it, with L L^T the
    curvature on the plane and h^2 = GAP_TOL norm / 2: their cuts
    surround the minimizer, so the LP's weights can close the gap from
    cuts that each lose at most a quarter of GAP_TOL.
    """
    spread = eigs[-1] - eigs[0]
    above, below = eigs[-1] - eigs[:-1], eigs[1:] - eigs[0]
    split = min(above[-1], below[0])
    if split <= SIMPLE_TOL * spread:
        return None
    rows = vecs[:, [-1, 0]].conj().T @ stack @ vecs
    top, bottom = rows[:, 0, :-1], rows[:, 1, 1:]
    hessian = 2.0 * ((top / above) @ top.conj().T + (bottom / below) @ bottom.conj().T).real
    curvature = step.T @ hessian @ step
    grad = step.T @ g
    try:
        chol = np.linalg.cholesky(curvature)
        d = -np.linalg.solve(curvature, grad)
        with np.errstate(over="ignore", invalid="ignore"):
            move = np.linalg.norm(np.tensordot(step @ d, stack, axes=1))
        if not move <= split:
            return None
        points = [center + step @ d]
        if -0.5 * grad @ d <= PROBE_TOL * spread:
            offsets = np.sqrt(0.5 * GAP_TOL * spread) * np.linalg.inv(chol)
            points += [center + step @ (d + e) for e in np.vstack([offsets, -offsets])]
    except np.linalg.LinAlgError:
        return None
    return points


def _master_dual(columns: np.ndarray, costs: np.ndarray, basis: np.ndarray):
    """Maximize costs.x over x >= 0 with columns @ x = e_0, by revised simplex.

    Each pivot solves with the basis columns of the original matrix, and
    Bland's rule (lowest entering index, then lowest leaving column) rules
    out cycling.  Returns the optimal basis, its weights x and the
    multipliers y, which solve the LP dual min y_0 s.t. columns^T y >= costs.
    A solve that overflows raises ConvergenceError before the reduced
    costs are formed from it.
    """
    rhs = np.zeros(columns.shape[0])
    rhs[0] = 1.0
    for _ in range(MAX_PIVOTS):
        square = columns[:, basis]
        x = np.linalg.solve(square, rhs)
        y = np.linalg.solve(square.T, costs[basis])
        if not (np.isfinite(x).all() and np.isfinite(y).all()):
            raise ConvergenceError("the master LP met a non-finite solve")
        reduced = costs - y @ columns
        reduced[basis] = 0.0
        # the rounding error of a reduced cost scales with the terms it sums
        entering = np.flatnonzero(reduced > PIVOT_TOL * (np.abs(costs) + np.abs(y) @ np.abs(columns)))
        if entering.size == 0:
            return basis, x, y
        step = np.linalg.solve(square, columns[:, entering[0]])
        rows = np.flatnonzero(step > PIVOT_TOL * np.abs(step).max())
        ratios = np.maximum(x[rows], 0.0) / step[rows]
        ties = rows[ratios <= ratios.min()]
        basis[ties[np.argmin(basis[ties])]] = entering[0]
    raise ConvergenceError(f"the master LP did not settle in {MAX_PIVOTS} pivots")


def _numeric_minimizer(family: ProcessFamily, q: np.ndarray) -> NormMinimizer:
    """Cutting planes on the visible plane, with a dual certificate.

    The oracle works on the family's traceless stack, whose combinations
    have the same spread and eigenvectors as b^j X_j.  Points are
    b = center + step @ t, with center the best point so far (first
    base) and step the visible plane scaled by |base|.  Each oracle call
    adds the cut g and its mirror -g as columns (1, step^T g) with cost
    g.center to the master LP, solved in its dual form with every cut
    scaled by the best norm.  Taking costs at the best point rather than
    at base keeps steep cuts from cancelling digits.  The first 2k
    columns +-e_i with cost -radius bound the box |t_i| <= radius, which
    keeps the LP bounded; radius grows tenfold while the box carries
    weight.  With no weight on the box, the LP value ``lower`` bounds the
    norm from below on the whole plane, since its weights w satisfy
    sum_i w_i g_i = lower * q.  The loop stops when the best norm seen is
    within GAP_TOL of ``lower``.

    The next points come from ``_newton_points`` while the last ones
    improved on the best and its quadratic model holds; otherwise the
    next point is Kelley's, the LP's minimizer -y.
    """
    stack = family._stack
    base = q / (q @ q)
    # Frobenius norms of the full generators: T_j is orthogonal to I
    scale = np.hypot(np.linalg.norm(stack.reshape(q.size, -1), axis=1), np.sqrt(family.dim) * np.abs(family._shift))
    step = _visible_plane(stack, scale, q) * np.linalg.norm(base)
    k = step.shape[1]
    box = np.vstack([np.zeros(2 * k), np.hstack([np.eye(k), -np.eye(k)])])
    cuts = np.zeros((q.size, 0))
    radius, best, center, points, basis = 1.0, np.inf, base, [base], None
    for _ in range(MAX_CUTS):
        model = None
        for b in points:
            value, g, eigs, vecs = _cut(stack, b)
            if value < best:
                best, center, model = value, b, (g, eigs, vecs)
            cuts = np.hstack([cuts, g[:, None], -g[:, None]])
        if basis is None:
            basis = np.concatenate([[2 * k], np.where(step.T @ g > 0, k, 0) + np.arange(k)])
        columns = np.hstack([box, np.vstack([np.ones(cuts.shape[1]), step.T @ cuts / best])])
        costs = np.concatenate([np.full(2 * k, -radius), center @ cuts / best])
        basis, x, y = _master_dual(columns, costs, basis)
        boxed = np.any(x[basis < 2 * k] > PIVOT_TOL)
        lower = best * float(costs[basis] @ x)
        if not boxed and best - lower <= GAP_TOL * best:
            break
        if boxed:
            radius *= 10.0
        newton = model and _newton_points(stack, step, center, *model)
        points = newton or [center - step @ y[1:]]
    else:
        raise ConvergenceError(
            f"cutting planes left a gap of {best - lower:.3e} after {MAX_CUTS} rounds of cuts",
            best=TangentVector(center),
        )
    # A kink shows as a certificate cut g whose part along the plane, a =
    # step^T g, is not negligible next to the norm of that direction:
    # g.(step a) = |a|^2 against norm(step a).  At a smooth minimum every
    # certificate cut comes from a point where that part nearly vanishes.
    plane_parts = step.T @ cuts[:, basis[(basis >= 2 * k) & (x > PIVOT_TOL)] - 2 * k]
    at_corner = any(a @ a > KINK_TOL * _cut(stack, step @ a)[0] for a in plane_parts.T)
    faces = None
    if at_corner and isinstance(family, EpsilonPairFamily):
        faces = _adjacent_faces(canonicalize(OneForm(q)))
    return NormMinimizer(
        vector=TangentVector(center),
        norm=best,
        at_corner=at_corner,
        adjacent_faces=faces,
        gap=max(best - lower, 0.0),
    )


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
    samples = np.array([ray / family.norm(ray) for ray in rays])
    if isinstance(family, PauliZFamily):
        vertices = np.concatenate([np.eye(n), -np.eye(n)])
    else:
        vertices = np.zeros((0, n))
    return {
        "norm": family.kind,
        "vertices": [list(map(float, v)) for v in vertices],
        "samples": [list(map(float, s)) for s in samples],
    }
