"""Monte-Carlo verification of protocols against their variance bounds.

Samples protocol outcomes at a true parameter point near the fiducial,
estimates the target by maximum likelihood per branch, and compares the
empirical variance against the dual-norm bound and the Cramer-Rao matrix
inequality.  The local affine bias correction is a separate step:
:func:`fit_bias_correction` calibrates it and :func:`debias` applies it.

Randomness is counter-based: every (seed, branch) pair keys its own
Philox stream, and repetition r reads the r-th binomial draw of it, the
branch's + tally.  Results are bit-identical regardless of the order in
which branches are drawn, and prefix-stable in the repetition index: the
first r repetitions of a longer run are the r repetitions of a shorter
one.  ``STREAM_VERSION`` names this layout and is reported with every
simulation; version 2 drew one multinomial tally over all outcomes per
(seed, branch), and version 1 keyed one stream per (seed, repetition,
branch).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DegenerateModelError, EstimationError
from .families import ProcessFamily
from .protocols import Protocol, branch_distribution
from .tangent import DEFAULT_RANK_TOL, FisherMatrix, OneForm, fisher_dual

LINEAR_REGIME_WARNING = 0.3
STREAM_VERSION = 3
_MASK64 = (1 << 64) - 1


def branch_rng(seed: int, branch: int) -> np.random.Generator:
    """Philox stream for one (seed, branch) pair, shared by all repetitions."""
    key = np.array([int(seed) & _MASK64, 0], dtype=np.uint64)
    counter = np.array([0, 0, 0, int(branch) & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(counter=counter, key=key))


def apportion_shots(weights, total: int) -> np.ndarray:
    """Largest-remainder apportionment of ``total`` shots to the weights."""
    weights = np.asarray(weights, dtype=float)
    if total < 1:
        raise ArgumentError("need at least one shot")
    raw = weights * total
    counts = np.floor(raw).astype(int)
    remainder = total - counts.sum()
    if remainder > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:remainder]] += 1
    return counts


def sample_estimates(
    protocol: Protocol,
    family: ProcessFamily,
    theta_true,
    shots: int,
    repetitions: int,
    seed: int,
    return_parameter_estimates: bool = False,
):
    """Repeated runs of the estimator; returns the array of q estimates.

    Shots are apportioned over the branches by largest remainder, and each
    branch's outcome distribution is computed once.  The estimator reads
    only the + tally, whose law is Binomial(n, p+), so each branch draws
    that tally for all its repetitions in one binomial call on its keyed
    stream.  Each branch reads the sine of its linear combination: the
    arcsine of the clamped + frequency is the per-branch
    maximum-likelihood readout, and the q estimate recombines the readouts
    with the estimator weights.  With ``return_parameter_estimates`` and as
    many branches as parameters, the per-branch readouts are also solved
    for full parameter estimates (for covariance checks).
    """
    if repetitions < 1:
        raise ArgumentError("need at least one repetition")
    theta = np.asarray(theta_true, dtype=float).reshape(-1)
    if theta.size != family.n_params:
        raise ArgumentError("theta_true length does not match the family")
    worst = float(np.max(np.abs(theta)))
    if worst > LINEAR_REGIME_WARNING:
        warnings.warn(
            f"|theta| = {worst:.3g} rad is outside the linearization regime; "
            "bounds and estimators are derived for small deviations",
            stacklevel=2,
        )
    branches = protocol.branches
    per_branch = apportion_shots([branch.weight for branch in branches], shots)
    if np.any(per_branch < 1):
        raise EstimationError("a weighted branch received no shots; increase the shot budget")
    for branch in branches:
        if branch.readout_form is None or branch.estimator_weight is None:
            raise EstimationError("every branch needs a readout to run the estimator")
    p_plus = [
        branch_distribution(branch, family, theta)[branch.measurement.labels.index("+")] for branch in branches
    ]
    coeffs = np.array([branch.estimator_weight for branch in branches])

    plus = np.empty((repetitions, len(branches)), dtype=int)
    for b, (n, p) in enumerate(zip(per_branch, p_plus)):
        plus[:, b] = branch_rng(seed, b).binomial(int(n), p, size=repetitions)
    s_hat = np.arcsin(np.clip(2.0 * (plus / per_branch) - 1.0, -1.0, 1.0))
    q_hats = s_hat @ coeffs
    if not return_parameter_estimates:
        return q_hats
    readouts = np.array([branch.readout_form.components for branch in branches])
    if readouts.shape[0] != readouts.shape[1]:
        raise EstimationError("parameter estimates need exactly one branch per parameter")
    theta_hats = np.linalg.solve(readouts, s_hat.T).T
    return q_hats, theta_hats


# ---------------------------------------------------------------------------
# Local debiasing (affine correction around the fiducial point).


def debias(raw_mean_at_fiducial, jacobian, raw_estimates) -> np.ndarray:
    """Remove first-order bias: subtract the fiducial mean, unmix with the
    inverse response Jacobian."""
    mean0 = np.atleast_1d(np.asarray(raw_mean_at_fiducial, dtype=float))
    jac = np.atleast_2d(np.asarray(jacobian, dtype=float))
    if jac.shape != (mean0.size, mean0.size):
        raise ArgumentError("jacobian shape must match the mean vector")
    condition = np.linalg.cond(jac)
    if not np.isfinite(condition) or condition > 1e8:
        raise DegenerateModelError(f"response jacobian condition number {condition:.3e} too large")
    raw = np.asarray(raw_estimates, dtype=float)
    flat = np.atleast_2d(raw if raw.ndim > 1 else raw[:, None])
    corrected = np.linalg.solve(jac, (flat - mean0).T).T
    return corrected[:, 0] if raw.ndim == 1 else corrected


def fit_bias_correction(
    protocol: Protocol,
    family: ProcessFamily,
    dq: OneForm,
    direction,
    magnitude: float,
    shots: int,
    repetitions: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Calibrate the scalar estimator response by simulation.

    Returns the (offset, jacobian) pair that :func:`debias` takes: the
    offset is the mean estimate at the fiducial point, and the 1x1
    response slope comes from a central difference across +/- the
    calibration displacement.  Distinct seeds key the three calibration
    runs.
    """
    direction = np.asarray(direction, dtype=float).reshape(-1)
    q_shift = float(dq.components @ (magnitude * direction))
    if q_shift == 0.0:
        raise ArgumentError("calibration direction does not change the target")
    means = [
        float(np.mean(sample_estimates(protocol, family, theta, shots, repetitions, seed + k)))
        for k, theta in enumerate((np.zeros(direction.size), magnitude * direction, -magnitude * direction))
    ]
    slope = (means[1] - means[2]) / (2.0 * q_shift)
    return np.array([means[0]]), np.array([[slope]])


def fit_bias_polynomial(q_values, mean_errors, stderrs) -> tuple[np.ndarray, np.ndarray]:
    """Weighted least-squares fit of mean error against (q, q^2).

    Returns the coefficient vector (linear, quadratic) and its covariance,
    so the caller can judge whether the linear term is statistically zero.
    """
    q_values = np.asarray(q_values, dtype=float)
    y = np.asarray(mean_errors, dtype=float)
    se = np.asarray(stderrs, dtype=float)
    if q_values.size < 3:
        raise ArgumentError("need at least three calibration points")
    design = np.column_stack([q_values, q_values**2])
    w = 1.0 / se**2
    normal = design.T @ (w[:, None] * design)
    coeffs = np.linalg.solve(normal, design.T @ (w * y))
    covariance = np.linalg.inv(normal)
    return coeffs, covariance


# ---------------------------------------------------------------------------
# Summary reports.


@dataclass(frozen=True)
class EstimatorReport:
    """Empirical performance of an estimator against its bound.

    The raw samples ride along for downstream analysis but stay out of
    the serialized summary.
    """

    q_hat_samples: np.ndarray
    repetitions: int
    shots: int
    mean: float
    empirical_variance: float
    variance_stderr: float
    bound_per_shot: float
    variance_times_shots: float
    z_score: float
    tolerance: float
    within_tolerance: bool
    ccrb_psd: bool | None
    ccrb_min_eigenvalue: float | None
    bias_fit: float | None
    impossible_alarm: bool

    CSV_HEADER = (
        "protocol",
        "dq",
        "shots",
        "repetitions",
        "variance",
        "bound",
        "z_score",
        "seed",
    )

    def to_dict(self) -> dict:
        # the instance dict holds exactly the fields, in declaration order
        summary = dict(vars(self))
        del summary["q_hat_samples"]
        return summary

    @staticmethod
    def csv_row(summary: dict, protocol_name: str, dq, seed: int) -> list:
        """One CSV line, in CSV_HEADER order, for a serialized summary."""
        return [
            protocol_name,
            " ".join(f"{x:.17g}" for x in dq),
            summary["shots"],
            summary["repetitions"],
            f"{summary['empirical_variance']:.17g}",
            f"{summary['bound_per_shot']:.17g}",
            f"{summary['z_score']:.17g}",
            seed,
        ]


def report(
    q_hat_samples,
    bound_per_shot: float,
    shots: int,
    fisher: FisherMatrix | None = None,
    dq: OneForm | None = None,
    covariance: np.ndarray | None = None,
    tolerance: float = 0.05,
) -> EstimatorReport:
    """Summarize estimator samples against the per-shot bound.

    The variance standard error uses the Gaussian chi-squared
    approximation sqrt(2/(R-1)) * variance.  With a Fisher matrix and
    either a full empirical covariance or the target form, the report
    also checks the Cramer-Rao matrix (or marginal) inequality with a
    three-standard-error slack.
    """
    samples = np.asarray(q_hat_samples, dtype=float).reshape(-1)
    reps = samples.size
    if reps < 2:
        raise ArgumentError("need at least two samples to estimate a variance")
    variance = float(np.var(samples, ddof=1))
    stderr = float(np.sqrt(2.0 / (reps - 1)) * variance)
    scaled = variance * shots
    if stderr > 0:
        z = (scaled - bound_per_shot) / (stderr * shots)
    else:
        z = 0.0 if scaled == bound_per_shot else float(np.sign(scaled - bound_per_shot)) * float("inf")
    within = abs(scaled - bound_per_shot) <= tolerance * bound_per_shot
    impossible = reps > 10 and (variance == 0.0 or (scaled < bound_per_shot and z < -5.0))

    ccrb_psd = None
    ccrb_min = None
    if fisher is not None and covariance is not None:
        covariance = np.asarray(covariance, dtype=float)
        if covariance.shape != fisher.entries.shape:
            raise ArgumentError("empirical covariance shape must match the Fisher matrix")
        limit = np.linalg.pinv(fisher.entries, rcond=DEFAULT_RANK_TOL, hermitian=True) / shots
        gap = covariance - limit
        slack = 3.0 * np.sqrt(2.0 / (reps - 1)) * float(np.max(np.diag(covariance)))
        ccrb_min = float(np.linalg.eigvalsh(0.5 * (gap + gap.T)).min())
        ccrb_psd = bool(ccrb_min >= -slack)
    elif fisher is not None and dq is not None:
        marginal = fisher_dual(fisher, dq) / shots
        ccrb_min = float(variance - marginal)
        ccrb_psd = bool(ccrb_min >= -3.0 * stderr)

    return EstimatorReport(
        q_hat_samples=samples,
        repetitions=reps,
        shots=int(shots),
        mean=float(np.mean(samples)),
        empirical_variance=variance,
        variance_stderr=stderr,
        bound_per_shot=float(bound_per_shot),
        variance_times_shots=float(scaled),
        z_score=float(z),
        tolerance=float(tolerance),
        within_tolerance=bool(within),
        ccrb_psd=ccrb_psd,
        ccrb_min_eigenvalue=ccrb_min,
        bias_fit=None,
        impossible_alarm=bool(impossible),
    )
