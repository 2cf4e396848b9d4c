import importlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qproc import (
    ArgumentError,
    DegenerateModelError,
    EstimationError,
    OneForm,
    PauliZFamily,
    apportion_shots,
    branch_distribution,
    branch_rng,
    corner_protocol,
    debias,
    fit_bias_correction,
    fit_bias_polynomial,
    hyperface_protocol,
    report,
    sample_estimates,
    zoo_protocol,
)


def plus_frequency(protocol, family, theta, shots, seed):
    """The + frequency of one run of a one-branch protocol, read back from
    its q estimate w arcsin(2 f - 1)."""
    (q_hat,) = sample_estimates(protocol, family, theta, shots, repetitions=1, seed=seed)
    return (1.0 + np.sin(q_hat / protocol.branches[0].estimator_weight)) / 2.0


class FixedDraws:
    """A stand-in branch stream whose every draw is the same tally."""

    def __init__(self, counts):
        self.counts = counts

    def multinomial(self, shots, probs, size):
        return np.tile(self.counts, (size, 1))


def estimate_from_counts(monkeypatch, protocol, family, counts):
    """The q estimate of one run of a one-branch protocol whose branch
    tallies ``counts`` (label -> count)."""
    row = np.array([counts.get(label, 0) for label in protocol.branches[0].measurement.labels])
    monkeypatch.setattr(importlib.import_module("qproc.simulate"), "branch_rng", lambda seed, b: FixedDraws(row))
    (q_hat,) = sample_estimates(protocol, family, np.zeros(family.n_params), int(row.sum()), 1, seed=0)
    return q_hat


class TestApportionment:
    def test_exact_split(self):
        assert apportion_shots([0.75, 0.25], 100).tolist() == [75, 25]

    def test_largest_remainder(self):
        assert apportion_shots([1 / 3, 1 / 3, 1 / 3], 100).tolist() == [34, 33, 33]

    def test_remainder_goes_to_biggest_fraction(self):
        assert apportion_shots([0.55, 0.45], 9).tolist() == [5, 4]

    @given(
        st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=10_000),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_total(self, raw, total):
        weights = np.array(raw) / np.sum(raw)
        counts = apportion_shots(weights, total)
        assert counts.sum() == total
        assert np.all(counts >= 0)


class TestDeterminism:
    def test_identical_runs(self):
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        family = PauliZFamily(2)
        first = sample_estimates(protocol, family, [0.0, 0.0], 1000, 1, seed=7)
        second = sample_estimates(protocol, family, [0.0, 0.0], 1000, 1, seed=7)
        assert np.array_equal(first, second)

    def test_streams_independent_of_order(self):
        # drawing branch 1 before branch 0 reads the same keyed streams
        probs = np.array([0.5, 0.5])
        forward = [branch_rng(3, b).multinomial(100, probs).tolist() for b in (0, 1)]
        backward = [branch_rng(3, b).multinomial(100, probs).tolist() for b in (1, 0)]
        assert forward == backward[::-1]

    def test_different_seeds_differ(self):
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        family = PauliZFamily(2)
        a = sample_estimates(protocol, family, [0.0, 0.0], 1000, 1, seed=1)
        b = sample_estimates(protocol, family, [0.0, 0.0], 1000, 1, seed=2)
        assert not np.array_equal(a, b)

    def test_sample_estimates_reproducible(self):
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        family = PauliZFamily(2)
        x = sample_estimates(protocol, family, [0.0, 0.0], 500, 40, seed=11)
        y = sample_estimates(protocol, family, [0.0, 0.0], 500, 40, seed=11)
        assert np.array_equal(x, y)

    def test_prefix_stable_in_repetitions(self):
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        family = PauliZFamily(2)
        short = sample_estimates(protocol, family, [0.0, 0.0], 500, 5, seed=11)
        long = sample_estimates(protocol, family, [0.0, 0.0], 500, 50, seed=11)
        assert np.array_equal(short, long[:5])

    def test_one_stream_per_branch(self, monkeypatch):
        module = importlib.import_module("qproc.simulate")
        constructed = []

        def counting_rng(seed, branch):
            constructed.append(branch)
            return branch_rng(seed, branch)

        monkeypatch.setattr(module, "branch_rng", counting_rng)
        protocol = corner_protocol(OneForm([1.0, -0.6, 0.2]))
        sample_estimates(protocol, PauliZFamily(3), [0.0, 0.0, 0.0], 300, 1000, seed=4)
        assert len(constructed) <= len(protocol.branches)


class TestSimulate:
    def test_fiducial_point_splits_evenly(self):
        protocol = hyperface_protocol([1, 1])
        frequency = plus_frequency(protocol, PauliZFamily(2), [0.0, 0.0], shots=200_000, seed=5)
        assert frequency == pytest.approx(0.5, abs=0.005)

    def test_pi_over_six_readout(self):
        protocol = hyperface_protocol([1, 1])
        frequency = plus_frequency(protocol, PauliZFamily(2), [np.pi / 12, np.pi / 12], shots=200_000, seed=5)
        assert frequency == pytest.approx(0.75, abs=0.005)

    def test_apportionment_is_deterministic(self):
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        assert apportion_shots([b.weight for b in protocol.branches], 1000).tolist() == [750, 250]

    def test_warns_outside_linear_regime(self):
        protocol = hyperface_protocol([1])
        family = PauliZFamily(1)
        with pytest.warns(UserWarning, match="linearization"):
            sample_estimates(protocol, family, [0.5], shots=10, repetitions=1, seed=0)

    def test_wrong_theta_length(self):
        protocol = hyperface_protocol([1, 1])
        with pytest.raises(ArgumentError):
            sample_estimates(protocol, PauliZFamily(2), [0.0], shots=10, repetitions=1, seed=0)

    def test_negative_repetition_rejected(self):
        protocol = hyperface_protocol([1, 1])
        with pytest.raises(ArgumentError):
            sample_estimates(protocol, PauliZFamily(2), [0.0, 0.0], shots=10, repetitions=-1, seed=0)


class TestEstimateQ:
    def test_balanced_counts_give_zero(self, monkeypatch):
        protocol = hyperface_protocol([1, 1])
        q_hat = estimate_from_counts(monkeypatch, protocol, PauliZFamily(2), {"+": 50, "-": 50})
        assert q_hat == pytest.approx(0.0)

    def test_single_branch_arcsine(self, monkeypatch):
        protocol = hyperface_protocol([1, 1])
        q_hat = estimate_from_counts(monkeypatch, protocol, PauliZFamily(2), {"+": 75, "-": 25})
        assert q_hat == pytest.approx(np.pi / 6)

    def test_corner_estimator_tracks_target(self):
        family = PauliZFamily(2)
        dq = OneForm([1.0, 0.5])
        protocol = corner_protocol(dq)
        delta = 0.01
        samples = sample_estimates(protocol, family, [delta, 0.0], 10_000, 2000, seed=3)
        stderr = samples.std(ddof=1) / np.sqrt(samples.size)
        assert np.mean(samples) == pytest.approx(delta, abs=4 * stderr)

    def test_empty_branch_rejected(self):
        # one shot over weights 0.75 and 0.25 leaves the second branch empty
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        with pytest.raises(EstimationError):
            sample_estimates(protocol, PauliZFamily(2), [0.0, 0.0], shots=1, repetitions=1, seed=0)


def one_run(protocol, family, theta, shots, seed, repetition):
    """Row ``repetition`` of the batch, drawn by hand: the repetition-th
    draw of each branch's keyed stream, read out by arcsine and
    recombined with the estimator weights."""
    per_branch = apportion_shots([branch.weight for branch in protocol.branches], shots)
    readouts = []
    for index, branch in enumerate(protocol.branches):
        probs = branch_distribution(branch, family, np.asarray(theta, dtype=float))
        counts = branch_rng(seed, index).multinomial(per_branch[index], probs, size=repetition + 1)[repetition]
        plus = counts[branch.measurement.labels.index("+")]
        readouts.append(np.arcsin(np.clip(2.0 * (plus / per_branch[index]) - 1.0, -1.0, 1.0)))
    return float(np.array(readouts) @ np.array([branch.estimator_weight for branch in protocol.branches]))


class TestSamplingPathsAgree:
    @pytest.mark.parametrize(
        "protocol, theta",
        [
            (corner_protocol(OneForm([1.0, -0.6, 0.2])), [0.0, 0.0, 0.0]),
            (corner_protocol(OneForm([1.0, -0.6, 0.2])), [0.03, -0.02, 0.01]),
            (zoo_protocol(np.full(8, 1 / 8)), [0.05, 0.02, -0.04]),
        ],
    )
    def test_simulate_then_estimate_matches_batch(self, protocol, theta):
        # pins the stream layout: repetition r is the r-th draw of each
        # (seed, branch) stream, whatever the batching
        family = PauliZFamily(3)
        batch = sample_estimates(protocol, family, theta, shots=600, repetitions=30, seed=5)
        one_by_one = [one_run(protocol, family, theta, shots=600, seed=5, repetition=r) for r in range(batch.size)]
        np.testing.assert_allclose(one_by_one, batch, rtol=1e-12, atol=0)


class TestParameterEstimates:
    def test_square_readout_system(self):
        family = PauliZFamily(2)
        dq = OneForm([1.0, 0.5])
        protocol = corner_protocol(dq)
        q_hats, theta_hats = sample_estimates(
            protocol, family, [0.0, 0.0], 2000, 50, seed=9, return_parameter_estimates=True
        )
        assert theta_hats.shape == (50, 2)
        # q estimate is the target contraction of the parameter estimate
        recombined = theta_hats @ dq.components
        assert np.allclose(recombined, q_hats, atol=1e-12)


class TestDebias:
    def test_identity_correction(self, rng):
        samples = rng.standard_normal(100)
        out = debias([0.0], [[1.0]], samples)
        assert np.allclose(out, samples)

    def test_rescale(self, rng):
        samples = rng.standard_normal(100)
        out = debias([0.0], [[2.0]], samples)
        assert np.allclose(out, samples / 2.0)

    def test_offset_then_unmix(self):
        samples = np.array([[2.0, 1.0], [4.0, 3.0]])
        out = debias([1.0, 1.0], [[1.0, 0.0], [0.0, 2.0]], samples)
        assert np.allclose(out, [[1.0, 0.0], [3.0, 1.0]])

    def test_ill_conditioned_rejected(self, rng):
        with pytest.raises(DegenerateModelError):
            debias([0.0, 0.0], [[1.0, 1.0], [1.0, 1.0 + 1e-12]], rng.standard_normal((5, 2)))

    def test_fitted_response_is_nearly_identity(self):
        family = PauliZFamily(2)
        dq = OneForm([1.0, 0.5])
        protocol = corner_protocol(dq)
        offset, jacobian = fit_bias_correction(
            protocol, family, dq, direction=[1.0, 0.0], magnitude=0.05, shots=10_000, repetitions=2000, seed=21
        )
        assert jacobian[0, 0] == pytest.approx(1.0, abs=0.01)
        assert abs(offset[0]) < 1e-3

    def test_bias_correction_validates_shapes(self):
        with pytest.raises(ArgumentError):
            debias(np.zeros(2), np.eye(3), np.zeros((5, 2)))


class TestReport:
    def test_summary_fields(self, rng):
        samples = rng.normal(0.0, 0.01, size=4000)
        summary = report(samples, bound_per_shot=1.0, shots=10_000)
        assert summary.repetitions == 4000
        assert summary.variance_times_shots == pytest.approx(1.0, rel=0.1)
        assert not summary.impossible_alarm

    def test_degenerate_samples_raise_alarm(self):
        summary = report(np.zeros(100), bound_per_shot=1.0, shots=100)
        assert summary.impossible_alarm
        assert summary.empirical_variance == 0.0

    def test_needs_two_samples(self):
        with pytest.raises(ArgumentError):
            report([1.0], bound_per_shot=1.0, shots=10)

    def test_marginal_ccrb_check(self, rng):
        from qproc import FisherMatrix

        samples = rng.normal(0.0, 0.011, size=5000)
        fisher = FisherMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        summary = report(samples, bound_per_shot=1.0, shots=10_000, fisher=fisher, dq=OneForm([1.0, 0.5]))
        assert summary.ccrb_psd is True

    def test_matrix_ccrb_check(self, rng):
        from qproc import FisherMatrix

        family = PauliZFamily(2)
        dq = OneForm([1.0, 0.5])
        protocol = corner_protocol(dq)
        q_hats, theta_hats = sample_estimates(
            protocol, family, [0.0, 0.0], 4000, 400, seed=13, return_parameter_estimates=True
        )
        from qproc import protocol_fisher

        fisher = protocol_fisher(protocol, family)
        covariance = np.cov(theta_hats.T)
        summary = report(q_hats, bound_per_shot=1.0, shots=4000, fisher=fisher, covariance=covariance)
        assert summary.ccrb_psd is True

    def test_csv_row_shape(self, rng):
        samples = rng.normal(0.0, 0.01, size=100)
        summary = report(samples, bound_per_shot=1.0, shots=10_000)
        row = summary.csv_row(summary.to_dict(), "corner", [1.0, 0.5], 42)
        assert len(row) == len(summary.CSV_HEADER)
        assert row[:4] == ["corner", "1 0.5", 10_000, 100]


class TestBoundAttainmentAcrossShotBudgets:
    @pytest.mark.parametrize("shots", [100, 1000, 10_000])
    def test_variance_tracks_bound(self, shots):
        family = PauliZFamily(2)
        dq = OneForm([1.0, 0.5])
        protocol = corner_protocol(dq)
        samples = sample_estimates(protocol, family, [0.0, 0.0], shots, 2000, seed=17)
        summary = report(samples, bound_per_shot=1.0, shots=shots)
        # converges onto the bound and never dips impossibly below it
        assert abs(summary.variance_times_shots - 1.0) <= 5 * summary.variance_stderr * shots
        assert summary.variance_times_shots >= 1.0 - 5 * summary.variance_stderr * shots
        assert not summary.impossible_alarm
        assert summary.q_hat_samples.size == 2000


class TestBiasPolynomial:
    def test_recovers_exact_polynomial(self):
        q = np.array([-0.02, -0.01, -0.005, 0.005, 0.01, 0.02])
        y = 0.3 * q + 1.7 * q**2
        coeffs, cov = fit_bias_polynomial(q, y, np.full(q.size, 1e-6))
        assert coeffs[0] == pytest.approx(0.3, abs=1e-9)
        assert coeffs[1] == pytest.approx(1.7, abs=1e-6)
        assert cov.shape == (2, 2)

    def test_needs_three_points(self):
        with pytest.raises(ArgumentError):
            fit_bias_polynomial([0.01, 0.02], [0.0, 0.0], [1.0, 1.0])
