import copy
import csv
import dataclasses
import importlib
import json
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from qproc import cli, families
from qproc.cli import main
from qproc.operators import SIGMA_X, SIGMA_Y, SIGMA_Z, pauli_z_generators

PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
I2 = np.eye(2)


def custom_family(generators) -> dict:
    """The custom-unitary config section of the generator matrices."""
    return {"kind": "custom-unitary", "generators": [np.stack([g.real, g.imag], -1).tolist() for g in generators]}


def pair_generators(eps: float) -> list:
    """The epsilon-pair generators Z/2 (x) I + sqrt(2 eps) I (x) X/2 and I (x) Z/2."""
    return [np.kron(SIGMA_Z, I2) / 2 + np.sqrt(2 * eps) * np.kron(I2, SIGMA_X) / 2, np.kron(I2, SIGMA_Z) / 2]

PASSING_SIM = {
    "schema_version": 1,
    "family": {"kind": "pauli-z", "N": 2},
    "q": [1.0, 0.5],
    "protocol": {"kind": "corner"},
    "simulate": {"theta_true": [0.0, 0.0], "shots": 10_000, "repetitions": 4000, "seed": 42},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_json(tmp_path, command, payload, **kwargs):
    out = tmp_path / "out.json"
    code = main([command, write_config(tmp_path, payload), "--output", str(out)])
    return code, json.loads(out.read_text())


class TestBoundCommand:
    def test_polytope_corner(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "bound",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 3},
                "q": [1.0, 2 / 3, 1 / 3],
            },
        )
        assert code == 0
        assert payload["variance_bound"] == pytest.approx(1.0)
        assert payload["b_min"] == [1.0, 0.0, 0.0]
        assert payload["at_corner"] is True

    def test_bloch_duality(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "bound",
            {"schema_version": 1, "family": {"kind": "bloch"}, "q": [0.0, 0.0, 2.0]},
        )
        assert code == 0
        assert payload["variance_bound"] == pytest.approx(4.0)
        assert payload["dual_norm"] == pytest.approx(2.0)

    def test_pair_cusp(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "bound",
            {
                "schema_version": 1,
                "family": {"kind": "epsilon-pair", "epsilon": 0.5},
                "q": [0.3, 1.0],
            },
        )
        assert code == 0
        assert payload["variance_bound"] == pytest.approx(1.0, abs=1e-8)
        assert np.allclose(payload["b_min"], [0.0, 1.0], atol=1e-8)
        assert payload["at_corner"] is True

    def test_generators_of_far_apart_scales_are_all_seen(self, tmp_path):
        # sqrt(2 epsilon) ~ 4e14: a rank test relative to the largest
        # generator called the second one invisible and exited 2
        code, payload = run_json(
            tmp_path,
            "bound",
            {"schema_version": 1, "family": {"kind": "epsilon-pair", "epsilon": 1e29}, "q": [1.0, 0.05]},
        )
        assert code == 0
        assert payload["norm"] == pytest.approx(20.0, rel=1e-9)

    def test_custom_family_at_dim_128(self, tmp_path):
        # generators with a trace; the rank test once asked for 8 GiB here and exited 2
        rng = np.random.default_rng(128)
        gens = []
        for j in range(3):
            raw = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
            gens.append(0.5 * (raw + raw.conj().T) + (j + 1) * np.eye(128))
        pairs = [np.stack([g.real, g.imag], axis=-1).tolist() for g in gens]
        config = {"schema_version": 1, "family": {"kind": "custom-unitary", "generators": pairs}, "q": [1.0, -0.5, 0.3]}
        code, payload = run_json(tmp_path, "bound", config)
        assert code == 0
        eigs = np.linalg.eigvalsh(np.tensordot(payload["b_min"], np.array(gens), axes=1))
        assert payload["norm"] == pytest.approx(eigs[-1] - eigs[0], rel=1e-12)


class TestNamedFamiliesAreTheirGenerators:
    """Each named family gives the bound that its generators, written out as a
    custom-unitary family, give on the cutting planes."""

    @pytest.mark.parametrize(
        "family, generators",
        [
            *[({"kind": "pauli-z", "N": n}, [g.entries for g in pauli_z_generators(n)]) for n in (2, 3, 4)],
            ({"kind": "bloch"}, [m / 2 for m in PAULIS]),
            *[({"kind": "epsilon-pair", "epsilon": eps}, pair_generators(eps)) for eps in (0.0, 0.3)],
        ],
        ids=["pauli-z-2", "pauli-z-3", "pauli-z-4", "bloch", "pair-0", "pair-0.3"],
    )
    def test_same_bound_and_corner(self, tmp_path, family, generators):
        custom = custom_family(generators)
        rng = np.random.default_rng(28)
        for _ in range(50):
            q = rng.standard_normal(len(generators)).tolist()
            named = run_json(tmp_path, "bound", {"schema_version": 1, "family": family, "q": q})
            spelled = run_json(tmp_path, "bound", {"schema_version": 1, "family": custom, "q": q})
            assert named[0] == spelled[0] == 0
            assert named[1]["variance_bound"] == pytest.approx(spelled[1]["variance_bound"], rel=1e-12)
            assert named[1]["at_corner"] == spelled[1]["at_corner"]


GOLDEN_CASES = json.loads((Path(__file__).parent / "golden" / "cases.json").read_text())


def scaled_custom_config(name: str, entry: float) -> dict:
    """The config of golden case ``name`` with generators[0][0][0][0] set to ``entry``."""
    (case,) = [case for case in GOLDEN_CASES if case["name"] == name]
    config = copy.deepcopy(case["config"])
    config["family"]["generators"][0][0][0][0] = entry
    return config


class TestLargeGeneratorEntries:
    # a singular Newton solve once exited 3, and the trust-region test
    # overflowed with RuntimeWarnings on stderr
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "name, entry, norm, rel",
        [
            ("bound-custom-3", 1e10, 2.39439959006, 1e-9),
            ("bound-custom-3", 1e12, 2.39439959006, 1e-9),
            ("bound-custom-3", 1e13, 2.39439959006, 1e-9),
            ("bound-custom-3", 1e14, 2.39439959006, 1e-9),
            ("bound-custom-2", 1e100, 2.5, 1e-12),
            ("bound-custom-2", 1e150, 2.5, 1e-12),
        ],
    )
    def test_bound_is_found_without_warnings(self, tmp_path, name, entry, norm, rel):
        code, payload = run_json(tmp_path, "bound", scaled_custom_config(name, entry))
        assert code == 0
        assert payload["norm"] == pytest.approx(norm, rel=rel)

    @pytest.mark.parametrize("entry", [1e13, 1e14, 1e15, 1e16, 1e20, 1e50])
    def test_right_norm_or_exit_2(self, tmp_path, capsys, entry):
        # a negative-weight basis of the master LP leaves its round's gap open,
        # so no scale exits 0 with a norm its certificate does not prove
        code = main(["bound", write_config(tmp_path, scaled_custom_config("bound-custom-3", entry))])
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 2)
        if code == 0:
            assert payload["norm"] == pytest.approx(2.39439959007, rel=1e-9)

    @pytest.mark.parametrize("entry", [1e15, 1e16, 1e20])
    def test_stalled_cutting_planes_exit_at_once(self, tmp_path, capsys, monkeypatch, entry):
        # at these scales the Kelley points repeat points already cut, whose
        # duplicate cuts cannot move the master LP; all 1,000 rounds once ran
        cuts, cut = [0], families._cut

        def counted(*args):
            cuts[0] += 1
            return cut(*args)

        monkeypatch.setattr(families, "_cut", counted)
        code = main(["bound", write_config(tmp_path, scaled_custom_config("bound-custom-3", entry))])
        error = json.loads(capsys.readouterr().out)
        assert code == 2 and error["error"] == "ConvergenceError"
        assert error["message"].endswith("; the next point repeats one already cut")
        assert cuts[0] <= 20

    @pytest.mark.parametrize("entry", [1e15, 1e50])
    def test_unsolved_scale_exits_2_not_3(self, tmp_path, capsys, entry):
        # at 1e15 the master LP's solves overflow; it once formed reduced
        # costs from them and printed five RuntimeWarnings before refusing
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["bound", write_config(tmp_path, scaled_custom_config("bound-custom-3", entry))])
        assert code == 2
        out, err = capsys.readouterr()
        assert json.loads(out)["error"] == "ConvergenceError"
        assert [str(w.message) for w in caught] == []
        assert err == ""


class TestProtocolCommand:
    def test_corner_weights_and_residual(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "protocol",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1.0, 0.5],
                "protocol": {"kind": "corner"},
            },
        )
        assert code == 0
        assert payload["weights"] == [0.75, 0.25]
        assert payload["kissing_residual"] < 1e-12

    def test_hyperface_outer_product(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "protocol",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 3},
                "q": [1.0, 1.0, -1.0],
                "protocol": {"kind": "hyperface", "z": [1, 1, -1]},
            },
        )
        assert code == 0
        z = np.array([1.0, 1.0, -1.0])
        assert np.allclose(payload["fisher"], np.outer(z, z), atol=1e-10)

    def test_zoo_marginals(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "protocol",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1.0, 0.5],
                "protocol": {"kind": "zoo", "a": [1.0, 0.5]},
            },
        )
        assert code == 0
        assert np.allclose(payload["fisher"], [[1.0, 0.5], [0.5, 1.0]], atol=1e-8)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("variant", ["branched", "pure"])
    def test_non_finite_zoo_distribution_exits_2(self, tmp_path, capsys, variant):
        config = {
            "schema_version": 1,
            "family": {"kind": "pauli-z", "N": 2},
            "q": [1.0, 0.5],
            "protocol": {"kind": "zoo", "p": [0.5, float("nan"), 0.25, 0.25], "variant": variant},
        }
        assert main(["protocol", write_config(tmp_path, config)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "ArgumentError"

    def test_wrong_face_fails_when_claimed_optimal(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "protocol",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1.0, 0.5],
                "protocol": {"kind": "hyperface", "z": [1, 1], "expect_optimal": True},
            },
        )
        assert code == 1
        assert payload["kissing_residual"] == pytest.approx(0.5)

    def test_wrong_face_fails_at_a_large_target_scale(self, tmp_path):
        # the residual scales as 1/|q|: 5e-9 here, under the tolerance's
        # absolute value, yet half the size of F b at saturation
        code, payload = run_json(
            tmp_path,
            "protocol",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1e8, 0.5e8],
                "protocol": {"kind": "hyperface", "z": [1, 1], "expect_optimal": True},
            },
        )
        assert code == 1
        assert payload["kissing_residual"] == pytest.approx(5e-9)

    def test_corner_at_a_smooth_pair_point_misses(self, tmp_path):
        # the cross-polytope mixture is built for the pair family's dimension and
        # misses the kiss at a smooth point; the optimal protocol makes it there
        config = {
            "schema_version": 1,
            "family": {"kind": "epsilon-pair", "epsilon": 0.5},
            "q": [1.0, 0.2],
            "protocol": {"kind": "corner"},
        }
        code, payload = run_json(tmp_path, "protocol", config)
        assert code == 1
        assert payload["protocol"]["kind"] == "corner"
        assert payload["kissing_residual"] > 0.1
        code, payload = run_json(tmp_path, "protocol", {**config, "protocol": {"kind": "optimal"}})
        assert code == 0
        assert payload["protocol"]["kind"] == "optimal"
        assert payload["kissing_residual"] < 1e-12


class TestSimulateCommand:
    def test_within_band_and_deterministic(self, tmp_path):
        first = tmp_path / "a.json"
        second = tmp_path / "b.json"
        config = write_config(tmp_path, PASSING_SIM)
        assert main(["simulate", config, "--output", str(first)]) == 0
        assert main(["simulate", config, "--output", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()
        payload = json.loads(first.read_text())
        assert 0.95 <= payload["report"]["variance_times_shots"] <= 1.05
        assert payload["report"]["within_tolerance"] is True

    def test_seed_override_changes_output(self, tmp_path):
        base = tmp_path / "a.json"
        other = tmp_path / "b.json"
        config = write_config(tmp_path, PASSING_SIM)
        main(["simulate", config, "--output", str(base)])
        main(["simulate", config, "--output", str(other), "--seed", "43"])
        assert base.read_bytes() != other.read_bytes()
        assert json.loads(other.read_text())["seed"] == 43

    def test_shots_override(self, tmp_path):
        out = tmp_path / "r.json"
        config = write_config(tmp_path, PASSING_SIM)
        main(["simulate", config, "--output", str(out), "--shots", "2000"])
        assert json.loads(out.read_text())["report"]["shots"] == 2000

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        config = write_config(tmp_path, PASSING_SIM)
        code = main(["simulate", config, "--output", str(out), "--format", "csv"])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("protocol,dq,shots")
        assert lines[1].startswith("corner,")
        header, row = csv.reader(lines)
        assert len(header) == len(row) == len(cli.CSV_HEADER)

    def test_missing_simulate_block(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1.0, 0.5],
                "protocol": {"kind": "corner"},
            },
        )
        assert main(["simulate", config]) == 2

    @pytest.mark.parametrize("simulate_block", [None, PASSING_SIM["simulate"]])
    def test_shots_override_validated_like_the_file(self, tmp_path, capsys, simulate_block):
        payload = {key: value for key, value in PASSING_SIM.items() if key != "simulate"}
        if simulate_block is not None:
            payload["simulate"] = simulate_block
        config = write_config(tmp_path, payload)
        assert main(["simulate", config, "--shots", "0"]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "schema"

    @pytest.mark.parametrize("command", ["bound", "protocol", "geometry", "verify"])
    @pytest.mark.parametrize("flag", ["--seed", "--shots"])
    def test_simulation_flags_rejected_elsewhere(self, tmp_path, command, flag):
        config = write_config(tmp_path, PASSING_SIM)
        with pytest.raises(SystemExit) as exit_info:
            main([command, config, flag, "0"])
        assert exit_info.value.code == 2

    def test_starved_kink_branch_is_refused_by_name(self, tmp_path, capsys):
        # q = [1, 0.999999] sits at a vertex whose second face has weight 5e-7:
        # 2,000 shots leave it none, and the refusal names the budget it needs
        config = {**PASSING_SIM, "q": [1.0, 0.999999], "protocol": {"kind": "optimal"}}
        config["simulate"] = {**PASSING_SIM["simulate"], "shots": 2000}
        assert main(["simulate", write_config(tmp_path, config)]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["error"] == "EstimationError"
        assert error["message"] == "the least branch weight 5.000e-07 needs 2000000 shots, not 2000"

    def test_mean_unbiased_at_fiducial(self, tmp_path):
        code, payload = run_json(tmp_path, "simulate", PASSING_SIM)
        rep = payload["report"]
        se_mean = np.sqrt(rep["empirical_variance"] / rep["repetitions"])
        assert abs(rep["mean"]) < 3 * se_mean


class TestGeometryCommand:
    def test_octahedron(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "geometry",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 3},
                "q": [1.0, 2 / 3, 1 / 3],
                "geometry": {"resolution": 64},
            },
        )
        assert code == 0
        vertices = np.array(payload["vertices"])
        expected = np.concatenate([np.eye(3), -np.eye(3)])
        assert np.allclose(vertices, expected)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1, 0.5, 1.0])
    def test_pair_sweep_keeps_cusps(self, tmp_path, epsilon):
        code, payload = run_json(
            tmp_path,
            "geometry",
            {
                "schema_version": 1,
                "family": {"kind": "epsilon-pair", "epsilon": epsilon},
                "q": [0.3, 1.0],
                "geometry": {"resolution": 16},
            },
        )
        assert code == 0
        samples = np.array(payload["samples"])
        assert samples.shape == (16, 2)
        # the second-axis cusps stay on the unit circle at +/- e_2
        vertical = samples[np.argmin(np.abs(samples[:, 0]))]
        assert abs(abs(vertical[1]) - 1.0) < 1e-10

    def test_sphere(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "geometry",
            {"schema_version": 1, "family": {"kind": "bloch"}, "q": [0.0, 0.0, 1.0]},
        )
        assert code == 0
        radii = np.linalg.norm(np.array(payload["samples"]), axis=1)
        assert np.allclose(radii, 1.0, atol=1e-10)

    def test_too_many_parameters(self, tmp_path):
        config = write_config(
            tmp_path,
            {"schema_version": 1, "family": {"kind": "pauli-z", "N": 4}, "q": [1.0, 0.5, 0.25, 0.1]},
        )
        assert main(["geometry", config]) == 2

    @pytest.mark.parametrize(
        "family, q, unit_norm",
        [
            ({"kind": "bloch"}, [0.3, -0.4, 1.2], np.linalg.norm),
            # |s_1| + sqrt(s_2^2 + 2 epsilon s_1^2) at epsilon = 0.3
            ({"kind": "epsilon-pair", "epsilon": 0.3}, [1.0, 0.5], lambda s: abs(s[0]) + np.hypot(s[1], 0.6**0.5 * s[0])),
            # the Pauli matrices themselves: twice the Bloch generators, so twice the Euclidean norm
            (custom_family(PAULIS), [0.3, -0.4, 1.2], lambda s: 2.0 * np.linalg.norm(s)),
        ],
    )
    def test_one_eigen_solve_per_mesh(self, tmp_path, monkeypatch, family, q, unit_norm):
        calls, eigvalsh = [], np.linalg.eigvalsh

        def counted(*args, **kwargs):
            calls.append(1)
            return eigvalsh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        config = {"schema_version": 1, "family": family, "q": q, "geometry": {"resolution": 500}}
        code, payload = run_json(tmp_path, "geometry", config)
        assert code == 0
        assert len(calls) == 1
        assert len(payload["samples"]) == 500
        assert max(abs(unit_norm(s) - 1.0) for s in payload["samples"]) <= 1e-12

    def test_fisher_ellipsoid_attached(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "geometry",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1.0, 0.5],
                "protocol": {"kind": "corner"},
            },
        )
        assert code == 0
        assert np.allclose(payload["fisher_ellipsoid"], [[1.0, 0.5], [0.5, 1.0]], atol=1e-10)
        assert payload["level_normal"] == [1.0, 0.5]


class TestVerifyCommand:
    def test_saturating_protocol_verifies(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "verify",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1.0, 0.5],
                "protocol": {"kind": "corner"},
            },
        )
        assert code == 0
        assert all(payload["checks"].values())

    def test_mismatched_face_fails(self, tmp_path):
        code, payload = run_json(
            tmp_path,
            "verify",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1.0, 0.5],
                "protocol": {"kind": "hyperface", "z": [1, 1]},
            },
        )
        assert code == 1
        assert payload["checks"]["kissing"] is False

    def test_saturating_corner_verifies_at_a_small_target_scale(self, tmp_path):
        # every q_j times 1e-8 stretches b, and the residual's round-off, by 1e8
        code, payload = run_json(
            tmp_path,
            "verify",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 3},
                "q": [1e-8, 2e-8 / 3, 1e-8 / 3],
                "protocol": {"kind": "corner"},
            },
        )
        assert code == 0
        assert all(payload["checks"].values())
        assert payload["kissing_residual"] > 1e-8

    @pytest.mark.parametrize("perturb", ["weight", "pair"])
    def test_duality_recomputes_the_certificate(self, tmp_path, monkeypatch, perturb):
        # duality recomputes every cut from its stored pair; one weight moved by
        # 1e-6, or one pair swapped for its mirror, no longer proves the norm
        config = {"schema_version": 1, "family": {"kind": "epsilon-pair", "epsilon": 0.5}, "q": [1.0, 0.3]}
        code, payload = run_json(tmp_path, "verify", config)
        assert code == 0 and payload["checks"] == {"duality": True}
        minimize_norm = cli.minimize_norm

        def perturbed(family, dq):
            result = minimize_norm(family, dq)
            cert = result.certificate
            if perturb == "weight":
                cert = dataclasses.replace(cert, weights=cert.weights + 1e-6 * np.eye(len(cert.weights))[0])
            else:
                cert = dataclasses.replace(cert, pairs=np.concatenate([cert.pairs[::-1, :1], cert.pairs[:, 1:]], axis=1))
            return dataclasses.replace(result, certificate=cert)

        monkeypatch.setattr(cli, "minimize_norm", perturbed)
        code, payload = run_json(tmp_path, "verify", config)
        assert code == 1
        assert payload["checks"] == {"duality": False}

    def test_bound_missed_by_a_small_target_is_not_attained(self, tmp_path):
        # a = [0.5, 0.5] attains 16/15 of the bound; at q ~ 1e-6 the bound
        # is ~1e-12, so an absolute tolerance would pass the 7% excess
        code, payload = run_json(
            tmp_path,
            "verify",
            {
                "schema_version": 1,
                "family": {"kind": "pauli-z", "N": 2},
                "q": [1e-6, 0.5e-6],
                "protocol": {"kind": "zoo", "a": [0.5, 0.5]},
            },
        )
        assert code == 1
        assert payload["attained_variance"] == pytest.approx(16 / 15 * payload["variance_bound"])
        assert payload["checks"]["bound_attained"] is False


class TestOptimalOnRandomFamilies:
    """`verify` with the `optimal` protocol on random custom families: the
    certificate's cat mixture kisses the unit ball wherever the minimizer
    lands, smooth or kinked."""

    def test_fifty_families_verify(self, tmp_path):
        rng = np.random.default_rng([30, 2])
        simulated = 0
        for _ in range(50):
            dim = int(rng.integers(2, 7))
            n = int(rng.integers(2, min(5, dim * dim - 1) + 1))
            gens = []
            for _ in range(n):
                raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
                gens.append(0.5 * (raw + raw.conj().T))
            q = rng.standard_normal(n)
            config = {"schema_version": 1, "family": custom_family(gens), "q": q.tolist()}
            code, bound = run_json(tmp_path, "bound", config)
            assert code == 0
            code, payload = run_json(tmp_path, "verify", {**config, "protocol": {"kind": "optimal"}})
            assert code == 0, payload["checks"]
            assert payload["kissing_residual"] <= 1e-8 * bound["norm"] ** 2 * np.max(np.abs(q))
            if simulated < 4 and not bound["at_corner"]:
                # the one-branch protocol of a smooth minimum runs at 2,000 shots
                simulate = {"shots": 2000, "repetitions": 200, "seed": 3}
                code, payload = run_json(tmp_path, "simulate", {**config, "protocol": {"kind": "optimal"}, "simulate": simulate})
                assert code == 0, payload
                simulated += 1
        assert simulated == 4


class TestSchemaHandling:
    def test_missing_family(self, tmp_path, capsys):
        config = write_config(tmp_path, {"schema_version": 1, "q": [1.0]})
        assert main(["bound", config]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["error"] == "schema"

    def test_wrong_version(self, tmp_path):
        config = write_config(tmp_path, {"schema_version": 99, "family": {"kind": "bloch"}, "q": [1, 0, 0]})
        assert main(["bound", config]) == 2

    def test_q_length_mismatch(self, tmp_path):
        config = write_config(
            tmp_path, {"schema_version": 1, "family": {"kind": "pauli-z", "N": 3}, "q": [1.0, 0.5]}
        )
        assert main(["bound", config]) == 2

    def test_missing_file(self):
        assert main(["bound", "/nonexistent/config.json"]) == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bound", str(path)]) == 2

    def test_custom_family_generators_inline(self, tmp_path):
        half_z = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
        code, payload = run_json(
            tmp_path,
            "bound",
            {
                "schema_version": 1,
                "family": {"kind": "custom-unitary", "generators": [half_z]},
                "q": [2.0],
            },
        )
        assert code == 0
        assert payload["variance_bound"] == pytest.approx(4.0, abs=1e-9)

    def test_custom_family_generators_from_file(self, tmp_path):
        gens_path = tmp_path / "gens.json"
        gens_path.write_text(json.dumps([[[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]]))
        code, payload = run_json(
            tmp_path,
            "bound",
            {
                "schema_version": 1,
                "family": {"kind": "custom-unitary", "generators_path": str(gens_path)},
                "q": [1.0],
            },
        )
        assert code == 0

    def test_invisible_target_exits_2(self, tmp_path, capsys):
        half_z = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-0.5, 0.0]]]
        config = {
            "schema_version": 1,
            "family": {"kind": "custom-unitary", "generators": [half_z, half_z]},
            "q": [1.0, -1.0],
        }
        assert main(["bound", write_config(tmp_path, config)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "UnboundedVarianceError"

    def test_out_of_memory_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(config):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setitem(cli.COMMANDS, "verify", exhausted)
        assert main(["verify", write_config(tmp_path, PASSING_SIM)]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["error"] == "ResourceLimitError"
        assert "2.00 GiB" in error["message"]

    def test_missing_generators_file(self, tmp_path):
        config = write_config(
            tmp_path,
            {
                "schema_version": 1,
                "family": {"kind": "custom-unitary", "generators_path": "/nope.json"},
                "q": [1.0],
            },
        )
        assert main(["bound", config]) == 2

    @pytest.mark.parametrize(
        "family",
        [
            {"kind": "custom-unitary", "generators": ["a"]},
            {"kind": "custom-unitary", "generators": [[[[1, 0]], [[1, 0], [0, 0]]]]},
            {"kind": "custom-unitary", "generators_path": "generators.txt"},
        ],
        ids=["non-numeric", "ragged", "non-json-file"],
    )
    def test_malformed_generators_exit_2(self, tmp_path, capsys, monkeypatch, family):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "generators.txt").write_text("[[[0.5, 0.0")
        config = write_config(tmp_path, {"schema_version": 1, "family": family, "q": [1.0]})
        assert main(["bound", config]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "schema"

    def test_config_directory_exits_2(self, tmp_path, capsys):
        assert main(["bound", str(tmp_path)]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "schema"

    def test_generators_directory_exits_2(self, tmp_path, capsys):
        (tmp_path / "generators").mkdir()
        family = {"kind": "custom-unitary", "generators_path": str(tmp_path / "generators")}
        config = write_config(tmp_path, {"schema_version": 1, "family": family, "q": [1.0]})
        assert main(["bound", config]) == 2
        assert json.loads(capsys.readouterr().out)["error"] == "schema"

    @pytest.mark.parametrize("target", ["directory", "missing-parent"])
    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, target, via):
        # the IsADirectoryError or FileNotFoundError of the write once exited 3 as an internal defect
        out = tmp_path if target == "directory" else tmp_path / "missing" / "out.json"
        config = {"schema_version": 1, "family": {"kind": "bloch"}, "q": [0.0, 0.0, 2.0]}
        flags = ["--output", str(out)] if via == "flag" else []
        if via == "config":
            config["output"] = {"path": str(out)}
        assert main(["bound", write_config(tmp_path, config), *flags]) == 2
        error = json.loads(capsys.readouterr().out)
        assert error["error"] == "schema"
        assert repr(str(out)) in error["message"]

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        def broken(config):
            raise RuntimeError("unexpected state")

        monkeypatch.setitem(cli.COMMANDS, "verify", broken)
        assert main(["verify", write_config(tmp_path, PASSING_SIM)]) == 3
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        error = json.loads(lines[0])
        assert error["error"] == "internal"
        assert error["message"] == "RuntimeError: unexpected state"


class TestRoundTrip:
    def test_all_artifacts_reparse(self, tmp_path):
        for command, payload in (
            ("bound", {"schema_version": 1, "family": {"kind": "pauli-z", "N": 2}, "q": [1.0, 0.5]}),
            (
                "protocol",
                {
                    "schema_version": 1,
                    "family": {"kind": "pauli-z", "N": 2},
                    "q": [1.0, 0.5],
                    "protocol": {"kind": "corner"},
                },
            ),
            (
                "geometry",
                {"schema_version": 1, "family": {"kind": "bloch"}, "q": [0.0, 0.0, 1.0]},
            ),
        ):
            code, parsed = run_json(tmp_path, command, payload)
            assert code == 0
            assert isinstance(parsed, dict)

    def test_console_entry_point(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(
            json.dumps({"schema_version": 1, "family": {"kind": "pauli-z", "N": 2}, "q": [1.0, 0.5]})
        )
        result = subprocess.run(
            [sys.executable, "-m", "qproc.cli", "bound", str(config)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["variance_bound"] == 1.0


def modules_loaded_by_cli(package: str) -> str:
    """The modules of ``package`` that importing qproc.cli loads in a fresh interpreter."""
    probe = f"import sys, qproc.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


@pytest.mark.parametrize(
    "name", ["cli", "errors", "families", "operators", "protocols", "qfisher", "simulate", "tangent"]
)
def test_submodule_imports_as_a_module(name):
    # `import qproc.<name> as m` binds the package attribute <name>, which
    # a re-exported function of the same name would shadow
    module = importlib.import_module(f"qproc.{name}")
    assert getattr(sys.modules["qproc"], name) is module


def test_cli_imports_no_scipy():
    # scipy is not a dependency; importing scipy.optimize alone costs about
    # 1 s and 48 MB of resident memory, more than a whole `bound` run
    assert modules_loaded_by_cli("scipy") == "[]"


def test_cli_imports_no_jsonschema():
    # qproc checks configs itself; jsonschema is needed by the tests alone
    assert modules_loaded_by_cli("jsonschema") == "[]"


@pytest.mark.parametrize(
    "place, keyword, rule",
    [
        (("properties", "q", "items"), "multipleOf", 0.5),
        (("properties", "protocol", "allOf", 0, "then"), "maxProperties", 3),
        (("properties", "protocol", "properties", "p", "additionalProperties"), "format", "double"),
    ],
)
def test_schema_keyword_check_refuses_unimplemented_keywords(place, keyword, rule):
    schema = copy.deepcopy(cli.CONFIG_SCHEMA)
    node = schema
    for key in place:
        node = node[key]
    node[keyword] = rule
    with pytest.raises(ValueError, match="checker does not implement"):
        cli.check_schema_keywords(schema)
