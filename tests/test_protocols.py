import json
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qproc import (
    ArgumentError,
    BlochFamily,
    BranchStack,
    DensityOperator,
    EpsilonPairFamily,
    InvariantViolation,
    OneForm,
    PauliZFamily,
    ProcessFamily,
    Protocol,
    SignString,
    TangentVector,
    UnsupportedProtocolError,
    ZooAmplitudes,
    bloch_protocol,
    born_rule,
    branch_distribution,
    corner_protocol,
    hyperedge_protocol,
    hyperface_protocol,
    kissing_residual,
    matrix_from_pairs,
    minimize_norm,
    mixture,
    optimal_protocol,
    parity_eigenvalue,
    parity_operator,
    protocol_fisher,
    zoo_protocol,
)

from qproc import Branch, Povm, PureState, cli
from qproc.cli import family_from_config, protocol_from_config
from qproc.qfisher import classical_fisher

from conftest import random_hermitian, random_traceless_hermitian

GOLDEN = Path(__file__).parent / "golden"


def _printed_protocols():
    """(case, output) for each golden `protocol` case that prints a protocol, not an error."""
    for case in json.loads((GOLDEN / "cases.json").read_text()):
        if case["argv"][0] == "protocol":
            out = json.loads((GOLDEN / f"{case['name']}.out").read_text())
            if "protocol" in out:
                yield case, out


PROTOCOL_GOLDENS = list(_printed_protocols())


def _golden_protocol_configs():
    """(name, family, protocol) for each golden config whose protocol block builds."""
    for case in json.loads((GOLDEN / "cases.json").read_text()):
        config = case["config"]
        if "protocol" not in config:
            continue
        family = family_from_config(config)
        try:
            yield case["name"], family, protocol_from_config(config, family)
        except UnsupportedProtocolError:
            continue


GOLDEN_PROTOCOLS = list(_golden_protocol_configs())


class TestSignString:
    def test_parse_text(self):
        assert SignString.parse("+-0").entries == (1, -1, 0)

    def test_parse_sequence(self):
        assert SignString.parse([1, -1, 1]).entries == (1, -1, 1)

    def test_round_trip_text(self):
        assert str(SignString.parse("+-0")) == "+-0"

    def test_bad_entry(self):
        with pytest.raises(ArgumentError):
            SignString((2, 1))

    def test_non_integer_entries_refused(self):
        # int() would truncate these to the valid string +0
        with pytest.raises(ArgumentError):
            SignString.parse([1.9, -0.4])

    def test_integral_floats_parse(self):
        # the config schema's enum admits 1.0 for 1
        assert SignString.parse([1.0, -1.0]).entries == (1, -1)

    @pytest.mark.parametrize("entries", [[True, False], np.array([True, False])])
    def test_booleans_refused(self, entries):
        # True == 1 and False == 0, so a value test alone reads these as +0
        with pytest.raises(ArgumentError):
            SignString.parse(entries)


class TestHyperface:
    def test_single_qubit(self):
        protocol = hyperface_protocol([1])
        branch = protocol.branches[0]
        assert np.allclose(branch.fiducial.amplitudes, np.array([1, 1]) / np.sqrt(2))
        fisher = protocol_fisher(protocol, PauliZFamily(1))
        assert np.allclose(fisher.entries, [[1.0]], atol=1e-12)

    def test_two_qubit_face(self):
        protocol = hyperface_protocol([1, 1])
        fisher = protocol_fisher(protocol, PauliZFamily(2))
        assert np.allclose(fisher.entries, np.ones((2, 2)), atol=1e-12)

    def test_zero_entry_redirects(self):
        with pytest.raises(ArgumentError, match="hyperedge"):
            hyperface_protocol([1, 0])

    def test_probabilities_are_sinusoids(self, rng):
        # exact Born probabilities against the closed sinusoid for commuting rotations
        for _ in range(10):
            n = int(rng.integers(1, 5))
            signs = rng.choice([1, -1], size=n)
            protocol = hyperface_protocol(signs)
            family = PauliZFamily(n)
            theta = rng.uniform(-1.0, 1.0, size=n)
            probs = branch_distribution(protocol.stacks[0], family, theta)[0]
            s = float(signs @ theta)
            assert probs[0] == pytest.approx(0.5 * (1 + np.sin(s)), abs=1e-12)
            assert probs[1] == pytest.approx(0.5 * (1 - np.sin(s)), abs=1e-12)
            assert np.max(probs[2:], initial=0.0) < 1e-14

    def test_all_faces_give_rank_one_outer_products(self, rng):
        from itertools import product

        n = 3
        family = PauliZFamily(n)
        for signs in product((1, -1), repeat=n):
            z = np.array(signs, dtype=float)
            fisher = protocol_fisher(hyperface_protocol(signs), family)
            assert np.max(np.abs(fisher.entries - np.outer(z, z))) < 1e-8


class TestParity:
    def test_three_qubit_parity_diagonalizes_icats(self):
        protocol = hyperface_protocol([1, 1, 1])
        povm = protocol.branches[0].measurement
        parity = parity_operator(3)
        for index, sign in ((0, 1), (1, -1)):
            # recover the measurement vector from the rank-one projector
            element = povm.elements[index].entries
            vec = element[:, np.argmax(np.diag(element).real)]
            vec = vec / np.linalg.norm(vec)
            expected = parity_eigenvalue([1, 1, 1], sign)
            assert np.allclose(parity.entries @ vec, expected * vec, atol=1e-12)
        assert parity_eigenvalue([1, 1, 1], 1) == -(-1) ** 2 * 1

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_eigenvalue_formula_matches_matrix(self, rng, n):
        parity = parity_operator(n)
        for _ in range(5):
            signs = tuple(int(s) for s in rng.choice([1, -1], size=n))
            protocol = hyperface_protocol(signs)
            povm = protocol.branches[0].measurement
            for index, sign in ((0, 1), (1, -1)):
                element = povm.elements[index].entries
                vec = element[:, np.argmax(np.diag(element).real)]
                vec = vec / np.linalg.norm(vec)
                expected = parity_eigenvalue(signs, sign)
                assert np.allclose(parity.entries @ vec, expected * vec, atol=1e-12)


class TestCornerStrategy:
    def test_two_parameter_weights(self):
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        assert [b.weight for b in protocol.branches] == [0.75, 0.25]
        assert [str(b.sign_string) for b in protocol.branches] == ["++", "+-"]
        fisher = protocol_fisher(protocol, PauliZFamily(2))
        assert np.allclose(fisher.entries, [[1.0, 0.5], [0.5, 1.0]], atol=1e-12)

    def test_five_parameter_weights(self):
        dq = OneForm([1.0, 4 / 5, 2 / 3, -1 / 2, 1 / 4])
        protocol = corner_protocol(dq)
        weights = [b.weight for b in protocol.branches]
        assert np.allclose(weights, [0.625, 0.1, 1 / 15, 1 / 12, 0.125])
        assert sum(weights) == pytest.approx(1.0, abs=1e-12)
        assert str(protocol.branches[0].sign_string) == "+++-+"
        assert str(protocol.branches[1].sign_string) == "+--+-"

    def test_tie_degenerates_to_single_face(self):
        protocol = corner_protocol(OneForm([1.0, 1.0]))
        assert len(protocol.branches) == 1
        assert str(protocol.branches[0].sign_string) == "++"

    def test_saturates_kissing_condition(self):
        family = PauliZFamily(3)
        dq = OneForm([1.0, 2 / 3, 1 / 3])
        protocol = corner_protocol(dq)
        fisher = protocol_fisher(protocol, family)
        result = minimize_norm(family, dq)
        assert kissing_residual(fisher, result.vector, family, dq) < 1e-9


class TestCornerProtocolGeneral:
    def test_zeros_become_edge_slots(self):
        protocol = corner_protocol(OneForm([0.5, 1.0, 0.0]))
        strings = [str(b.sign_string) for b in protocol.branches]
        assert strings == ["++0", "-+0"]
        weights = [b.weight for b in protocol.branches]
        assert np.allclose(weights, [0.75, 0.25])
        # estimator weights carry the overall scale of the target
        assert [b.estimator_weight for b in protocol.branches] == pytest.approx([0.75, 0.25])

    def test_scale_in_estimator_weights(self):
        protocol = corner_protocol(OneForm([2.0, 1.0]))
        assert [b.weight for b in protocol.branches] == pytest.approx([0.75, 0.25])
        assert [b.estimator_weight for b in protocol.branches] == pytest.approx([1.5, 0.5])

    def test_negative_leader(self):
        family = PauliZFamily(2)
        dq = OneForm([-1.0, 0.5])
        protocol = corner_protocol(dq)
        fisher = protocol_fisher(protocol, family)
        result = minimize_norm(family, dq)
        assert kissing_residual(fisher, result.vector, family, dq) < 1e-9


class TestHyperedge:
    def test_insensitive_slot(self):
        protocol = hyperedge_protocol([1, 0])
        fisher = protocol_fisher(protocol, PauliZFamily(2))
        assert np.allclose(fisher.entries, [[1.0, 0.0], [0.0, 0.0]], atol=1e-12)

    def test_three_qubit_edge(self):
        protocol = hyperedge_protocol([1, -1, 0])
        fisher = protocol_fisher(protocol, PauliZFamily(3))
        expected = np.array([[1, -1, 0], [-1, 1, 0], [0, 0, 0]], dtype=float)
        assert np.allclose(fisher.entries, expected, atol=1e-12)

    def test_no_zeros_reduces_to_hyperface(self):
        edge = hyperedge_protocol([1, -1])
        face = hyperface_protocol([1, -1])
        eb, fb = edge.branches[0], face.branches[0]
        assert np.array_equal(eb.fiducial.amplitudes, fb.fiducial.amplitudes)
        assert eb.measurement.labels == fb.measurement.labels
        for a, b in zip(eb.measurement.elements, fb.measurement.elements):
            assert np.array_equal(a.entries, b.entries)

    def test_all_zero_rejected(self):
        with pytest.raises(ArgumentError):
            hyperedge_protocol([0, 0])

    def test_insensitivity_at_finite_displacement(self, rng):
        protocol = hyperedge_protocol([1, -1, 0])
        family = PauliZFamily(3)
        theta = np.array([0.2, -0.1, 0.0])
        base = branch_distribution(protocol.stacks[0], family, theta)[0]
        for _ in range(10):
            shift = theta.copy()
            shift[2] = rng.uniform(-1, 1)
            moved = branch_distribution(protocol.stacks[0], family, shift)[0]
            assert np.max(np.abs(moved - base)) < 1e-12


class TestZoo:
    def test_uniform_marginals_give_identity(self):
        protocol = zoo_protocol(ZooAmplitudes(np.zeros(3)))
        fisher = protocol_fisher(protocol, PauliZFamily(3))
        assert np.allclose(fisher.entries, np.eye(3), atol=1e-10)

    def test_unit_marginals_give_face_pair(self):
        protocol = zoo_protocol(ZooAmplitudes(np.ones(2)))
        fisher = protocol_fisher(protocol, PauliZFamily(2))
        assert np.allclose(fisher.entries, np.ones((2, 2)), atol=1e-10)

    def test_branched_lift_off_the_fiducial(self):
        # a wrong ancilla lift only shows away from theta = 0
        family = PauliZFamily(3)
        theta = np.array([0.4, -0.7, 0.25])
        protocol = zoo_protocol(ZooAmplitudes(np.zeros(3)))
        assert len(protocol.branches) == 8
        for branch, row in zip(protocol.branches, branch_distribution(protocol.stacks[0], family, theta)):
            assert branch.fiducial.dim == 2 * family.dim
            s = branch.readout_form.components @ theta
            probs = dict(zip(branch.measurement.labels, row))
            assert probs["+"] == pytest.approx((1 + np.sin(s)) / 2, abs=1e-12)
            assert probs["-"] == pytest.approx((1 - np.sin(s)) / 2, abs=1e-12)

    def test_vertex_choice_saturates(self):
        family = PauliZFamily(3)
        dq = OneForm([1.0, 0.6, -0.3])
        # marginals (1, q_2, q_3): tangent at the leading vertex
        amplitudes = ZooAmplitudes([1.0, 0.6, -0.3])
        protocol = zoo_protocol(amplitudes)
        fisher = protocol_fisher(protocol, family)
        assert np.allclose(fisher.entries, zoo_fisher(amplitudes.a), atol=1e-8)
        result = minimize_norm(family, dq)
        assert kissing_residual(fisher, result.vector, family, dq) < 1e-9

    def test_edge_choice_saturates_along_edge(self):
        family = PauliZFamily(3)
        dq = OneForm([1.0, 1.0, 0.4])
        # marginals 1 on the two edge slots, q_3 beyond
        amplitudes = ZooAmplitudes([1.0, 1.0, 0.4])
        fisher = protocol_fisher(zoo_protocol(amplitudes), family)
        for b in (TangentVector([1.0, 0.0, 0.0]), TangentVector([0.5, 0.5, 0.0])):
            assert kissing_residual(fisher, b, family, dq) < 1e-9

    def test_factorized_formula(self, rng):
        for _ in range(10):
            n = int(rng.integers(2, 5))
            amplitudes = ZooAmplitudes(rng.uniform(-0.99, 0.99, size=n))
            fisher = protocol_fisher(zoo_protocol(amplitudes), PauliZFamily(n))
            assert np.max(np.abs(fisher.entries - zoo_fisher(amplitudes.a))) < 1e-8

    def test_mixed_state_variant_identical(self, rng):
        amplitudes = ZooAmplitudes(np.array([0.7, -0.2, 0.4]))
        family = PauliZFamily(3)
        pure = protocol_fisher(zoo_protocol(amplitudes, variant="pure"), family)
        mixed = protocol_fisher(zoo_protocol(amplitudes, variant="mixed"), family)
        branched = protocol_fisher(zoo_protocol(amplitudes), family)
        assert np.max(np.abs(pure.entries - mixed.entries)) < 1e-10
        assert np.max(np.abs(pure.entries - branched.entries)) < 1e-8

    def test_distribution_inputs(self):
        by_dict = zoo_protocol({"++": 0.75, "+-": 0.25})
        by_array = zoo_protocol([0.75, 0.25, 0.0, 0.0], n_params=2)
        assert [b.weight for b in by_dict.branches] == [0.75, 0.25]
        assert [b.weight for b in by_array.branches] == [0.75, 0.25]

    def test_invalid_distribution(self):
        with pytest.raises(ArgumentError):
            zoo_protocol([0.5, 0.2, 0.0, 0.0], n_params=2)

    @pytest.mark.parametrize("empty", [{}, [], [1.0]], ids=["dict", "array", "no-slots"])
    def test_empty_distribution_rejected(self, empty):
        with pytest.raises(ArgumentError, match="zoo distribution"):
            zoo_protocol(empty)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("variant", ["branched", "pure"])
    def test_non_finite_distribution_rejected(self, bad, variant):
        with pytest.raises(ArgumentError, match="non-finite"):
            zoo_protocol([0.5, bad, 0.25, 0.25], n_params=2, variant=variant)
        with pytest.raises(ArgumentError, match="non-finite"):
            zoo_protocol({"++": 0.5, "+-": bad, "-+": 0.25, "--": 0.25}, variant=variant)

    def test_non_finite_marginals_rejected(self):
        with pytest.raises(InvariantViolation):
            ZooAmplitudes(np.array([1.0, np.nan]))

    def test_marginals_are_a_frozen_copy(self):
        a = np.array([1.0, 0.5])
        amplitudes = ZooAmplitudes(a)
        a[1] = 0.0
        assert amplitudes.a[1] == 0.5
        assert not amplitudes.a.flags.writeable


class TestBlochProtocol:
    def test_z_axis(self):
        protocol = bloch_protocol(OneForm([0.0, 0.0, 1.0]))
        fisher = protocol_fisher(protocol, BlochFamily())
        assert np.allclose(fisher.entries, np.diag([0.0, 0.0, 1.0]), atol=1e-12)

    def test_diagonal_axis(self):
        q = np.array([1.0, 1.0, 1.0]) / np.sqrt(3)
        fisher = protocol_fisher(bloch_protocol(OneForm(q)), BlochFamily())
        assert np.allclose(fisher.entries, np.full((3, 3), 1 / 3), atol=1e-12)

    def test_scale_recorded_in_estimator_weight(self):
        protocol = bloch_protocol(OneForm([0.0, 0.0, 2.0]))
        branch = protocol.branches[0]
        assert branch.estimator_weight == pytest.approx(2.0)
        assert np.allclose(branch.readout_form.components, [0.0, 0.0, 1.0])

    def test_saturates_bound(self, rng):
        family = BlochFamily()
        for _ in range(10):
            q = rng.standard_normal(3)
            dq = OneForm(q)
            protocol = bloch_protocol(dq)
            fisher = protocol_fisher(protocol, family)
            result = minimize_norm(family, dq)
            assert kissing_residual(fisher, result.vector, family, dq) < 1e-9

    def test_orthogonal_displacements_at_linearization_scale(self, rng):
        # the readout depends on the target component only: exactly at first
        # order, and to O(|theta|^2) at finite displacement
        q = np.array([0.0, 0.0, 1.0])
        protocol = bloch_protocol(OneForm(q))
        family = BlochFamily()
        base = branch_distribution(protocol.stacks[0], family, np.zeros(3))[0]
        for _ in range(100):
            direction = rng.standard_normal(3)
            direction -= q * (q @ direction)
            direction /= np.linalg.norm(direction)
            moved = branch_distribution(protocol.stacks[0], family, 1e-6 * direction)[0]
            assert np.max(np.abs(moved - base)) < 1e-12

    def test_wrong_parameter_count(self):
        with pytest.raises(ArgumentError):
            bloch_protocol(OneForm([1.0, 0.0]))


class TestBranchDistribution:
    def test_pauli_z_corner_makes_no_eigen_solves(self, monkeypatch):
        protocol = corner_protocol(OneForm([1.0, 0.6, 0.3]))
        family = PauliZFamily(3)
        calls = []
        original = np.linalg.eigh

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for probs in branch_distribution(protocol.stacks[0], family, [0.1, -0.2, 0.05]):
            assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(calls) == 0


class TestCatBranches:
    """Cat branches hold the two conjugate columns and one complement outcome."""

    def test_two_columns_and_a_complement(self):
        protocols = (
            corner_protocol(OneForm([1.0, 0.6, 0.0, -0.3])),
            hyperedge_protocol([1, 0, -1]),
            zoo_protocol(ZooAmplitudes(np.array([0.8, -0.3]))),
        )
        for protocol in protocols:
            for branch in protocol.branches:
                assert branch.measurement.basis.shape == (branch.fiducial.dim, 2)
                assert branch.measurement.labels == ("+", "-", "null")

    def test_complement_fires_where_the_state_leaks(self):
        # off the fiducial point the pair family rotates the state out of
        # the cat span, and the complement takes the rest of the weight
        family = EpsilonPairFamily(0.7)
        protocol = optimal_protocol(family, OneForm([0.2, -1.0]))
        branch = protocol.branches[0]
        theta = np.array([0.3, -0.2])
        psi = family.evolve(theta, branch.fiducial.columns())[:, 0]
        probs = branch_distribution(protocol.stacks[0], family, theta)[0]
        dense = [np.real(np.vdot(psi, e.entries @ psi)) for e in branch.measurement.elements]
        assert probs[-1] > 1e-3
        assert np.max(np.abs(probs - dense)) < 1e-12

    def test_any_orthonormal_pair_reads_its_cut(self, rng):
        # the cat of orthonormal t, u has Fisher matrix g g^T at the fiducial,
        # g_j = <t|X_j|t> - <u|X_j|u>, whatever the family and the pair
        for _ in range(50):
            dim, n = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            given = [random_hermitian(rng, dim) for _ in range(n)]
            family = ProcessFamily(given)
            q, _ = np.linalg.qr(rng.standard_normal((dim, 2)) + 1j * rng.standard_normal((dim, 2)))
            t, u = q.T
            g = np.array([np.vdot(t, x.entries @ t).real - np.vdot(u, x.entries @ u).real for x in given])
            cat = np.column_stack([t + u, t + 1j * u, t - 1j * u]) / np.sqrt(2)
            stack = BranchStack(
                weights=[1.0],
                columns=cat[None, :, :1],
                bases=cat[None, :, 1:],
                labels=("+", "-", "null"),
                readouts=g[None],
                estimator_weights=[1.0],
            )
            protocol = Protocol(kind="cat", stacks=(stack,), family_dim=dim)
            scale = np.max(np.abs(np.outer(g, g)))
            exact = protocol_fisher(protocol, family).entries
            central = protocol_fisher(protocol, family, derivative="central").entries
            assert np.max(np.abs(exact - np.outer(g, g))) <= 1e-12 * scale
            assert np.max(np.abs(central - np.outer(g, g))) <= 1e-6 * scale
            probs = branch_distribution(protocol.stacks[0], family, np.zeros(n))[0]
            assert np.max(np.abs(probs - [0.5, 0.5, 0.0])) <= 1e-12

    def test_ten_qubit_corner_fisher_in_little_memory(self):
        import tracemalloc

        family = PauliZFamily(10)
        dq = OneForm(np.linspace(1.0, 0.2, 10))
        tracemalloc.start()
        try:
            fisher = protocol_fisher(corner_protocol(dq), family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000
        assert kissing_residual(fisher, minimize_norm(family, dq).vector, family, dq) <= 1e-12


def per_branch_fisher(protocol, family) -> np.ndarray:
    """The Fisher matrix of the protocol one branch at a time, mixed in branch order."""
    total = np.zeros((family.n_params, family.n_params))
    for branch in protocol.branches:
        columns, m = branch.fiducial.columns(), branch.measurement
        probs, jac = born_rule(m.basis, columns, -1j * family.apply(columns), m.complement)
        total += branch.weight * classical_fisher(probs, jac).entries
    return total


def zoo_fisher(a) -> np.ndarray:
    """Closed-form information matrix delta_jk (1 - a_j^2) + a_j a_k of the zoo marginals a."""
    return np.diag(1.0 - a**2) + np.outer(a, a)


def counted_eigvalsh(monkeypatch) -> list:
    calls = []
    original = np.linalg.eigvalsh

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    return calls


class TestStackedPass:
    """The exact Fisher matrix runs each run of same-shape branches as one stacked
    pass; every entry must equal the one-branch-at-a-time computation bit for bit."""

    @pytest.mark.parametrize("name, family, protocol", GOLDEN_PROTOCOLS, ids=[c[0] for c in GOLDEN_PROTOCOLS])
    def test_golden_protocols_match_per_branch(self, name, family, protocol):
        assert np.array_equal(protocol_fisher(protocol, family).entries, per_branch_fisher(protocol, family))

    def test_interleaved_shape_groups_match_per_branch(self):
        # corner branches are dim 4, branched zoo ones dim 8 with the ancilla
        family = PauliZFamily(2)
        corner = corner_protocol(OneForm([1.0, -0.4]))
        zoo = zoo_protocol(ZooAmplitudes(np.array([0.6, -0.2])))
        protocol = mixture([corner, zoo, corner_protocol(OneForm([0.3, 1.0]))], [0.5, 0.3, 0.2])
        stacks = [len(stack) for stack in protocol.stacks]
        assert stacks == [2, 4, 2]
        assert np.array_equal(protocol_fisher(protocol, family).entries, per_branch_fisher(protocol, family))

    def test_ten_qubit_corner_spans_chunks_and_matches_per_branch(self, monkeypatch):
        family = PauliZFamily(10)
        protocol = corner_protocol(OneForm(np.linspace(1.0, 0.2, 10)))
        chunks = []
        apply = family.apply

        def counted(columns):
            chunks.append(len(columns))
            return apply(columns)

        # each of the ten rows is a chunk of its own: one derivative stack is 10 x 1024 entries
        monkeypatch.setattr(family, "apply", counted)
        protocol_fisher(protocol, family)
        monkeypatch.undo()
        assert chunks == [1] * 10
        assert np.array_equal(protocol_fisher(protocol, family).entries, per_branch_fisher(protocol, family))

    def test_six_qubit_corner_makes_two_eigen_solves(self, monkeypatch):
        family = PauliZFamily(6)
        protocol = corner_protocol(OneForm([1.0, -0.8, 0.6, 0.45, -0.3, 0.1]))
        assert len(protocol.branches) == 6
        calls = counted_eigvalsh(monkeypatch)
        protocol_fisher(protocol, family)
        # one positivity test over the stacked branch matrices, one for the mixture
        assert len(calls) == 2

    def test_twelve_qubit_corner_fisher_in_little_memory(self):
        import tracemalloc

        family = PauliZFamily(12)
        protocol = corner_protocol(OneForm(np.linspace(1.0, 0.2, 12)))
        tracemalloc.start()
        try:
            protocol_fisher(protocol, family)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


class TestProtocolFisher:
    def test_theta_independent_branch_gives_zero(self):
        # an eigenstate of every commuting generator carries no information
        stack = BranchStack(
            weights=[1.0],
            columns=np.eye(4)[None, :, :1],
            bases=np.eye(4, dtype=complex)[None],
            labels=["a", "b", "c", "d"],
        )
        protocol = Protocol(kind="static", stacks=(stack,), family_dim=4)
        fisher = protocol_fisher(protocol, PauliZFamily(2))
        assert np.allclose(fisher.entries, np.zeros((2, 2)))

    def test_central_matches_exact(self, rng):
        family = PauliZFamily(3)
        dq = OneForm([1.0, 0.7, 0.2])
        protocol = corner_protocol(dq)
        exact = protocol_fisher(protocol, family, derivative="exact")
        central = protocol_fisher(protocol, family, derivative="central")
        assert np.max(np.abs(exact.entries - central.entries)) < 1e-7

    def test_central_matches_closed_form_for_pair_family(self):
        family = EpsilonPairFamily(0.5)
        dq = OneForm([0.3, 1.0])
        protocol = optimal_protocol(family, dq)
        expected = np.array([[1.0, 0.3], [0.3, 1.0]])
        exact = protocol_fisher(protocol, family, derivative="exact")
        central = protocol_fisher(protocol, family, derivative="central")
        assert np.max(np.abs(exact.entries - expected)) < 1e-8
        assert np.max(np.abs(central.entries - expected)) < 1e-6

    def test_mixture_linearity(self, rng):
        family = PauliZFamily(2)
        first = hyperface_protocol([1, 1])
        second = hyperface_protocol([1, -1])
        combined = mixture([first, second], [0.3, 0.7])
        f_first = protocol_fisher(first, family).entries
        f_second = protocol_fisher(second, family).entries
        f_combined = protocol_fisher(combined, family).entries
        assert np.max(np.abs(f_combined - (0.3 * f_first + 0.7 * f_second))) < 1e-10

    def test_family_dimension_guard(self):
        protocol = hyperface_protocol([1, 1])
        with pytest.raises(ArgumentError):
            protocol_fisher(protocol, PauliZFamily(3))

    def test_unknown_derivative_mode_rejected(self):
        protocol = hyperface_protocol([1, 1])
        with pytest.raises(ArgumentError):
            protocol_fisher(protocol, PauliZFamily(2), derivative="forward")


class TestClosedFormsAgainstBothDerivativeModes:
    @pytest.mark.parametrize(
        "build, family, closed_form",
        [
            (
                lambda: hyperface_protocol([1, -1, 1]),
                PauliZFamily(3),
                np.outer([1, -1, 1], [1, -1, 1]).astype(float),
            ),
            (
                lambda: hyperedge_protocol([1, 0, -1, 0]),
                PauliZFamily(4),
                np.outer([1, 0, -1, 0], [1, 0, -1, 0]).astype(float),
            ),
            (
                lambda: corner_protocol(OneForm([1.0, 0.6, 0.2])),
                PauliZFamily(3),
                None,  # filled below from the mixture weights
            ),
            (
                lambda: zoo_protocol(ZooAmplitudes(np.array([0.8, -0.3, 0.5]))),
                PauliZFamily(3),
                zoo_fisher(np.array([0.8, -0.3, 0.5])),
            ),
            (
                lambda: bloch_protocol(OneForm([2.0, -1.0, 2.0])),
                BlochFamily(),
                np.outer([2, -1, 2], [2, -1, 2]) / 9.0,
            ),
            (
                # one branch whose fiducial is a multi-column mixed state
                lambda: zoo_protocol(ZooAmplitudes(np.array([0.8, -0.3, 0.5])), variant="mixed"),
                PauliZFamily(3),
                zoo_fisher(np.array([0.8, -0.3, 0.5])),
            ),
        ],
    )
    def test_exact_and_central(self, build, family, closed_form):
        protocol = build()
        if closed_form is None:
            closed_form = sum(
                b.weight * np.outer(b.sign_string.entries, b.sign_string.entries)
                for b in protocol.branches
            )
        exact = protocol_fisher(protocol, family, derivative="exact")
        central = protocol_fisher(protocol, family, derivative="central")
        assert np.max(np.abs(exact.entries - closed_form)) < 1e-8
        assert np.max(np.abs(central.entries - closed_form)) < 1e-6


class TestKissingResidual:
    def test_corner_mixture_kisses(self):
        from qproc import FisherMatrix

        fisher = FisherMatrix(np.array([[1.0, 0.5], [0.5, 1.0]]))
        residual = kissing_residual(fisher, TangentVector([1.0, 0.0]), PauliZFamily(2), OneForm([1.0, 0.5]))
        assert residual < 1e-12

    def test_face_on_its_own_form(self):
        from qproc import FisherMatrix

        z = np.array([1.0, 1.0])
        fisher = FisherMatrix(np.outer(z, z))
        residual = kissing_residual(fisher, TangentVector([0.5, 0.5]), PauliZFamily(2), OneForm(z))
        assert residual < 1e-12

    def test_wrong_face_misses(self):
        from qproc import FisherMatrix

        fisher = FisherMatrix(np.ones((2, 2)))
        residual = kissing_residual(fisher, TangentVector([1.0, 0.0]), PauliZFamily(2), OneForm([1.0, 0.5]))
        assert residual == pytest.approx(0.5)

    def test_constraint_violation_rejected(self):
        from qproc import FisherMatrix

        with pytest.raises(ArgumentError):
            kissing_residual(
                FisherMatrix(np.eye(2)), TangentVector([2.0, 0.0]), PauliZFamily(2), OneForm([1.0, 0.5])
            )


class TestOptimalProtocolDispatch:
    def test_commuting_family(self):
        protocol = optimal_protocol(PauliZFamily(2), OneForm([1.0, 0.5]))
        assert protocol.kind == "corner"

    def test_bloch_family(self):
        protocol = optimal_protocol(BlochFamily(), OneForm([1.0, 0.0, 0.0]))
        assert protocol.kind == "bloch"

    def test_pair_cusp(self):
        protocol = optimal_protocol(EpsilonPairFamily(0.7), OneForm([0.2, -1.0]))
        family = EpsilonPairFamily(0.7)
        fisher = protocol_fisher(protocol, family)
        result = minimize_norm(family, OneForm([0.2, -1.0]))
        assert kissing_residual(fisher, result.vector, family, OneForm([0.2, -1.0])) < 1e-9

    def test_pair_smooth_point_unsupported(self):
        with pytest.raises(UnsupportedProtocolError):
            optimal_protocol(EpsilonPairFamily(0.5), OneForm([1.0, 0.2]))

    def test_custom_family_unsupported(self, rng):
        from qproc import ProcessFamily

        family = ProcessFamily([random_traceless_hermitian(rng, 4) for _ in range(2)])
        with pytest.raises(UnsupportedProtocolError):
            optimal_protocol(family, OneForm([1.0, 0.5]))


class TestSerialization:
    def test_round_trip_keys(self):
        protocol = corner_protocol(OneForm([1.0, 0.5]))
        payload = protocol.to_dict()
        assert payload["kind"] == "corner"
        assert len(payload["branches"]) == 2
        branch = payload["branches"][0]
        assert set(branch) == {
            "weight",
            "fiducial",
            "measurement",
            "readout_form",
            "estimator_weight",
            "sign_string",
        }
        assert branch["fiducial"]["type"] == "pure"
        amp = np.array(branch["fiducial"]["amplitudes"])
        assert amp.shape == (4, 2)
        measurement = branch["measurement"]
        assert set(measurement) == {"labels", "vectors"}
        # one row of dim [re, im] pairs per outcome; the trailing label
        # without a row names the complement outcome
        assert measurement["labels"] == ["+", "-", "null"]
        assert np.array(measurement["vectors"]).shape == (2, 4, 2)

    def test_mixed_fiducial_serializes(self):
        protocol = zoo_protocol(ZooAmplitudes(np.array([0.5, 0.5])), variant="mixed")
        payload = protocol.to_dict()
        assert payload["branches"][0]["fiducial"]["type"] == "mixed"


def _stack_from_dict(data: dict) -> BranchStack:
    """Rebuild one branch from the protocol JSON as a one-row stack; the wire
    format's reader lives here, next to the check that it loses nothing."""
    fiducial = data["fiducial"]
    if fiducial["type"] == "pure":
        columns, densities = matrix_from_pairs([fiducial["amplitudes"]]).T, None
    else:
        densities = matrix_from_pairs(fiducial["entries"])
        columns = DensityOperator(densities).columns()
    sign_string = None if data["sign_string"] is None else SignString.parse(data["sign_string"]).entries
    rows = {"readouts": data["readout_form"], "estimator_weights": data["estimator_weight"], "signs": sign_string}
    return BranchStack(
        weights=[data["weight"]],
        columns=columns[None],
        bases=matrix_from_pairs(data["measurement"]["vectors"]).T[None],
        labels=data["measurement"]["labels"],
        densities=None if densities is None else densities[None],
        **{name: None if value is None else [value] for name, value in rows.items()},
    )


def _protocol_from_dict(data: dict) -> Protocol:
    stacks = tuple(_stack_from_dict(branch) for branch in data["branches"])
    return Protocol(kind=data["kind"], stacks=stacks, family_dim=data["family_dim"])


class TestWireRoundTrip:
    @pytest.mark.parametrize(
        "case, golden", PROTOCOL_GOLDENS, ids=[case["name"] for case, _ in PROTOCOL_GOLDENS]
    )
    def test_golden_protocol_round_trips(self, case, golden):
        family = family_from_config(case["config"])
        rebuilt = _protocol_from_dict(golden["protocol"])
        assert protocol_fisher(rebuilt, family).entries.tolist() == golden["fisher"]
        in_memory = protocol_from_config(case["config"], family)
        assert len(rebuilt.branches) == len(in_memory.branches)
        for mine, theirs in zip(rebuilt.branches, in_memory.branches):
            assert mine.measurement.labels == theirs.measurement.labels
            dense = [np.outer(v, v.conj()) for v in mine.measurement.basis.T]
            elements = theirs.measurement.elements
            assert len(elements) == len(mine.measurement.labels)
            for entries, element in zip(dense, elements):
                assert np.array_equal(entries, element.entries)
            if len(elements) > len(dense):
                # a trailing label without a vector is the complement I - sum_x v_x v_x^dag
                complement = np.eye(mine.measurement.dim) - sum(dense)
                assert np.allclose(elements[-1].entries, complement, rtol=0.0, atol=1e-15)


CAT = np.array([1, 0, 0, 1]) / np.sqrt(2)
CAT_PAIR = np.array([[1, 0, 0, 1j], [1, 0, 0, -1j]]).T / np.sqrt(2)


def cat_rows(**changes) -> dict:
    """The row arrays of a two-branch stack reading the two-qubit face ++, with ``changes`` applied."""
    rows = {
        "weights": np.array([0.25, 0.75]),
        "columns": np.stack([CAT[:, None]] * 2).astype(complex),
        "bases": np.stack([CAT_PAIR] * 2),
        "labels": ("+", "-", "null"),
        "readouts": np.ones((2, 2)),
        "estimator_weights": np.array([0.25, 0.75]),
        "signs": np.ones((2, 2), dtype=int),
    }
    rows.update(changes)
    return rows


def with_row(name: str, value) -> dict:
    """The stack rows of :func:`cat_rows` with the second row of one array replaced."""
    array = np.array(cat_rows()[name])
    array[1] = value
    return cat_rows(**{name: array})


def raised(build) -> tuple[type, str]:
    with pytest.raises(Exception) as info:
        build()
    return type(info.value), str(info.value)


BAD_PAIR = CAT_PAIR.copy()
BAD_PAIR[0, 1] = 0.8 / np.sqrt(2)
BAD_FRAME = np.eye(4, dtype=complex)
BAD_FRAME[1, 0] = 0.25


class TestStackGates:
    """Each stack gate raises the error class and message of the per-object gate it replaces."""

    @pytest.mark.parametrize(
        "rows, per_object",
        [
            (with_row("columns", 1.5 * CAT[:, None]), lambda: PureState(1.5 * CAT)),
            (with_row("bases", BAD_PAIR), lambda: Povm(BAD_PAIR, ("+", "-", "null"))),
            (cat_rows(bases=np.stack([np.eye(4), BAD_FRAME]), labels="abcd"), lambda: Povm(BAD_FRAME, "abcd")),
            (with_row("columns", [[np.nan], [1], [0], [0]]), lambda: PureState([np.nan, 1, 0, 0])),
            (with_row("bases", np.full((4, 2), np.inf)), lambda: Povm(np.full((4, 2), np.inf), "+-")),
            (with_row("readouts", [1.0, np.nan]), lambda: OneForm([1.0, np.nan])),
            (with_row("signs", [1, 2]), lambda: SignString((1, 2))),
        ],
        ids=["norm", "pair-gram", "frame-gram", "nan-amplitude", "inf-basis", "nan-readout", "sign-2"],
    )
    def test_same_error_as_the_per_object_gate(self, rows, per_object):
        assert raised(lambda: BranchStack(**rows)) == raised(per_object)

    def test_per_object_messages_are_the_documented_ones(self):
        # the messages the per-branch objects raised before protocols were stacked
        assert raised(lambda: PureState(1.5 * CAT)) == (
            InvariantViolation,
            "state norm np.float64(1.4999999999999998) deviates from 1 by more than 1e-12",
        )
        assert raised(lambda: Povm(BAD_PAIR, ("+", "-", "null"))) == (
            InvariantViolation,
            "POVM basis misses its completeness check by 1.800e-01",
        )

    @pytest.mark.parametrize("weight, text", [(1.5, "1.5"), (-0.25, "-0.25"), (np.nan, "nan")])
    def test_weight_outside_the_unit_interval(self, weight, text):
        rows = with_row("weights", weight)
        assert raised(lambda: BranchStack(**rows)) == (ArgumentError, f"branch weight {text} outside [0, 1]")

    def test_weights_summing_past_one(self):
        stack = BranchStack(**cat_rows(weights=[0.5, 0.5 + 1e-9]))
        build = lambda: Protocol(kind="face", stacks=(stack,), family_dim=4)  # noqa: E731
        assert raised(build) == (InvariantViolation, "branch weights sum to 1.000000001")

    @pytest.mark.parametrize("family_dim", [3, 8])
    def test_dimension_of_neither_the_family_nor_its_ancilla_lift(self, family_dim):
        stack = BranchStack(**cat_rows())
        build = lambda: Protocol(kind="face", stacks=(stack,), family_dim=family_dim)  # noqa: E731
        message = f"branch dimension 4 matches neither the family dimension {family_dim} nor its single-ancilla"
        assert raised(build) == (ArgumentError, message + " extension")

    def test_a_valid_stack_reads_back_as_branches(self):
        protocol = Protocol(kind="face", stacks=(BranchStack(**cat_rows()),), family_dim=4)
        assert [b.weight for b in protocol.branches] == [0.25, 0.75]
        assert all(str(b.sign_string) == "++" for b in protocol.branches)
        fisher = protocol_fisher(protocol, PauliZFamily(2))
        assert np.allclose(fisher.entries, np.ones((2, 2)), atol=1e-12)


class TestHotPathGuards:
    """The CLI's hot paths build no per-branch objects."""

    CONFIG = {
        "schema_version": 1,
        "family": {"kind": "pauli-z", "N": 6},
        "q": [1.0, -0.8, 0.6, 0.45, -0.3, 0.1],
        "protocol": {"kind": "corner"},
        "simulate": {"shots": 1000, "repetitions": 20, "seed": 3},
    }

    def _run(self, tmp_path, command: str) -> int:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(self.CONFIG))
        return cli.main([command, str(path), "--output", str(tmp_path / "out.json")])

    def test_verify_builds_no_branch_objects_and_three_eigen_solves(self, tmp_path, monkeypatch):
        built = Counter()
        for cls in (Povm, PureState, SignString, Branch):
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls.__name__] += 1
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counted)
        solves = counted_eigvalsh(monkeypatch)
        eigh = np.linalg.eigh

        def counted_eigh(*args, **kwargs):
            solves.append(1)
            return eigh(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted_eigh)
        assert self._run(tmp_path, "verify") == 0
        assert built == Counter()
        assert len(solves) <= 3

    def test_simulate_evolves_once_per_stack(self, tmp_path, monkeypatch):
        calls = []
        evolve = PauliZFamily.evolve

        def counted(self, theta, states):
            calls.append(np.shape(states))
            return evolve(self, theta, states)

        monkeypatch.setattr(PauliZFamily, "evolve", counted)
        # 20 repetitions are too few for the variance to land within tolerance; exit 1 says so
        assert self._run(tmp_path, "simulate") in (0, 1)
        # the corner protocol of six distinct magnitudes is one stack of six branches
        assert calls == [(6, 64, 1)]
