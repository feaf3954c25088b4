"""Unit tests for measurement, sampling and reset (paper Sec. III-B/IV-B)."""

import math

import numpy as np
import pytest

from repro.dd import DDPackage, NormalizationScheme
from repro.dd import sampling
from repro.errors import DDError, InvalidStateError

INV_SQRT2 = 1.0 / math.sqrt(2.0)


def _bell(package):
    return package.from_state_vector([INV_SQRT2, 0.0, 0.0, INV_SQRT2])


class TestProbabilities:
    def test_bell_is_fifty_fifty(self, package):
        """Paper Ex. 2: measuring one qubit of the Bell state yields |0>
        in 50% of the cases."""
        state = _bell(package)
        for qubit in (0, 1):
            p0, p1 = sampling.qubit_probabilities(package, state, qubit)
            assert abs(p0 - 0.5) < 1e-12
            assert abs(p1 - 0.5) < 1e-12

    def test_basis_state_deterministic(self, package):
        state = package.basis_state(3, "101")
        assert sampling.qubit_probabilities(package, state, 0) == (0.0, 1.0)
        assert sampling.qubit_probabilities(package, state, 1) == (1.0, 0.0)
        assert sampling.qubit_probabilities(package, state, 2) == (0.0, 1.0)

    def test_matches_dense_computation(self, package, rng):
        from tests.conftest import random_state

        vector = random_state(3, rng)
        state = package.from_state_vector(vector)
        for qubit in range(3):
            mask = 1 << qubit
            expected_p1 = sum(
                abs(vector[i]) ** 2 for i in range(8) if i & mask
            )
            p0, p1 = sampling.qubit_probabilities(package, state, qubit)
            assert abs(p1 - expected_p1) < 1e-9

    def test_qubit_out_of_range(self, package):
        with pytest.raises(DDError):
            sampling.qubit_probabilities(package, package.zero_state(2), 2)

    def test_branch_probabilities_is_root_qubit(self, package):
        state = _bell(package)
        assert sampling.branch_probabilities(package, state) == (0.5, 0.5)

    def test_works_with_max_normalization(self, max_package):
        state = _bell(max_package)
        p0, p1 = sampling.qubit_probabilities(max_package, state, 0)
        assert abs(p0 - 0.5) < 1e-12


class TestSample:
    def test_bell_only_00_and_11(self, package, rng):
        state = _bell(package)
        for _ in range(50):
            outcome = sampling.sample(package, state, rng)
            assert outcome in ("00", "11")

    def test_big_endian_order(self, package, rng):
        state = package.basis_state(3, "110")
        assert sampling.sample(package, state, rng) == "110"

    def test_counts_match_distribution(self, package):
        state = package.from_state_vector([math.sqrt(0.9), 0.0, 0.0, math.sqrt(0.1)])
        counts = sampling.sample_counts(
            package, state, 2000, np.random.default_rng(7)
        )
        assert set(counts) <= {"00", "11"}
        assert abs(counts.get("00", 0) / 2000 - 0.9) < 0.05

    def test_sampling_is_nondestructive(self, package, rng):
        """Paper Sec. III-B: repeated measurement of the same DD."""
        state = _bell(package)
        before = package.to_vector(state, 2).copy()
        sampling.sample_counts(package, state, 10, rng)
        assert np.allclose(package.to_vector(state, 2), before)

    def test_max_scheme_sampling(self, max_package, rng):
        state = _bell(max_package)
        for _ in range(20):
            assert sampling.sample(max_package, state, rng) in ("00", "11")

    def test_invalid_shots(self, package, rng):
        with pytest.raises(DDError):
            sampling.sample_counts(package, _bell(package), 0, rng)

    def test_zero_vector_rejected(self, package, rng):
        from repro.dd.edge import ZERO_EDGE

        with pytest.raises(InvalidStateError):
            sampling.sample(package, ZERO_EDGE, rng)


class TestMeasureCollapse:
    def test_forced_outcome_one(self, package):
        """Paper Ex. 13 / Fig. 8: measuring q0 of the Bell state as |1>
        leaves |11> due to entanglement."""
        state = _bell(package)
        outcome, probability, collapsed = sampling.measure_qubit(
            package, state, 0, outcome=1
        )
        assert outcome == 1
        assert abs(probability - 0.5) < 1e-12
        assert np.allclose(package.to_vector(collapsed, 2), [0, 0, 0, 1])

    def test_forced_outcome_zero(self, package):
        state = _bell(package)
        __, __, collapsed = sampling.measure_qubit(package, state, 0, outcome=0)
        assert np.allclose(package.to_vector(collapsed, 2), [1, 0, 0, 0])

    def test_collapsed_state_is_normalized(self, package, rng):
        from tests.conftest import random_state

        state = package.from_state_vector(random_state(3, rng))
        __, __, collapsed = sampling.measure_qubit(package, state, 1, outcome=0)
        assert abs(package.norm_squared(collapsed) - 1.0) < 1e-9

    def test_impossible_outcome_rejected(self, package):
        state = package.zero_state(2)
        with pytest.raises(InvalidStateError):
            sampling.measure_qubit(package, state, 0, outcome=1)

    def test_invalid_outcome_value(self, package):
        with pytest.raises(DDError):
            sampling.measure_qubit(package, _bell(package), 0, outcome=2)

    def test_random_outcome_uses_rng(self, package):
        state = _bell(package)
        outcomes = {
            sampling.measure_qubit(package, state, 0, rng=np.random.default_rng(s))[0]
            for s in range(20)
        }
        assert outcomes == {0, 1}

    def test_superposition_partially_preserved(self, package):
        """Measuring an unentangled qubit leaves the rest untouched."""
        # |+>|+> - measure q0, q1 stays in |+>.
        state = package.from_state_vector([0.5, 0.5, 0.5, 0.5])
        __, __, collapsed = sampling.measure_qubit(package, state, 0, outcome=0)
        assert np.allclose(
            package.to_vector(collapsed, 2), [INV_SQRT2, 0.0, INV_SQRT2, 0.0]
        )


class TestReset:
    def test_reset_moves_branch_to_zero(self, package):
        """Paper Sec. IV-B: the remaining branch becomes the |0> branch."""
        state = _bell(package)
        observed, probability, result = sampling.reset_qubit(
            package, state, 0, outcome=1
        )
        assert observed == 1
        # q0 reset to |0>; q1 keeps the value correlated with outcome 1.
        assert np.allclose(package.to_vector(result, 2), [0, 0, 1, 0])

    def test_reset_on_zero_is_noop(self, package):
        state = package.zero_state(2)
        observed, probability, result = sampling.reset_qubit(package, state, 0)
        assert observed == 0
        assert probability == 1.0
        assert result.node is state.node

    def test_reset_probabilities(self, package):
        state = package.from_state_vector([0.6, 0.8, 0.0, 0.0])
        observed, probability, result = sampling.reset_qubit(
            package, state, 0, outcome=1
        )
        assert abs(probability - 0.64) < 1e-12
        assert np.allclose(package.to_vector(result, 2), [1, 0, 0, 0])


class TestPooledSampler:
    """The pooled L2 sampler walks the node arrays but must draw exactly
    the outcomes of the node-view walk for a given seed."""

    @staticmethod
    def _blocked_pairs():
        # Partners three levels apart: sifting moves them next to each other.
        package = DDPackage(reorder="manual")
        state = package.zero_state(6)
        for low, angle in ((0, 0.4), (1, 1.1), (2, 2.3)):
            ry = np.array(
                [[math.cos(angle / 2), -math.sin(angle / 2)],
                 [math.sin(angle / 2), math.cos(angle / 2)]]
            )
            state = package.apply_single_qubit_gate(state, ry, low)
            state = package.apply_controlled_gate(
                state, np.array([[0, 1], [1, 0]]), low + 3, controls=[low]
            )
        return package, package.incref(state)

    def _counts(self, sift, seed):
        package, state = self._blocked_pairs()
        if sift:
            package.reorder()
            assert package.qubit_order != list(range(6))
        counts = sampling.sample_counts(
            package, state, 512, np.random.default_rng(seed)
        )
        rng = np.random.default_rng(seed + 1)
        shots = [sampling.sample(package, state, rng) for _ in range(16)]
        return counts, shots

    def test_pooled_package_uses_the_array_walk(self):
        package, state = self._blocked_pairs()
        assert sampling._pooled_sampler(package, state) is not None
        # Under MAX_MAGNITUDE a |0> weight is no probability: node-view walk.
        package = DDPackage(vector_scheme=NormalizationScheme.MAX_MAGNITUDE)
        assert sampling._pooled_sampler(package, package.zero_state(2)) is None

    @pytest.mark.parametrize("sift", [False, True])
    def test_counts_equal_across_walks(self, sift, monkeypatch):
        for seed in (0, 1, 2):
            pooled = self._counts(sift, seed)
            with monkeypatch.context() as patch:
                patch.setattr(sampling, "_pooled_sampler", lambda *_: None)
                assert pooled == self._counts(sift, seed)
            counts, shots = pooled
            assert sum(counts.values()) == 512
            # Every pair stays correlated: q_k equals q_{k+3}.
            for outcome in list(counts) + shots:
                bits = outcome[::-1]  # bits[q] is qubit q
                assert all(bits[k] == bits[k + 3] for k in range(3))
