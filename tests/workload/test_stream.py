"""The model's workload stream and run-length jitter rule.

Both are model rules (``repro.workload.base``): the serial processor and
the compiled batch core must draw the same values from the same seed.
These tests pin the Python statement of the rule; the batch-vs-serial
parity suites pin the core against it.
"""

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.workload.base import (
    NodeStream,
    jitter_spread,
    jittered_cycles,
    node_states,
)


class CountingStream(NodeStream):
    """A NodeStream that counts its 64-bit draws."""

    __slots__ = ("draws",)

    def __init__(self, state):
        super().__init__(state)
        self.draws = 0

    def next64(self):
        self.draws += 1
        return super().next64()


def chi_squared(counts):
    expected = sum(counts) / len(counts)
    return sum((c - expected) ** 2 / expected for c in counts)


class TestSplitMix64:
    def test_reference_vectors(self):
        stream = NodeStream(1234567)
        assert [stream.next64() for _ in range(3)] == [
            6457827717110365317,
            3203168211198807973,
            9817491932198370423,
        ]

    def test_state_wraps_mod_2_64(self):
        stream = NodeStream(2**64 - 1)
        stream.next64()
        assert stream.state == (2**64 - 1 + 0x9E3779B97F4A7C15) % 2**64

    def test_random_is_top_53_bits(self):
        a, b = NodeStream(99), NodeStream(99)
        value = a.random()
        assert value == (b.next64() >> 11) * 2.0**-53
        assert 0.0 <= value < 1.0


class TestRandrange:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 1000, 2**32])
    def test_in_range(self, n):
        stream = NodeStream(n)
        for _ in range(2000):
            assert 0 <= stream.randrange(n) < n

    @pytest.mark.parametrize("n", [3, 5, 9])
    def test_uniform(self, n):
        # 90k+ draws; the chi-squared critical value at p = 0.001 is
        # 13.8 (2 dof), 18.5 (4 dof) and 26.1 (8 dof).
        critical = {3: 13.8, 5: 18.5, 9: 26.1}[n]
        stream = NodeStream(20 + n)
        counts = [0] * n
        for _ in range(90_000):
            counts[stream.randrange(n)] += 1
        assert chi_squared(counts) < critical

    def test_rejection_branch_is_taken(self):
        # For n = 3 * 2**30 the threshold (2**32 - n) % n is 2**30, so a
        # quarter of the low words are rejected and redrawn.
        n = 3 * 2**30
        stream = CountingStream(7)
        draws = 2000
        for _ in range(draws):
            assert 0 <= stream.randrange(n) < n
        assert stream.draws > draws * 1.1

    def test_matches_the_multiply_shift_rule(self):
        n = 3 * 2**30
        stream, words = NodeStream(11), NodeStream(11)
        for _ in range(200):
            value = stream.randrange(n)
            while True:
                m = (words.next64() >> 32) * n
                if m & 0xFFFFFFFF >= (2**32 - n) % n:
                    break
            assert value == m >> 32

    @pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
    def test_out_of_range_bound_rejected(self, n):
        with pytest.raises(ParameterError):
            NodeStream(1).randrange(n)


class TestJitteredCycles:
    def test_spread(self):
        assert jitter_spread(8, 0.5) == 4
        assert jitter_spread(8, 0.0) == 0
        assert jitter_spread(8, -0.5) == 0
        assert jitter_spread(1, 0.5) == 0
        assert jitter_spread(1000, 0.25) == 250

    def test_within_window_and_mean_preserved(self):
        stream = NodeStream(3)
        base, spread = 8, 4
        values = [jittered_cycles(base, 0.5, stream) for _ in range(40_000)]
        assert min(values) == base - spread
        assert max(values) == base + spread
        # Discrete uniform over 9 values: variance 20/3, so the mean's
        # standard error is about 0.013.
        assert abs(sum(values) / len(values) - base) < 0.06

    def test_is_the_integer_rule(self):
        stream, draws = NodeStream(5), NodeStream(5)
        for _ in range(100):
            assert jittered_cycles(20, 0.3, stream) == 20 - 6 + draws.randrange(13)

    @pytest.mark.parametrize("base,fraction", [(8, 0.0), (1, 0.5), (3, 0.2)])
    def test_no_draw_without_spread(self, base, fraction):
        stream = CountingStream(9)
        assert jittered_cycles(base, fraction, stream) == base
        assert stream.draws == 0

    def test_never_below_one(self):
        stream = NodeStream(4)
        assert jittered_cycles(0, 0.0, stream) == 1
        assert all(jittered_cycles(3, 0.9, stream) >= 1 for _ in range(500))


def spawned_states(seed, nodes):
    """numpy's own derivation, the oracle :func:`node_states` ports."""
    return np.array(
        [
            child.generate_state(1, np.uint64)[0]
            for child in np.random.SeedSequence(seed).spawn(nodes)
        ],
        dtype=np.uint64,
    )


class TestNodeStates:
    # One- to five-word seeds: numpy pads short entropy with zeros to
    # its four-word pool before the spawn key, and mixes words past the
    # pool in afterwards.
    SEEDS = [0, 1, 1992, 2**32 - 1, 2**32, 2**40 + 5, 2**63 + 11,
             2**128 + 3, (1 << 97) - 12345]

    @pytest.mark.parametrize("nodes", [1, 64, 1024, 4096])
    def test_equals_numpy_spawn(self, nodes):
        for seed in self.SEEDS:
            states = node_states(seed, nodes)
            assert states.dtype == np.uint64
            np.testing.assert_array_equal(
                states, spawned_states(seed, nodes), err_msg=f"seed {seed}"
            )

    def test_numpy_integer_seed(self):
        np.testing.assert_array_equal(
            node_states(np.uint64(2**64 - 1), 8), spawned_states(2**64 - 1, 8)
        )

    @pytest.mark.parametrize("seed", [-1, -(2**40), 1.0, 2.5, "7", None, True])
    def test_bad_seed_is_a_parameter_error(self, seed):
        with pytest.raises(ParameterError, match="non-negative integer"):
            node_states(seed, 4)
