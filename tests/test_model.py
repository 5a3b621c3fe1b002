"""Model layer: configurations, the oracle, and enumeration."""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinweigh.model import (
    Configuration,
    ENUMERATION_CAP_L,
    InvalidConfigurationError,
    InvalidSizeError,
    InvalidSubsetError,
    ProblemSize,
    TooLargeError,
    config_count,
    delta_of,
    enumerate_configs,
    iter_supports,
    parse_subset,
    validate_subset,
    weigh,
    weigh_runs,
)

# Sizes small enough to enumerate eagerly in every property below.
sizes = st.integers(min_value=1, max_value=6).map(lambda l: 1 << l)


class TestProblemSize:
    def test_from_exponent(self):
        size = ProblemSize.from_exponent(3)
        assert (size.l, size.n) == (3, 8)

    def test_from_coin_count(self):
        size = ProblemSize.from_coin_count(1024)
        assert (size.l, size.n) == (10, 1024)

    @pytest.mark.parametrize("bad", [0, 1, 3, 6, 100, -4, 2.0, "8"])
    def test_rejects_non_powers(self, bad):
        with pytest.raises(InvalidSizeError):
            ProblemSize.from_coin_count(bad)

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2"])
    def test_rejects_bad_exponents(self, bad):
        with pytest.raises(InvalidSizeError):
            ProblemSize.from_exponent(bad)


class TestConfiguration:
    def test_type_one(self):
        config = Configuration.type_one(4, 1)
        assert config.weights == (2, 0, 0, 0)
        assert config.is_type_one
        assert config.support == ((1, 2),)

    def test_type_two(self):
        config = Configuration.type_two(4, 2, 3)
        assert config.weights == (0, 1, 1, 0)
        assert not config.is_type_one
        assert config.support == ((2, 1), (3, 1))

    def test_type_two_requires_ordered_pair(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_two(4, 3, 3)
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_two(4, 3, 2)

    @pytest.mark.parametrize(
        "weights",
        [
            (),
            (2,),
            (1, 1, 1),
            (2, 1, 0),
            (0, 0),
            (3, -1),
            (-1, 3),
            (0, 3),
            (0.5, 1.5),
        ],
    )
    def test_rejects_illegal_weights(self, weights):
        with pytest.raises(InvalidConfigurationError):
            Configuration(weights)

    def test_count_check_matches_bounds_rule(self):
        # Reference: the bounds-and-total rule, exact on integer entries.
        def bounds_rule(w):
            return not (min(w) < 0 or max(w) > 2 or sum(w) != 2)

        for length in range(2, 6):
            for weights in itertools.product(range(-1, 4), repeat=length):
                try:
                    config = Configuration(weights)
                except InvalidConfigurationError:
                    accepted = False
                else:
                    accepted = True
                    # The stored support is the 1-based nonzero positions,
                    # with p == q for the coin of weight 2.
                    nonzero = [k + 1 for k, v in enumerate(weights) if v]
                    p, q = nonzero[0], nonzero[-1]
                    assert config.positions == (p, q), weights
                    assert config.support == tuple(
                        (k, weights[k - 1]) for k in nonzero
                    )
                    assert config.is_type_one == (len(nonzero) == 1)
                    assert delta_of(config) == q - p
                assert accepted == bounds_rule(weights), weights

    def test_text_round_trip(self):
        config = Configuration.from_text("0,0,1,0,0,1,0,0")
        assert config.weights == (0, 0, 1, 0, 0, 1, 0, 0)
        assert config.as_text() == "0,0,1,0,0,1,0,0"

    def test_from_text_rejects_garbage(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration.from_text("1,x,1")

    def test_immutable(self):
        config = Configuration.type_one(2, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.weights = (0, 2)


class TestDelta:
    @pytest.mark.parametrize(
        "weights, expected",
        [((2, 0, 0, 0), 0), ((1, 0, 0, 1), 3), ((0, 1, 1, 0), 1)],
    )
    def test_examples(self, weights, expected):
        assert delta_of(Configuration(weights)) == expected

    @given(st.data())
    def test_type_two_delta_is_position_distance(self, data):
        n = data.draw(sizes)
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(i + 1, n))
        assert delta_of(Configuration.type_two(n, i, j)) == j - i

    @given(st.data())
    def test_type_one_delta_is_zero(self, data):
        n = data.draw(sizes)
        pos = data.draw(st.integers(1, n))
        assert delta_of(Configuration.type_one(n, pos)) == 0


class TestWeigh:
    @pytest.mark.parametrize(
        "weights, subset, expected",
        [
            ((0, 0, 1, 0, 0, 1, 0, 0), (1, 2, 3, 4), 1),
            ((2, 0), (1,), 2),
            ((1, 0, 0, 1), (1, 3), 1),
        ],
    )
    def test_examples(self, weights, subset, expected):
        assert weigh(Configuration(weights), subset) == expected

    @pytest.mark.parametrize(
        "config, subset, expected",
        [
            # A support at coin n, with the subset ending before n.
            (Configuration.type_one(8, 8), (1, 2, 3, 4, 5, 6, 7), 0),
            (Configuration.type_two(8, 3, 8), (1, 2, 3, 4, 5, 6, 7), 1),
            # A support at coin 1, with the subset starting after 1.
            (Configuration.type_one(8, 1), (2, 3, 4), 0),
            (Configuration.type_two(8, 1, 6), (2, 3, 4, 5, 6), 1),
            # The subset (n,).
            (Configuration.type_one(8, 8), (8,), 2),
            (Configuration.type_two(8, 1, 8), (8,), 1),
            (Configuration.type_one(8, 7), (8,), 0),
            # A type-I coin inside either run of a two-run subset, in the
            # gap between the runs, and past the second run.
            (Configuration.type_one(8, 2), (1, 2, 5, 6), 2),
            (Configuration.type_one(8, 5), (1, 2, 5, 6), 2),
            (Configuration.type_one(8, 3), (1, 2, 5, 6), 0),
            (Configuration.type_one(8, 7), (1, 2, 5, 6), 0),
        ],
    )
    def test_binary_search_boundaries(self, config, subset, expected):
        assert weigh(config, subset) == expected

    @given(st.data())
    def test_matches_dense_sum(self, data):
        n = data.draw(sizes)
        config = data.draw(st.sampled_from(list(enumerate_configs(n))))
        subset = tuple(
            sorted(data.draw(st.sets(st.integers(1, n), min_size=1)))
        )
        assert weigh(config, subset) == sum(
            config.weights[pos - 1] for pos in subset
        )

    @given(st.data())
    def test_full_set_weighs_two(self, data):
        n = data.draw(sizes)
        config = data.draw(st.sampled_from(list(enumerate_configs(n))))
        assert weigh(config, tuple(range(1, n + 1))) == 2

    @pytest.mark.parametrize(
        "subset", [(), (0,), (3, 2), (1, 1), (5,), (1, "2"), (True, 2)]
    )
    def test_rejects_bad_subsets(self, subset):
        with pytest.raises(InvalidSubsetError):
            validate_subset(subset, 4)

    @given(st.data())
    def test_runs_oracle_matches_weigh(self, data):
        n = data.draw(sizes)
        p = data.draw(st.integers(1, n))
        q = data.draw(st.integers(p, n))
        config = (
            Configuration.type_one(n, p)
            if p == q
            else Configuration.type_two(n, p, q)
        )
        # One run [a, b), or two disjoint runs [a, b) and [c, d) with b <= c.
        a = data.draw(st.integers(1, n))
        b = data.draw(st.integers(a + 1, n + 1))
        runs = ((a, b),)
        if b <= n and data.draw(st.booleans()):
            c = data.draw(st.integers(b, n))
            d = data.draw(st.integers(c + 1, n + 1))
            runs += ((c, d),)
        subset = tuple(pos for lo, hi in runs for pos in range(lo, hi))
        assert weigh_runs(p, q, runs) == weigh(config, subset)

    def test_parse_subset(self):
        assert parse_subset("1, 2,4", 4) == (1, 2, 4)
        with pytest.raises(InvalidSubsetError):
            parse_subset("1,junk", 4)
        with pytest.raises(InvalidSubsetError):
            parse_subset("2,9", 4)


class TestEnumeration:
    def test_n2_order(self):
        assert [c.weights for c in enumerate_configs(2)] == [
            (2, 0),
            (0, 2),
            (1, 1),
        ]

    def test_supports_match_configs(self):
        for n in (2, 3, 6, 8):
            assert list(iter_supports(n)) == [
                c.positions for c in enumerate_configs(n)
            ]

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 9])
    def test_supports_from_every_rank(self, n):
        full = list(iter_supports(n))
        assert len(full) == config_count(n)
        for k in range(config_count(n) + 2):
            assert list(iter_supports(n, k)) == full[k:]

    def test_supports_from_spot_ranks_at_cap(self):
        n = 1 << ENUMERATION_CAP_L
        last = config_count(n) - 1
        expected = {
            0: [(1, 1), (2, 2)],
            n - 1: [(n, n), (1, 2)],
            n: [(1, 2), (1, 3)],
            2 * n - 1: [(2, 3), (2, 4)],
            last: [(n - 1, n)],
            last + 1: [],
        }
        for start, supports in expected.items():
            got = list(itertools.islice(iter_supports(n, start), 2))
            assert got == supports, start

    def test_counts(self):
        assert config_count(2) == 3
        assert config_count(4) == 10
        assert len(list(enumerate_configs(4))) == 10

    def test_delta_three_count_at_n8(self):
        assert sum(1 for c in enumerate_configs(8) if delta_of(c) == 3) == 5

    @given(sizes)
    def test_census(self, n):
        configs = list(enumerate_configs(n))
        assert len(configs) == config_count(n) == n * (n + 1) // 2
        by_delta = {}
        for config in configs:
            d = delta_of(config)
            by_delta[d] = by_delta.get(d, 0) + 1
        assert by_delta[0] == n
        for d in range(1, n):
            assert by_delta[d] == n - d

    @given(sizes)
    def test_no_duplicates(self, n):
        configs = [c.weights for c in enumerate_configs(n)]
        assert len(set(configs)) == len(configs)

    def test_any_size_enumerates(self):
        assert len(list(enumerate_configs(6))) == 21

    @pytest.mark.parametrize("bad", [0, 1, 2.0, "8"])
    def test_rejects_bad_sizes(self, bad):
        with pytest.raises(InvalidSizeError):
            list(enumerate_configs(bad))

    def test_enumeration_cap(self):
        # next(), not list(): a broken cap must fail here, not fill memory.
        for too_big in (1 << (ENUMERATION_CAP_L + 1), (1 << ENUMERATION_CAP_L) + 1):
            with pytest.raises(TooLargeError):
                next(enumerate_configs(too_big))
