"""Model layer: configurations, the oracle, and enumeration."""

from __future__ import annotations

import copy
import dataclasses
import itertools
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinweigh.model import (
    Configuration,
    ENUMERATION_CAP_L,
    InvalidConfigurationError,
    InvalidSizeError,
    InvalidSubsetError,
    Subset,
    TooLargeError,
    _coin_count,
    config_count,
    enumerate_configs,
    iter_supports,
    oracle,
    validate_subset,
    weigh,
    weigh_runs,
)

# Sizes small enough to enumerate eagerly in every property below.
sizes = st.integers(min_value=1, max_value=6).map(lambda l: 1 << l)


class TestProblemSize:
    def test_from_exponent(self):
        assert _coin_count(3) == 8

    @pytest.mark.parametrize("bad", [0, -1, 1.5, "2", True, False, 2.0, None])
    def test_rejects_bad_exponents(self, bad):
        with pytest.raises(InvalidSizeError, match="^exponent must be an integer >= 1"):
            _coin_count(bad)


class TestConfiguration:
    def test_type_one(self):
        config = Configuration.type_one(4, 1)
        assert config.weights == (2, 0, 0, 0)
        assert config.support == ((1, 2),)

    def test_type_two(self):
        config = Configuration.type_two(4, 2, 3)
        assert config.weights == (0, 1, 1, 0)
        assert config.support == ((2, 1), (3, 1))

    def test_type_two_requires_ordered_pair(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_two(4, 3, 3)
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_two(4, 3, 2)

    def test_type_one_needs_two_coins(self):
        with pytest.raises(InvalidConfigurationError, match="at least two coins"):
            Configuration.type_one(1, 1)

    @staticmethod
    def assert_same_as_scanned(config: Configuration) -> None:
        # type_one/type_two store the support their arguments give; the
        # constructor finds it by scanning the weights.  Both must agree.
        scanned = Configuration(config.weights)
        assert type(config.weights) is tuple
        assert set(map(type, config.weights)) == {int}
        assert config.weights == scanned.weights
        assert config.positions == scanned.positions
        assert config == scanned
        assert hash(config) == hash(scanned)
        assert config.as_text() == scanned.as_text()

    def test_direct_constructors_match_scan(self):
        for n in range(2, 65):
            for p, q in iter_supports(n):
                if p == q:
                    self.assert_same_as_scanned(Configuration.type_one(n, p))
                else:
                    self.assert_same_as_scanned(Configuration.type_two(n, p, q))

    @pytest.mark.parametrize("p, q", [(1, 1), (4096, 4096), (1000, 1000), (1, 2),
                                      (1, 4096), (4095, 4096), (1000, 3001)])
    def test_direct_constructors_match_scan_at_cap(self, p, q):
        n = 1 << ENUMERATION_CAP_L
        if p == q:
            self.assert_same_as_scanned(Configuration.type_one(n, p))
        else:
            self.assert_same_as_scanned(Configuration.type_two(n, p, q))

    @pytest.mark.parametrize("bad", [True, 1.0, 2.0, 4.0, None])
    def test_positions_must_be_ints(self, bad):
        # True equals 1 and 2.0 equals 2, but neither is a position, and
        # 4.0 equals 4 but is no coin count.
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_one(4, bad)
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_two(4, bad, 3)
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_two(4, 1, bad)
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_one(bad, 1)
        with pytest.raises(InvalidConfigurationError):
            Configuration.type_two(bad, 1, 2)

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
            # Equal to legal weights, but coins must weigh an int.
            (True, True),
            (1.0, 1.0),
            (2.0, 0),
            (1, True),
            # Not a tuple or a list, though bytes count and index like one.
            None,
            5,
            "0,2",
            {1: 0, 2: 2},
            iter((0, 2)),
            b"\x00\x02",
        ],
    )
    def test_rejects_illegal_weights(self, weights):
        with pytest.raises(InvalidConfigurationError):
            Configuration(weights)

    def test_weights_are_one_canonical_tuple(self):
        # However a configuration is made, it stores the same tuple of exact
        # ints, so equal configurations hash alike.
        given = [2, 0, 0]
        configs = [
            Configuration(given),
            Configuration(tuple(given)),
            Configuration((2, False, 0.0)),
            Configuration.type_one(3, 1),
        ]
        for config in configs:
            assert type(config.weights) is tuple
            assert [type(w) for w in config.weights] == [int, int, int]
            assert config.weights == (2, 0, 0)
            assert config == configs[0]
            assert hash(config) == hash(configs[0])
        # The caller's list is not kept, so changing it changes nothing.
        given[:] = [0, 0, 2]
        assert configs[0].weights == (2, 0, 0)
        assert configs[0].positions == (1, 1)

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
                assert accepted == bounds_rule(weights), weights

    def test_text_round_trip(self):
        config = Configuration.from_text("0,0,1,0,0,1,0,0")
        assert config.weights == (0, 0, 1, 0, 0, 1, 0, 0)
        assert config.as_text() == "0,0,1,0,0,1,0,0"

    @pytest.mark.parametrize(
        "weights, text", [((2, False, 0.0), "2,0,0"), ((0.0, 1, 1), "0,1,1")]
    )
    def test_text_round_trip_of_non_int_zeros(self, weights, text):
        # Zero entries are compared by value only, so they may be any
        # zero; the text form writes them as 0 and reads back as ints.
        config = Configuration(weights)
        assert config.as_text() == text
        again = Configuration.from_text(text)
        assert again.as_text() == text
        assert again.positions == config.positions

    def test_from_text_rejects_garbage(self):
        with pytest.raises(InvalidConfigurationError):
            Configuration.from_text("1,x,1")
        with pytest.raises(InvalidConfigurationError, match="^weight list must be a str"):
            Configuration.from_text(5)

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
        p, q = Configuration(weights).positions
        assert q - p == expected

    @given(st.data())
    def test_type_two_delta_is_position_distance(self, data):
        n = data.draw(sizes)
        i = data.draw(st.integers(1, n - 1))
        j = data.draw(st.integers(i + 1, n))
        p, q = Configuration.type_two(n, i, j).positions
        assert q - p == j - i

    @given(st.data())
    def test_type_one_delta_is_zero(self, data):
        n = data.draw(sizes)
        pos = data.draw(st.integers(1, n))
        p, q = Configuration.type_one(n, pos).positions
        assert q - p == 0


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
        assert weigh(Configuration(weights), Subset(subset)) == expected

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
        expected = sum(config.weights[pos - 1] for pos in subset)
        assert weigh(config, subset) == expected
        assert weigh(config, Subset(subset)) == expected

    @given(st.data())
    def test_full_set_weighs_two(self, data):
        n = data.draw(sizes)
        config = data.draw(st.sampled_from(list(enumerate_configs(n))))
        assert weigh(config, tuple(range(1, n + 1))) == 2

    @pytest.mark.parametrize(
        "subset",
        [
            (), (0,), (3, 2), (1, 1), (5,), (1, "2"), (True, 2), 5, None,
            b"\x01\x02", bytearray(b"\x01\x02"), memoryview(b"\x01\x02"),
        ],
    )
    def test_rejects_bad_subsets(self, subset):
        # As given, to validate_subset and to weigh, and as a Subset, which
        # is rejected when made or, for (5,), when weighed at n = 4.  The
        # bytes-like ones hold the ints 1 and 2, but are no list of positions.
        config = Configuration.type_one(4, 1)
        with pytest.raises(InvalidSubsetError):
            validate_subset(subset, 4)
        with pytest.raises(InvalidSubsetError):
            weigh(config, subset)
        with pytest.raises(InvalidSubsetError):
            weigh(config, Subset(subset))

    @pytest.mark.parametrize("n", ["4", 4.0, None, True])
    def test_rejects_a_size_that_is_not_an_int(self, n):
        for subset in ((1,), Subset((1,))):
            with pytest.raises(InvalidSizeError, match="coin count must be an int"):
                validate_subset(subset, n)

    @pytest.mark.parametrize("config", [5, None, (0, 2), "0,2"])
    def test_rejects_what_is_not_a_configuration(self, config):
        with pytest.raises(InvalidConfigurationError, match="not a Configuration"):
            weigh(config, (1,))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: {1, 2},
            lambda: frozenset((1, 2)),
            lambda: iter((1, 2)),
            lambda: (k for k in (1, 2)),
        ],
        ids=["set", "frozenset", "iterator", "generator"],
    )
    def test_rejects_iterables_that_are_not_sequences(self, make):
        # validate_subset and weigh index a subset, so they take sequences
        # only; Subset() takes any iterable and keeps its order.
        config = Configuration.type_one(4, 1)
        with pytest.raises(InvalidSubsetError, match="must be a sequence"):
            validate_subset(make(), 4)
        with pytest.raises(InvalidSubsetError, match="must be a sequence"):
            weigh(config, make())
        assert weigh(config, Subset(make())) == 2

    @given(
        st.lists(
            st.one_of(st.integers(-1, 9), st.booleans(), st.floats(0, 9)), max_size=6
        )
    )
    def test_subset_accepts_what_validate_subset_accepts(self, indices):
        # No index exceeds 9, so only the structure decides.
        def accepted(check) -> bool:
            try:
                check()
            except InvalidSubsetError:
                return False
            return True

        plain = tuple(indices)
        assert accepted(lambda: Subset(plain)) == accepted(
            lambda: validate_subset(plain, 9)
        )

    def test_subset_past_n_is_rejected(self):
        # A Subset is checked once for structure, but its range against n on
        # every weighing.
        with pytest.raises(InvalidSubsetError, match="out of range for n=4"):
            weigh(Configuration.type_one(4, 1), Subset((5,)))
        with pytest.raises(InvalidSubsetError, match="out of range for n=4"):
            validate_subset(Subset((1, 5)), 4)

    @pytest.mark.parametrize(
        "round_trip",
        [
            copy.copy,
            copy.deepcopy,
            *(
                lambda s, proto=proto: pickle.loads(pickle.dumps(s, proto))
                for proto in range(pickle.HIGHEST_PROTOCOL + 1)
            ),
        ],
    )
    def test_subset_round_trip(self, round_trip):
        subset = Subset((1, 3, 4))
        again = round_trip(subset)
        assert type(again) is Subset
        assert again == subset == (1, 3, 4)

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

    def test_oracle_logs_each_answer(self):
        # Each oracle answers with weigh_runs and owns its log: the weighings
        # in the order asked, with the outcomes returned.
        ask, log = oracle(2, 3)
        other_ask, other_log = oracle(1, 1)
        queries = (((1, 3),), ((3, 4),), ((1, 2), (3, 5)), ((4, 5),))
        outcomes = [ask(runs) for runs in queries]
        assert outcomes == [weigh_runs(2, 3, runs) for runs in queries]
        assert outcomes == [1, 1, 1, 0]
        assert other_ask(((1, 2),)) == 2
        assert other_log == [(((1, 2),), 2)]
        assert log == list(zip(queries, outcomes))


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
        deltas = [q - p for p, q in (c.positions for c in enumerate_configs(8))]
        assert deltas.count(3) == 5

    @given(sizes)
    def test_census(self, n):
        configs = list(enumerate_configs(n))
        assert len(configs) == config_count(n) == n * (n + 1) // 2
        by_delta = {}
        for config in configs:
            p, q = config.positions
            by_delta[q - p] = by_delta.get(q - p, 0) + 1
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
