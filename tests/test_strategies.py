"""Strategy executors: the halving scheme, nested bisection, the discipline
checker, and their transcript contracts."""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coinweigh import cli, strategies
from coinweigh.model import (
    Configuration,
    InternalContractError,
    InvalidSizeError,
    delta_of,
    enumerate_configs,
    validate_subset,
    weigh,
)
from coinweigh.strategies import (
    Transcript,
    check_nested,
    run_nested,
    run_proposed,
)

EXAMPLE_CONFIG = Configuration.from_text("0,0,1,0,0,1,0,0")
EXAMPLE_QUERIES = (
    ((1, 2, 3, 4), 1),
    ((1, 2, 5, 6), 1),
    ((1, 2, 7), 0),
    ((3, 5), 1),
    ((3,), 1),
)


def all_configs(n: int):
    return list(enumerate_configs(n))


def assert_transcript_valid(config: Configuration, transcript: Transcript):
    """The universal transcript contract, re-checked from scratch."""
    assert transcript.estimate == config.weights
    assert sum(transcript.estimate) == 2
    assert transcript.weighings >= 1
    for subset, outcome in transcript.queries:
        assert weigh(config, subset) == outcome


class TestProposed:
    def test_example_transcript_verbatim(self):
        transcript = run_proposed(EXAMPLE_CONFIG)
        assert transcript.queries == EXAMPLE_QUERIES
        assert transcript.weighings == 5
        assert transcript.estimate == EXAMPLE_CONFIG.weights

    def test_two_coins(self):
        transcript = run_proposed(Configuration((2, 0)))
        assert transcript.queries == (((1,), 2),)
        assert transcript.estimate == (2, 0)

    def test_adjacent_pair_trace(self):
        transcript = run_proposed(Configuration((0, 1, 1, 0)))
        assert transcript.queries == (
            ((1, 2), 1),
            ((1, 3), 1),
            ((1,), 0),
        )

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_recovery_exhaustive(self, n):
        for config in all_configs(n):
            assert_transcript_valid(config, run_proposed(config))

    @pytest.mark.parametrize("n", [2, 4, 8, 16, 32])
    def test_debug_mode_contracts_hold(self, n):
        for config in all_configs(n):
            transcript = run_proposed(config, debug=True)
            assert transcript.estimate == config.weights

    def test_debug_mode_rejects_lying_oracle(self, monkeypatch):
        # The oracle reports a 1 / 1 split first and weight 0 afterwards, so
        # the joint round's precondition fails; without debug the run would
        # return the wrong estimate (0, 1, 0, 1).
        answers = iter([1])
        monkeypatch.setattr(
            strategies, "weigh_runs", lambda p, q, runs: next(answers, 0)
        )
        with pytest.raises(InternalContractError):
            run_proposed(Configuration.type_two(4, 1, 3), debug=True)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_worst_case_attained(self, l):
        worst = max(
            run_proposed(c).weighings for c in all_configs(1 << l)
        )
        assert worst == 2 * l - 1

    @given(st.data())
    def test_recovery_random(self, data):
        l = data.draw(st.integers(1, 6))
        config = data.draw(st.sampled_from(all_configs(1 << l)))
        transcript = run_proposed(config, debug=True)
        assert_transcript_valid(config, transcript)
        assert transcript.weighings <= 2 * l - 1

    @pytest.mark.parametrize("weights", [(1, 1, 0), (0, 1, 0, 0, 1, 0)])
    def test_rejects_non_power_of_two(self, weights):
        with pytest.raises(InvalidSizeError):
            run_proposed(Configuration(weights))


class TestNested:
    def test_split_pair_trace(self):
        transcript = run_nested(Configuration((1, 0, 0, 1)))
        assert transcript.queries == (
            ((1, 2), 1),
            ((1,), 1),
            ((3,), 0),
        )

    def test_heavy_coin_trace(self):
        transcript = run_nested(Configuration((2, 0, 0, 0)))
        assert transcript.queries == (((1, 2), 2), ((1,), 2))

    def test_worst_case_n4(self):
        assert max(run_nested(c).weighings for c in all_configs(4)) == 3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 8, 9, 15, 16, 32])
    def test_recovery_exhaustive(self, n):
        for config in all_configs(n):
            transcript = run_nested(config)
            assert_transcript_valid(config, transcript)
            assert check_nested(transcript)

    @pytest.mark.parametrize("l", [1, 2, 3, 4, 5, 6])
    def test_worst_case_attained(self, l):
        worst = max(run_nested(c).weighings for c in all_configs(1 << l))
        assert worst == 2 * l - 1

    @given(st.data())
    def test_recovery_random_any_size(self, data):
        n = data.draw(st.integers(2, 100))
        kind = data.draw(st.sampled_from(["one", "two"]))
        if kind == "one" or n == 2:
            config = Configuration.type_one(n, data.draw(st.integers(1, n)))
        else:
            i = data.draw(st.integers(1, n - 1))
            j = data.draw(st.integers(i + 1, n))
            config = Configuration.type_two(n, i, j)
        transcript = run_nested(config)
        assert_transcript_valid(config, transcript)
        assert check_nested(transcript)


class TestCheckNested:
    def test_nested_runs_pass(self):
        for config in all_configs(4):
            assert check_nested(run_nested(config))

    def test_example_halving_transcript_is_not_nested(self):
        transcript = run_proposed(EXAMPLE_CONFIG)
        assert not check_nested(transcript)

    def test_single_query_is_nested(self):
        transcript = Transcript(queries=(((1,), 2),), estimate=(2, 0))
        assert check_nested(transcript)

    def test_straddling_query_rejected(self):
        # After {1,2} -> 1, the open regions are {1,2} and {3,4}; a later
        # weighing may not span both.
        transcript = Transcript(
            queries=(((1, 2), 1), ((2, 3), 1)),
            estimate=(1, 0, 0, 1),
        )
        assert not check_nested(transcript)

    def test_non_proper_subset_rejected(self):
        transcript = Transcript(
            queries=(((1, 2, 3, 4), 2),),
            estimate=(2, 0, 0, 0),
        )
        assert not check_nested(transcript)

    def test_impossible_outcome_rejected(self):
        transcript = Transcript(
            queries=(((1, 2), 1), ((1,), 2)),
            estimate=(1, 0, 0, 1),
        )
        assert not check_nested(transcript)


class TestBudget:
    @given(st.data())
    def test_both_strategies_within_bounds(self, data):
        l = data.draw(st.integers(1, 5))
        config = data.draw(st.sampled_from(all_configs(1 << l)))
        for runner in (run_proposed, run_nested):
            transcript = runner(config)
            assert 1 <= transcript.weighings <= 2 * l - 1


def assert_subsets_sliced(transcript: Transcript, queries, n: int):
    """Each subset is a plain tuple of ints that validates and equals the
    concatenation of ``tuple(range(lo, hi))`` over the core's runs."""
    assert len(transcript.queries) == len(queries)
    for (subset, outcome), (runs, core_outcome) in zip(
        transcript.queries, queries
    ):
        assert type(subset) is tuple
        assert set(map(type, subset)) == {int}
        validate_subset(subset, n)
        reference: tuple[int, ...] = ()
        for lo, hi in runs:
            reference += tuple(range(lo, hi))
        assert (subset, outcome) == (reference, core_outcome)


class TestTranscriptSubsets:
    @pytest.mark.parametrize("l", range(1, 9))
    @pytest.mark.parametrize(
        "runner, core",
        [
            (run_proposed, strategies._proposed_core),
            (run_nested, strategies._nested_core),
        ],
        ids=["proposed", "nested"],
    )
    def test_subsets_match_runs(self, runner, core, l):
        n = 1 << l
        for config in all_configs(n):
            queries, _ = core(n, *config.positions)
            assert_subsets_sliced(runner(config), queries, n)

    def test_positions_grow_and_are_reused(self, monkeypatch):
        monkeypatch.setattr(strategies, "_POSITIONS", ())
        for n in (5000, 8):
            config = Configuration.type_two(n, 3, n)
            transcript = run_nested(config)
            assert_transcript_valid(config, transcript)
            queries, _ = strategies._nested_core(n, 3, n)
            assert_subsets_sliced(transcript, queries, n)
            # Grown for n = 5000, then reused, not shrunk, for n = 8.
            assert len(strategies._POSITIONS) == 5001


# sha256 of the concatenated ``trace`` text of every transcript at one size,
# configurations in canonical order, as produced before the executors worked
# on runs (lo, hi): the interval cores must reproduce every query verbatim.
PROPOSED_DIGESTS = {
    1: "4e7e9674df3ae0b1c30cc6e4973d9d5a2cab34f7487a3ad8df2b9cbde975c1cf",
    2: "88c8a4dc817c854fcfca2ad229d4c69fa31bcf44a738a9950c2f16c0e2ecd2a5",
    3: "4a7f61256a3ed56b27638c4084a684f8308848b7413eb6048b8557ab951f22e5",
    4: "0e3dcc9333fe94c523b25839f897957dcb92d881bc051dfbb1086ddbd8b67661",
    5: "9f46003fbb2140fa212e7418aac0906cb3b31ecc9371f1b5e6076196970404e7",
    6: "5cbd8fc69a018bbe5883ce6aaf1021e217be337ad670fa68ec257931d6dcf3de",
    7: "2d41e24abe71f6e6a6c7710854b6ead0b1c383bfc8988003401fe16b6059329a",
}
NESTED_DIGESTS = {
    2: "4e7e9674df3ae0b1c30cc6e4973d9d5a2cab34f7487a3ad8df2b9cbde975c1cf",
    3: "78b01176cbfb4297aa000a330f2a891489092909db12a24faef1f8a56c9764c8",
    4: "79a0671fcdf7e63b47bcd417c80f5252efc7ec405fbcf39735b6eada30bd7d4c",
    5: "f5c93631acad0a2f8b932e0cc026fd137a628d9767c177c74be6315d2cb264fc",
    6: "89995fa81695b2e11bf7b20ba4d7de5df7e4c8df3d31d41e11503c09787011f5",
    7: "db194dabcd8549fe83e085eee07f213bce9fcb75c97807b8d0ff111bf3a4e748",
    8: "1b7533976dadbfa4f9ce4cfe3c48f0b5170027f09fae3752e52f79cc9d85fe5b",
    9: "9774495a070a3ea8ec59f2a4491fbf390ea6d47089a710d542fc94092033d901",
    10: "6428d9163ff843670a147e351fdbecd3989822d6297c7295f726f5f597cc8086",
    11: "3ec671d567ef71b12b5ec8bf7925e998517c88bdb3866a5db6e1ea8a7efe8f31",
    12: "71df44ecceed721265d7cf348a20b5d6c3acbfb7d1f01cb0c092cbeb8c468a40",
    13: "82287f49069313316ddc6c72f1c6312eab0f503816ef647fcf8c0357578bbbcc",
    14: "87d53f39f6730de276ac1b45aad877e44694a90a73b74e3b3b44f0d4d77b347d",
    15: "98f0286fe50a5da7771d3de84d83584d7c61290d3ad82ded113ddf92cbbb29d8",
    16: "aeb0701a37e118f5348efcf9b72693d0a682fc30ecd45d2369983742c7ccc226",
    17: "0b783fd1281dc0c5864ddbdce3bedc8792d240609b6d1419b1591147418c9041",
    18: "f8f770438c7cfd96a20c8f11c05561a0b55b722bc2eb9e406e6ffabbb2fbb7f3",
    19: "065691db7771a3514c5d4256e3975f7b88832ef27e3b0ecbdaa28b914538937a",
    20: "df2155d152da54f3d3490ab74509bd21517cf35f3dc29eaa352102557d8b5137",
    21: "ca8e6723c1ed92ce24dedcee82099cf0bda5fc4803fdce78f7eff1def29b58e4",
    22: "4bf8185b5cb3411bd3b492c44208be59ef1012a9fd17393470c80993683ac530",
    23: "608e3538b3a3e78eb8e567dacff0865ade6e45526e4bb88ca972333c2fec75da",
    24: "bd41194ee5b43b4b7f97a2d33e9cc30e158320a0e14ace20226c767e3f0a4b9d",
    25: "d751f3557f05379b36c59bfb3a92cb04c5a985901a1ea4cb0154d3ab69577c42",
    26: "95420367963fecdbd66e4befaa73c6fb06d51b6505fd4078f7618b0868d8228b",
    27: "d4bf36bf91a77819dc74f8ae52a0cfd7ad60cb62ecff91df3a62c374ccb87c18",
    28: "dd8779a7e1336c85a59cec6bca80e30713bf63071c6dd5e0f853e63f17a9f1cf",
    29: "e40ce019a2236ac43844700a5463ace3d7d086a41ba3748edacbdf08d84b7497",
    30: "4735be285f2c7b2fd325c5efdbf95b8581846becab9c926c3e2289a977987be6",
    31: "4b6b9fca7dc71d1c25b183c46ae2c1d8bbc75a6729bf9fbe9b118d25f5845a3b",
    32: "f6e730b28906c29fcf2ea665e306b5419bba3d741356ed2a15482d8e66573ba8",
    33: "0bcb2b233426f6e63f36847cbdb4ea9df1673908d837122687822615fd93aadd",
    34: "61c5119d417b59b3d948b8d642827c9b4aaeeb5d45f819afc3d94c6f9155a60a",
    35: "a3714070d5a6ba0dd6e7e952f28894b9f6f2f089409c61b6f9d643dc71b72a1f",
    36: "500dbfd9c310e8f30ec775ed73a3bd329063e66885721c5adbeb76869cd3b10e",
    37: "ea215beb0d5e08e9b73d1fb5ec62799e8715c26c53d9314979390ed18c1f52cd",
    38: "2d501b249358885feb8565b507242b0d5b6266781c0542b7793c028e8642aa35",
    39: "69dadb3eb25432814f621f8a4e14ec0d3cd5cd3e81a3286e3c60e64a266ee439",
    40: "ce4ffcc963fad4738cf53adeb49aceea81319c6f74d162ec1cbf45a8c739ef16",
    41: "82fd72851edf93ad62a3e6e2011a53f0216722e484f628d5b070e82026ec935c",
    42: "70d3393fc48576d5308c18cbe3d72a3d2e2e28729bd12865504ff20eafa51c1c",
    43: "e6f42dbdeb31ca2453b26fc027be81ab906d2b187b5bc3fedb5b766384015a57",
    44: "a2e72f97784148f262edbf4969deaf92bea2682f3a1923f39c919674bd05c06f",
    45: "683494489620a61a1a5ce439420294fae17c6ad08298d02ada72d3dd197ba8a4",
    46: "b04b5ccfb7bd01de45a8d9d3b7fc125871c4d9c9e495f56459ca57ab2a1f1606",
    47: "9a155982576fa297a7706a63eff83f9c703477835843a68dc7de4a7eb59eb13b",
    48: "78071fb13cace07983625021b8723e8e4d5dc7b8f148a1a1b37797110ae214ee",
    49: "ead65b64cbb8b4af0bdd22c4df0b92d95a027a3a1629f6f560bbb1e709d291db",
    50: "526d7bc0345ce60b354c724975e893c898aade0e8afc2a9b5426d4c080464c4e",
    51: "7970e8807d0e4181fa71dabacfe1397fc7a171ff594ca88b2c142a2c2ccbcde4",
    52: "254111accf55513ef8f42454b9c903a940bdb9a18efe989e175821511f4e1029",
    53: "05e112d441a260334c548f85c0e7dbc795ca950979899140ffd6f4cd4e0c2bcd",
    54: "ee097c5048c903e12645542a71dd58405c3f6ef068ae1139d8c5c7eee51c6315",
    55: "d366c9250b12791420d1594244c8e58843469a58e4fb0240b247aebee9334b9c",
    56: "3c49b195c9d9a6cbaf6523c1cb58d1f0fa3e8f2992c2da2479ccd9d2e2ab4abe",
    57: "5b355639fa5ba17a1367e8fba1e74c949155ba486131aa17d284e82f16628fd9",
    58: "125248f0d456addd4a5cf92444919b90c10efd2ba6e0413e51569963e9289cfa",
    59: "08657d6b3ac1b2efaf77d7b3c5c87978f619de164f9780dc8d8589a47e3a0204",
    60: "447bf39e24099b5048afb1fba17f76b0fe914ea92e3b7856d1737ce8333a22ad",
    61: "957bcb86d88dda7ec394d71ef3a01f0a8708cf0819cec2b26a42680e998b3226",
    62: "6b2772407aa5c4d8d77badd834a36dab017da0e57e955c4b1e783d7524a959d6",
    63: "f2fb263447934c8d8cf4d6675b4f1247d2e6c6ced4b6bafbb2cb9cc6a6379047",
    64: "6c35e0be68d8a74fe0a5243dde434efa63b0a3e11b6bf92367e5122ef6b85321",
}


def trace_digest(runner, n: int) -> str:
    digest = hashlib.sha256()
    for config in all_configs(n):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli._print_transcript(runner(config))
        digest.update(out.getvalue().encode())
    return digest.hexdigest()


class TestTranscriptDigests:
    @pytest.mark.parametrize("l", sorted(PROPOSED_DIGESTS))
    def test_proposed(self, l):
        assert trace_digest(run_proposed, 1 << l) == PROPOSED_DIGESTS[l]

    @pytest.mark.parametrize("n", sorted(NESTED_DIGESTS))
    def test_nested(self, n):
        assert trace_digest(run_nested, n) == NESTED_DIGESTS[n]
