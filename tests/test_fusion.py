import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavdsa import fusion


def vote(reports, n):
    """fusion.vote of one slot's (K, M) reports, as a tuple."""
    return tuple(fusion.vote(reports, n).tolist())


def vote_at_every_n(reports):
    """The fused vectors of one slot's reports for every n in 1..K."""
    return [vote(reports, n) for n in range(1, len(reports) + 1)]


def brute_force_rule(reports, n):
    """Literal per-channel evaluation of the n-out-of-N vote."""
    m = len(reports[0])
    out = []
    for ch in range(m):
        votes = sum(1 for r in reports if r[ch] == 0)
        out.append(0 if votes >= n else 1)
    return tuple(out)


class TestFuse:
    def test_two_of_three(self):
        assert vote([(0,), (0,), (1,)], 2) == (0,)

    def test_or_rule(self):
        assert vote([(1,), (1,), (0,)], 1) == (0,)

    def test_and_rule(self):
        assert vote([(0,), (0,), (1,)], 3) == (1,)

    def test_unanimous(self):
        for n in (1, 2, 3):
            assert vote([(0, 1)] * 3, n) == (0, 1)

    def test_permutation_invariance(self):
        reports = [(0, 1, 0), (1, 1, 0), (0, 0, 1)]
        expected = vote(reports, 2)
        for perm in itertools.permutations(reports):
            assert vote(list(perm), 2) == expected

    def test_monotone_in_n(self):
        reports = [(0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 1)]
        table = vote_at_every_n(reports)
        for lo, hi in zip(table, table[1:]):
            for a, b in zip(lo, hi):
                assert b >= a  # vacancies only disappear as n grows

    def test_small_exhaustive_against_brute_force(self):
        for k, m in ((2, 2), (3, 2)):
            for bits in itertools.product((0, 1), repeat=k * m):
                reports = [bits[i * m:(i + 1) * m] for i in range(k)]
                for n in range(1, k + 1):
                    assert vote(reports, n) == brute_force_rule(reports, n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            vote([(0,), (0, 1)], 1)


class TestVoteStacks:
    def test_matches_individual_calls(self):
        """A stack of slots' reports, as simulate votes on them, fuses
        each slot as a call on that slot alone does."""
        slots = np.random.default_rng(1).integers(0, 2, size=(20, 3, 5))
        fused = fusion.vote(slots, 2)
        assert fused.shape == (20, 5)
        for reports, row in zip(slots, fused):
            assert tuple(row.tolist()) == vote(reports, 2)

    def test_single_uav(self):
        report = (0, 1, 0)
        assert vote_at_every_n([report]) == [report]


@st.composite
def vote_cases(draw):
    """K reports of M bits and a rule n."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    reports = draw(st.lists(st.tuples(*[st.integers(0, 1)] * m), min_size=k, max_size=k))
    return reports, draw(st.integers(1, k))


@settings(max_examples=300, derandomize=True, database=None)
@given(vote_cases())
def test_vote_at_one_and_every_n_agrees_with_brute_force(case):
    reports, n = case
    k = len(reports)
    assert vote(reports, n) == brute_force_rule(reports, n)
    assert vote_at_every_n(reports) == [brute_force_rule(reports, j) for j in range(1, k + 1)]
