import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavdsa import fusion


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
        rule = fusion.FusionRule(n=2, num_uavs=3)
        assert fusion.fuse([(0,), (0,), (1,)], rule) == (0,)

    def test_or_rule(self):
        rule = fusion.FusionRule(n=1, num_uavs=3)
        assert fusion.fuse([(1,), (1,), (0,)], rule) == (0,)

    def test_and_rule(self):
        rule = fusion.FusionRule(n=3, num_uavs=3)
        assert fusion.fuse([(0,), (0,), (1,)], rule) == (1,)

    def test_unanimous(self):
        for n in (1, 2, 3):
            rule = fusion.FusionRule(n=n, num_uavs=3)
            assert fusion.fuse([(0, 1)] * 3, rule) == (0, 1)

    def test_permutation_invariance(self):
        rule = fusion.FusionRule(n=2, num_uavs=3)
        reports = [(0, 1, 0), (1, 1, 0), (0, 0, 1)]
        expected = fusion.fuse(reports, rule)
        for perm in itertools.permutations(reports):
            assert fusion.fuse(list(perm), rule) == expected

    def test_monotone_in_n(self):
        reports = [(0, 1, 0, 1), (1, 1, 0, 0), (0, 0, 0, 1), (1, 0, 1, 1)]
        table = fusion.fusion_table(reports, 4)
        for lo, hi in zip(table, table[1:]):
            for a, b in zip(lo, hi):
                assert b >= a  # vacancies only disappear as n grows

    def test_small_exhaustive_against_brute_force(self):
        for k, m in ((2, 2), (3, 2)):
            for bits in itertools.product((0, 1), repeat=k * m):
                reports = [bits[i * m:(i + 1) * m] for i in range(k)]
                for n in range(1, k + 1):
                    rule = fusion.FusionRule(n=n, num_uavs=k)
                    assert fusion.fuse(reports, rule) == brute_force_rule(reports, n)

    def test_report_count_mismatch(self):
        with pytest.raises(ValueError):
            fusion.fuse([(0,)], fusion.FusionRule(n=1, num_uavs=2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            fusion.fuse([(0,), (0, 1)], fusion.FusionRule(n=1, num_uavs=2))

    def test_rule_bounds(self):
        with pytest.raises(ValueError):
            fusion.FusionRule(n=0, num_uavs=3)
        with pytest.raises(ValueError):
            fusion.FusionRule(n=4, num_uavs=3)


class TestFusionTable:
    def test_matches_individual_calls(self):
        reports = [(0, 1, 1), (0, 0, 1), (1, 0, 1)]
        table = fusion.fusion_table(reports, 3)
        for n, fused in enumerate(table, start=1):
            assert fused == fusion.fuse(reports, fusion.FusionRule(n=n, num_uavs=3))

    def test_single_uav(self):
        report = (0, 1, 0)
        assert fusion.fusion_table([report], 1) == [report]


@st.composite
def vote_cases(draw):
    """K reports of M bits and a rule n."""
    k, m = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    reports = draw(st.lists(st.tuples(*[st.integers(0, 1)] * m), min_size=k, max_size=k))
    return reports, draw(st.integers(1, k))


@settings(max_examples=300, derandomize=True, database=None)
@given(vote_cases())
def test_fuse_and_fusion_table_agree_with_brute_force_vote(case):
    reports, n = case
    k = len(reports)
    assert fusion.fuse(reports, fusion.FusionRule(n=n, num_uavs=k)) == \
        brute_force_rule(reports, n)
    assert fusion.fusion_table(reports, k) == [brute_force_rule(reports, j)
                                               for j in range(1, k + 1)]
