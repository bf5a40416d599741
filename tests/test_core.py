import math

import numpy as np
import pytest

import exact
from uavdsa import core


def timing(t_req=0.0, t_s=0.0, t_b=0.0, t_a=0.0):
    if t_req + t_s + t_b + t_a == 0:
        t_b = 1e-9  # keep total positive
    return core.SlotTiming(t_req, t_s, t_b, t_a)


def radio(v_cc=1.0, p_tx=1.0, b_m=1.0, m=4, k=3):
    return core.RadioParams(v_cc=v_cc, p_tx=p_tx, subchannel_bandwidth=b_m,
                            num_subchannels=m, num_uavs=k)


class TestCosts:
    def test_sensing_cost_zero_duration(self):
        assert core.sensing_cost(timing(t_s=0.0), radio(v_cc=1.0, b_m=5.0)) == 0.0

    def test_sensing_cost_formula(self):
        assert core.sensing_cost(timing(t_s=1.0), radio(v_cc=2.0, b_m=5.0)) == 20.0
        assert core.sensing_cost(timing(t_s=2.0), radio(v_cc=1.0, b_m=1.0)) == 2.0

    def test_access_cost(self):
        assert core.access_cost(timing(t_a=0.0), radio(p_tx=3.0)) == 0.0
        assert core.access_cost(timing(t_a=2.0), radio(p_tx=0.5)) == 1.0
        assert core.access_cost(timing(t_a=1.0), radio(p_tx=1.0)) == 1.0

    def test_costs_linear_in_duration(self):
        r = radio(v_cc=1.3, p_tx=0.7, b_m=2.5)
        assert core.sensing_cost(timing(t_s=2.0), r) == pytest.approx(
            2 * core.sensing_cost(timing(t_s=1.0), r))
        assert core.access_cost(timing(t_a=3.0), r) == pytest.approx(
            2 * core.access_cost(timing(t_a=1.5), r))


class TestThroughput:
    def test_zero_sinr(self):
        assert core.throughput(timing(t_a=1.0), radio(b_m=1.0), 0.0) == 0.0

    def test_unit_cases(self):
        assert core.throughput(timing(t_a=1.0), radio(b_m=1.0), 1.0) == 1.0
        assert core.throughput(timing(t_a=2.0), radio(b_m=3.0), 3.0) == pytest.approx(12.0)

    def test_rejects_negative_sinr(self):
        with pytest.raises(ValueError):
            core.throughput(timing(t_a=1.0), radio(), -0.1)

    def test_monotone_in_sinr(self):
        t, r = timing(t_a=1.0), radio(b_m=2.0)
        values = [core.throughput(t, r, s) for s in (0.0, 0.5, 1.0, 2.0, 10.0, 100.0)]
        assert values == sorted(values)
        assert values[0] == 0.0


class TestCollisionIndicator:
    def test_paper_cases(self):
        assert exact.collision_indicator(0, 0) == 1
        assert exact.collision_indicator(1, 0) == -1
        assert exact.collision_indicator(1, 1) == 0
        assert exact.collision_indicator(0, 1) == 0

    def test_total_on_bits_with_exact_range(self):
        values = {exact.collision_indicator(a, b) for a in (0, 1) for b in (0, 1)}
        assert values == {-1, 0, 1}

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            exact.collision_indicator(2, 0)


class TestSlotUtility:
    def test_single_pair(self):
        assert core.slot_utility([(1, 12.0)]) == 12.0
        assert core.slot_utility([(-1, 12.0)]) == -12.0

    def test_empty(self):
        assert core.slot_utility([]) == 0.0

    def test_additive_over_disjoint_pairs(self):
        a = [(1, 3.0), (-1, 2.0)]
        b = [(1, 7.5)]
        assert core.slot_utility(a + b) == pytest.approx(
            core.slot_utility(a) + core.slot_utility(b))


class TestEnergyEfficiency:
    def test_successful_transmission(self):
        assert core.energy_efficiency([(1, 10.0, 2.0)], [3.0]) == pytest.approx(2.0)

    def test_sensing_only(self):
        assert core.energy_efficiency([], [3.0]) == 0.0

    def test_collision_penalty(self):
        assert core.energy_efficiency([(-1, 10.0, 2.0)], [3.0]) == pytest.approx(-2.0)

    def test_zero_denominator(self):
        assert math.isnan(core.energy_efficiency([], []))


class TestTypes:
    def test_occupancy_codec_round_trips_any_leading_shape(self):
        bits = np.random.default_rng(0).integers(0, 2, size=(3, 5, 7), dtype=np.int8)
        codes = core.occupancy_codes(bits)
        assert codes.shape == (3, 5) and codes.dtype == np.int64
        back = core.code_bits(codes, 7)
        assert back.dtype == np.int8 and np.array_equal(back, bits)
        # sub-channel m is bit 2^(m-1), for one vector as for a stack
        assert core.occupancy_codes((0, 1, 1)) == 6
        assert core.code_bits(6, 3).tolist() == [0, 1, 1]
        assert np.array_equal(core.occupancy_codes(core.code_bits(np.arange(8), 3)),
                              np.arange(8))

    def test_ledger_rejects_bad_indicator(self):
        with pytest.raises(ValueError):
            core.SlotLedger(slot=0, collision={(0, 1): 2}, utility=1.0,
                            energy_efficiency=0.5)
