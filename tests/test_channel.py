import numpy as np
import pytest

import exact
from uavdsa import channel
from uavdsa.seeds import derive_rng


class TestTransitionMatrix:
    def test_rows_stochastic(self):
        m = channel.TransitionMatrix(0.2, 0.3)
        assert np.allclose(exact.chain_rows(m).sum(axis=1), 1.0)


class TestStationary:
    def test_symmetric(self):
        assert channel.stationary_distribution(channel.TransitionMatrix(0.5, 0.5)) == (0.5, 0.5)

    def test_hand_solved(self):
        # pi P = pi for p01=0.2, p10=0.3 gives pi = (0.6, 0.4)
        vac, busy = channel.stationary_distribution(channel.TransitionMatrix(0.2, 0.3))
        assert vac == pytest.approx(0.6)
        assert busy == pytest.approx(0.4)

    def test_absorbing_busy(self):
        assert channel.stationary_distribution(channel.TransitionMatrix(1.0, 0.0)) == (0.0, 1.0)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            channel.stationary_distribution(channel.TransitionMatrix(0.0, 0.0))


class TestStep:
    """sample_occupancy continuing after a given previous state."""

    def test_identity_dynamics_absorbing(self):
        mats = [channel.TransitionMatrix(0.0, 0.0)] * 2
        traj = channel.sample_occupancy(mats, 50, derive_rng(1), start=(0, 1))
        assert traj.tolist() == [[0, 1]] * 50

    def test_deterministic_flip(self):
        mats = [channel.TransitionMatrix(1.0, 1.0)]
        traj = channel.sample_occupancy(mats, 4, derive_rng(1), start=(0,))
        assert traj[:, 0].tolist() == [1, 0, 1, 0]

    def test_long_run_busy_fraction(self):
        # closed form p01/(p01+p10) = 0.4, checked by long-run frequency
        mats = [channel.TransitionMatrix(0.2, 0.3)]
        traj = channel.sample_occupancy(mats, 10 ** 6, derive_rng(123, 0xC4A1))
        busy = traj[:, 0].mean()
        assert busy == pytest.approx(0.4, abs=0.01)

    def test_preserves_length_and_alphabet(self):
        mats = [channel.TransitionMatrix(0.4, 0.2)] * 5
        traj = channel.sample_occupancy(mats, 200, derive_rng(2), start=(0, 1, 0, 1, 0))
        assert traj.shape == (200, 5)
        assert set(np.unique(traj).tolist()) <= {0, 1}

    def test_empirical_transition_frequencies(self):
        p01, p10 = 0.2, 0.3
        traj = channel.sample_occupancy([channel.TransitionMatrix(p01, p10)],
                                        10 ** 5, derive_rng(9, 0xC4A1))
        bits = traj[:, 0].tolist()
        from_vacant = [(a, b) for a, b in zip(bits, bits[1:]) if a == 0]
        from_busy = [(a, b) for a, b in zip(bits, bits[1:]) if a == 1]
        est01 = np.mean([b for _, b in from_vacant])
        est10 = np.mean([1 - b for _, b in from_busy])
        assert est01 == pytest.approx(p01, abs=0.02)
        assert est10 == pytest.approx(p10, abs=0.02)

    def test_matrix_count_mismatch(self):
        with pytest.raises(ValueError, match="expected 2 matrices, got 1"):
            channel.sample_occupancy([channel.TransitionMatrix(0.1, 0.1)], 3, derive_rng(0),
                                     start=(0, 1))


class TestSampleOccupancy:
    def test_identity_from_stationary_is_constant(self):
        mats = [channel.TransitionMatrix(1.0, 0.0)]  # stationary: always busy
        traj = channel.sample_occupancy(mats, 100, derive_rng(4, 0xC4A1))
        assert traj.tolist() == [[1]] * 100

    def test_same_seed_identical(self):
        mats = [channel.TransitionMatrix(0.2, 0.3)] * 3
        assert np.array_equal(channel.sample_occupancy(mats, 500, derive_rng(7, 0xC4A1)),
                              channel.sample_occupancy(mats, 500, derive_rng(7, 0xC4A1)))

    def test_busy_rate_matches_stationary(self):
        mats = [channel.TransitionMatrix(0.25, 0.5), channel.TransitionMatrix(0.1, 0.1)]
        traj = channel.sample_occupancy(mats, 10 ** 5, derive_rng(11, 0xC4A1))
        rates = np.mean(traj, axis=0)
        for m, rate in zip(mats, rates):
            assert rate == pytest.approx(channel.stationary_distribution(m)[1], abs=0.02)

    def test_degenerate_propagates(self):
        with pytest.raises(ValueError):
            channel.sample_occupancy([channel.TransitionMatrix(0.0, 0.0)], 10, derive_rng(0))

    def test_requires_positive_horizon(self):
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            channel.sample_occupancy([channel.TransitionMatrix(0.2, 0.3)], 0, derive_rng(0))


def reference_trajectory(matrices, horizon, rng, start=None):
    """One np.where step per slot, as the chains were stepped before the
    horizon-at-once draw: a stationary draw and its successors, or the
    horizon states after a given start."""
    if start is None:
        state = tuple(channel.stationary_sampler(matrices)(rng).tolist())
    else:
        state = tuple(start)
    out = [state] if start is None else []
    while len(out) < horizon:
        bits = np.asarray(state)
        flip_prob = np.where(bits == 0, [m.p01 for m in matrices],
                             [m.p10 for m in matrices])
        flips = rng.random(len(bits)) < flip_prob
        state = tuple(int(b) for b in np.where(flips, 1 - bits, bits))
        out.append(state)
    return out


def as_states(walk):
    return [tuple(s) for s in walk.tolist()]


MIXED_CHAINS = [(0.2, 0.3), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (0.5, 0.5),
                (0.9, 0.05), (0.05, 0.9), (0.3, 0.3), (0.0, 0.4), (0.4, 0.0)]


@pytest.mark.parametrize("horizon", [1, 2, 3, 2000])
def test_trajectories_match_per_step_reference(horizon):
    mats = [channel.TransitionMatrix(*p) for p in MIXED_CHAINS]
    want = reference_trajectory(mats, horizon, derive_rng(17, 0xC4A1))
    got = channel.sample_occupancy(mats, horizon, derive_rng(17, 0xC4A1))
    assert as_states(got) == want
    assert got.dtype == np.int8 and got.shape == (horizon, len(mats))
    rng = derive_rng(17, 0xC4A1)  # the same walk, continued in pieces from a given state
    pieces = [channel.sample_occupancy(mats, 1, rng)]
    while sum(map(len, pieces)) < horizon:
        steps = min(7, horizon - sum(map(len, pieces)))
        pieces.append(channel.sample_occupancy(mats, steps, rng, pieces[-1][-1]))
    assert as_states(np.concatenate(pieces)) == want


def test_walker_matches_the_reference_on_random_chains():
    """A seeded sweep over M from 1 to 8, horizons 1-59, p01 and p10 each
    0, 1 or uniform, and fresh or given starts: the same states, as int8
    (horizon, M), and the generator left in the same state."""
    gen = np.random.default_rng(0xC4A1)
    for _ in range(3000):
        m, horizon = int(gen.integers(1, 9)), int(gen.integers(1, 60))
        kind = gen.integers(0, 3, (m, 2))
        probs = np.where(kind == 2, gen.random((m, 2)), kind)
        mats = [channel.TransitionMatrix(float(p01), float(p10)) for p01, p10 in probs]
        start = None if gen.random() < 0.5 else tuple(gen.integers(0, 2, m).tolist())
        seed = int(gen.integers(2 ** 32))
        rng, ref_rng = derive_rng(seed), derive_rng(seed)
        if start is None and (probs.sum(axis=1) == 0).any():
            with pytest.raises(ValueError, match="no unique stationary"):
                channel.sample_occupancy(mats, horizon, rng, start)
            continue
        got = channel.sample_occupancy(mats, horizon, rng, start)
        assert got.dtype == np.int8 and got.shape == (horizon, m)
        assert as_states(got) == reference_trajectory(mats, horizon, ref_rng, start)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


class TestLinkModel:
    def test_sinr_lookup_and_conversion(self):
        link = channel.LinkModel(sensing_sinr_db=(10.0, 0.0),
                                 access_sinr_db=((0.0, 20.0), (-10.0, 5.0)))
        assert link.access_sinr_db[1][1] == 5.0
        assert channel.db_to_linear(0.0) == pytest.approx(1.0)
        assert channel.db_to_linear(20.0) == pytest.approx(100.0)
        assert channel.db_to_linear(-10.0) == pytest.approx(0.1)

    def test_default_preset_degrades_last_uav(self):
        link = channel.default_link_model(3, 4)
        assert link.sensing_sinr_db == (10.0, 10.0, 0.0)
