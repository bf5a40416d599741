"""An exact oracle for simulate's sense -> fuse -> access chain under energy
detectors.

exact.exact_laws gives each UAV's P(vacant report | state) and the
n-out-of-K vote's (the derivation is in tests/exact.py). The channels are
independent and the agent sees only the fused vector, so a transmission on
a channel, allocated from a fused vacant bit and executed one slot later,
collides with probability

    [pi0 F0 p01 + pi1 F1 (1 - p10)] / [pi0 F0 + pi1 F1],

F0 and F1 the fused P(vacant | vacant) and P(vacant | busy).

On fixed seeds, every [TP, FP, FN, TN] count of report.json (vacant is the
positive class), per UAV and fused, at every vote threshold n in 1..K, and
every channel's collision count in the ledgers at the configured n, must
lie within Z_BOUND standard deviations of its exact mean.
"""

import math

import numpy as np
import pytest

from exact import exact_laws, p_vacant_report, vacant_slot_variance
from uavdsa.channel import stationary_distribution
from uavdsa.config import validate_config
from uavdsa.simulate import run_simulation

Z_BOUND = 4.0

CONFIGS = {
    # acceptance criterion 8's geometry: the 0 dB UAV always reports busy,
    # misses are negligible, so the collision rate is p01
    "criterion-8": {
        "radio": {"num_subchannels": 4, "num_uavs": 3},
        "dataset": {"fft_size": 256},
        "sensing": {"kind": "energy-threshold", "thresholds": [8.0] * 4},
        "agent": {"variant": "random"},
        "episodes": 4, "slots_per_episode": 1000,
    },
    # large miss and false-alarm probabilities: uneven bands (51 and 52
    # bins), guard bins (40 active subcarriers), unequal per-UAV SINRs and
    # thresholds, per-channel chains and partial requests
    "noisy": {
        "radio": {"num_subchannels": 5, "num_uavs": 3},
        "dataset": {"fft_size": 256, "subcarriers_per_subchannel": 40},
        "link": {"sensing_sinr_db": [-8.0, -7.0, -6.0],
                 "access_sinr_db": [[10.0] * 5] * 3},
        "channels": [{"p01": 0.3, "p10": 0.4}, {"p01": 0.3, "p10": 0.4},
                     {"p01": 0.1, "p10": 0.5}, {"p01": 0.5, "p10": 0.2},
                     {"p01": 0.3, "p10": 0.4}],
        "sensing": [{"kind": "energy-threshold", "thresholds": [340.0] * 4 + [345.0]},
                    {"kind": "energy-threshold", "thresholds": [290.0] * 5},
                    {"kind": "energy-threshold", "thresholds": [225.0] * 5}],
        "fusion_n": 2,
        "agent": {"variant": "random"},
        "request_probability": 0.7,
        "episodes": 4, "slots_per_episode": 1000,
    },
}
SEEDS = (1, 2, 808)


def count_z_scores(counts, law, cfg) -> list[float]:
    """z of [TP, FP, FN, TN] pooled over every channel and slot, for a
    report column with per-channel P(vacant report | state) `law` (M, 2)."""
    slots, episodes = cfg.slots_per_episode, cfg.episodes
    means, variances = np.zeros(4), np.zeros(4)
    for matrix, (q_vac, q_busy) in zip(cfg.matrices, law):
        pis = stationary_distribution(matrix)
        v = vacant_slot_variance(matrix, slots)
        # [TP, FP, FN, TN]: (truth state, P(that report | state))
        for cell, (state, q) in enumerate(((0, q_vac), (1, q_busy),
                                           (0, 1.0 - q_vac), (1, 1.0 - q_busy))):
            means[cell] += episodes * slots * pis[state] * q
            variances[cell] += episodes * (q * (1.0 - q) * slots * pis[state] + q * q * v)
    with np.errstate(invalid="ignore"):  # a cell whose law is 0 or 1 reads 0/0: NaN
        return ((np.asarray(counts) - means) / np.sqrt(variances)).tolist()


def collision_z_scores(ledgers, fused, cfg) -> list[float]:
    """z of each channel's collision count among its transmissions. The
    binomial variance is inflated by (1 + |rho|) / (1 - |rho|), the
    variance factor of a chain whose lag-h correlation is |rho|^h."""
    m = cfg.radio.num_subchannels
    sent, hit = np.zeros(m), np.zeros(m)
    for led in ledgers:
        for (_, ch), r in led.collision.items():
            sent[ch - 1] += 1
            hit[ch - 1] += r == -1
    z = []
    for ch, (matrix, (f0, f1)) in enumerate(zip(cfg.matrices, fused)):
        pi0, pi1 = stationary_distribution(matrix)
        rate = ((pi0 * f0 * matrix.p01 + pi1 * f1 * (1.0 - matrix.p10))
                / (pi0 * f0 + pi1 * f1))
        rho = abs(1.0 - matrix.p01 - matrix.p10)
        var = sent[ch] * rate * (1.0 - rate) * (1.0 + rho) / (1.0 - rho)
        assert sent[ch] > 500, f"channel {ch + 1} carried only {sent[ch]:.0f} transmissions"
        z.append(float((hit[ch] - sent[ch] * rate) / math.sqrt(var)))
    return z


@pytest.mark.parametrize("bins,lam", [(16, 0.0), (16, 5.0), (64, 128.0), (256, 1280.0)])
def test_noncentral_chi_square_law_matches_a_monte_carlo_draw(bins, lam):
    """The log-space CDF against a direct draw of the same law, at the
    threshold where it reads about one half."""
    rng = np.random.default_rng(bins)
    draws = rng.noncentral_chisquare(2 * bins, lam, 200_000) if lam else rng.chisquare(
        2 * bins, 200_000)
    x = float(np.median(draws))  # P(chi2 < x) = 1/2 up to sampling error
    # sigma2 = 1 and s = lambda / 2, so 2 tau / sigma2 = x at tau = x / 2
    p = p_vacant_report(bins, lam / 2.0, 1.0, x / 2.0, busy=lam > 0)
    assert abs(p - 0.5) < 4.0 * math.sqrt(0.25 / len(draws))
    below = p_vacant_report(bins, lam / 2.0, 1.0, np.quantile(draws, 0.01) / 2.0,
                            busy=lam > 0)
    assert abs(below - 0.01) < 4.0 * math.sqrt(0.01 * 0.99 / len(draws))


def test_laws_are_not_trivial():
    """The noisy config has large miss and false-alarm probabilities at
    every UAV and after the vote, and criterion 8's has a silent 0 dB UAV."""
    cfg = validate_config(dict(CONFIGS["noisy"], seed=1))
    reports, fused = exact_laws(cfg, cfg.fusion_n)
    for law in [*reports[:2], fused]:
        assert np.all((law > 0.1) & (law < 0.9)), law
    cfg = validate_config(dict(CONFIGS["criterion-8"], seed=1))
    reports, fused = exact_laws(cfg, cfg.fusion_n)
    assert np.all(reports[2] < 1e-12) and np.all(fused[:, 1] < 1e-12)
    assert np.all(fused[:, 0] > 0.8)


def run_z_scores(cfg):
    """Run simulate; return the run, its fused law, and the z of every
    UAV's and the fused counts against the exact laws at its vote
    threshold."""
    reports, fused = exact_laws(cfg, cfg.fusion_n)
    run = run_simulation(cfg)
    keys = [f"uav_{k}" for k in range(cfg.radio.num_uavs)] + ["fused"]
    z = {key: count_z_scores(run.sensing_counts[key], law, cfg)
         for key, law in zip(keys, [*reports, fused])}
    return run, fused, z


def assert_within_bound(z: dict[str, list[float]]) -> None:
    worst = max(abs(v) for row in z.values() for v in row if not math.isnan(v))
    assert worst <= Z_BOUND, {key: [round(v, 2) for v in row] for key, row in z.items()}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_agrees_with_the_exact_law(name, seed):
    cfg = validate_config(dict(CONFIGS[name], seed=seed))
    run, fused, z = run_z_scores(cfg)
    z["collisions"] = collision_z_scores(run.ledgers, fused, cfg)
    assert_within_bound(z)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name,n", [(name, n) for name in sorted(CONFIGS)
                                    for n in range(1, CONFIGS[name]["radio"]["num_uavs"] + 1)])
def test_counts_agree_with_the_exact_law_at_every_vote_threshold(name, n, seed):
    """The per-UAV and fused counts of a run at each n in 1..K; collisions
    are checked at the configured n only, where every channel carries
    enough transmissions."""
    _, _, z = run_z_scores(validate_config(dict(CONFIGS[name], seed=seed, fusion_n=n)))
    assert_within_bound(z)
