"""An exact oracle for simulate's sense -> fuse -> access chain under energy
detectors.

A band of B bins with s active subcarriers at noise power sigma2 has
energy E = (sigma2 / 2) * chi2_2B(lambda), lambda = 2 s / sigma2 when the
band is busy and 0 when it is vacant (the iqsynth module docstring). A
UAV reports the band vacant iff E < tau, so

    P(vacant report | state) = P(chi2_2B(lambda) < 2 tau / sigma2)
        = sum_j Poisson(j; lambda / 2) * P(Poisson(tau / sigma2) >= B + j),

summed here in log space (a direct sum underflows at large B and lambda).
The n-out-of-K vote makes the fused P(vacant | vacant) = F0 and
P(vacant | busy) = F1 Poisson-binomial sums over the K UAVs. The channels
are independent and the agent sees only the fused vector, so a
transmission on a channel, allocated from a fused vacant bit and executed
one slot later, collides with probability

    [pi0 F0 p01 + pi1 F1 (1 - p10)] / [pi0 F0 + pi1 F1].

On fixed seeds, every [TP, FP, FN, TN] count of report.json (vacant is the
positive class) and every channel's collision count in the ledgers must lie
within Z_BOUND standard deviations of its exact mean.
"""

import math

import numpy as np
import pytest

from uavdsa.channel import stationary_distribution
from uavdsa.config import validate_config
from uavdsa.iqsynth import band_edges, noise_power
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


def log_poisson_upper_tails(mu: float, top: int) -> np.ndarray:
    """log P(Poisson(mu) >= n) for n = 0..top."""
    stop = int(top + mu + 40.0 * math.sqrt(mu + 1.0) + 100)
    i = np.arange(stop)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, stop)))))
    log_pmf = i * math.log(mu) - mu - log_factorial
    return np.logaddexp.accumulate(log_pmf[::-1])[::-1][:top + 1]


def p_vacant_report(bins: int, active: int, sigma2: float, tau: float, busy: bool) -> float:
    """P(chi2_2B(lambda) < 2 tau / sigma2), lambda = 2 s / sigma2 if busy else 0."""
    half_lambda = active / sigma2 if busy else 0.0
    terms = int(half_lambda + 40.0 * math.sqrt(half_lambda + 1.0) + 50) if busy else 1
    j = np.arange(terms)
    if busy:
        log_weights = (j * math.log(half_lambda) - half_lambda
                       - np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, terms))))))
    else:
        log_weights = np.zeros(1)
    tails = log_poisson_upper_tails(tau / sigma2, bins + terms)[bins + j]
    return float(np.exp(np.logaddexp.reduce(log_weights + tails)))


def at_least(ps, n: int) -> float:
    """P(at least n of independent events with probabilities ps occur)."""
    dist = np.array([1.0])
    for p in ps:
        dist = np.convolve(dist, [1.0 - p, p])
    return float(dist[n:].sum())


def vacant_slot_variance(matrix, slots: int) -> float:
    """Var of the number of vacant slots of one stationary episode."""
    pi0, pi1 = stationary_distribution(matrix)
    rho = 1.0 - matrix.p01 - matrix.p10
    h = np.arange(1, slots)
    return pi0 * pi1 * (slots + 2.0 * float(np.sum((slots - h) * rho ** h)))


def exact_laws(cfg):
    """(reports, fused): [M, 2] arrays of P(vacant report | vacant, busy) per
    channel, one per UAV, then the n-out-of-K vote's."""
    synth, m = cfg.synth, cfg.radio.num_subchannels
    widths = [b - a for a, b in band_edges(synth.samples_per_observation, m)]
    reports = []
    for spec, sinr in zip(cfg.sensing, cfg.link.sensing_sinr_db):
        sigma2 = noise_power(sinr)
        reports.append(np.array([[p_vacant_report(bins, synth.subcarriers_per_subchannel,
                                                  sigma2, tau, busy) for busy in (False, True)]
                                 for bins, tau in zip(widths, spec.thresholds)]))
    fused = np.array([[at_least([r[ch, s] for r in reports], cfg.fusion.n) for s in (0, 1)]
                      for ch in range(m)])
    return reports, fused


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
    reports, fused = exact_laws(validate_config(dict(CONFIGS["noisy"], seed=1)))
    for law in [*reports[:2], fused]:
        assert np.all((law > 0.1) & (law < 0.9)), law
    reports, fused = exact_laws(validate_config(dict(CONFIGS["criterion-8"], seed=1)))
    assert np.all(reports[2] < 1e-12) and np.all(fused[:, 1] < 1e-12)
    assert np.all(fused[:, 0] > 0.8)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_simulate_agrees_with_the_exact_law(name, seed):
    cfg = validate_config(dict(CONFIGS[name], seed=seed))
    reports, fused = exact_laws(cfg)
    run = run_simulation(cfg)
    keys = [f"uav_{k}" for k in range(cfg.radio.num_uavs)] + ["fused"]
    z = {key: count_z_scores(run.sensing_counts[key], law, cfg)
         for key, law in zip(keys, [*reports, fused])}
    z["collisions"] = collision_z_scores(run.ledgers, fused, cfg)
    worst = max(abs(v) for row in z.values() for v in row if not math.isnan(v))
    assert worst <= Z_BOUND, {key: [round(v, 2) for v in row] for key, row in z.items()}
