"""Exact references that the tests check the package against.

None of this runs in the package: the paper's collision indicator of one
sub-channel, the allocation MDP's value iteration and policy utility over
the joint occupancy chain, the mean squared error that the DQN step
builds in place and the finite-difference gradient check, the
bundled M = 2/4 scheduling environments, the energy detectors' exact
report and vote laws, and a single capture as the one-label, K = 1 row of
iqsynth.synthesize_block. tests/ is not a package, so test files import
this module as `exact`.

The energy-detector laws: a band of B bins with s active subcarriers at
noise power sigma2 has energy E = (sigma2 / 2) * chi2_2B(lambda), lambda =
2 s / sigma2 when the band is busy and 0 when it is vacant (the iqsynth
module docstring). A UAV reports the band vacant iff E < tau, so

    P(vacant report | state) = P(chi2_2B(lambda) < 2 tau / sigma2)
        = sum_j Poisson(j; lambda / 2) * P(Poisson(tau / sigma2) >= B + j),

summed here in log space (a direct sum underflows at large B and lambda).
The n-out-of-K vote makes the fused P(vacant | vacant) = F0 and
P(vacant | busy) = F1 Poisson-binomial sums over the K UAVs.
"""

import math
from typing import Callable, NamedTuple

import numpy as np

from uavdsa import iqsynth, nnet
from uavdsa.channel import TransitionMatrix, stationary_distribution
from uavdsa.iqsynth import band_edges, noise_power
from uavdsa.scheduler import SchedulingEnv, normalized_reward_table

VALUE_ITERATION_MAX_SUBCHANNELS = 10


def capture(label, sinr_db: float, config: iqsynth.SynthConfig,
            rng: np.random.Generator) -> np.ndarray:
    """One labeled capture (N,) complex128: the inverse transform of the
    one-label, K = 1 synthesize_block row."""
    return np.fft.ifft(iqsynth.synthesize_block([label], (sinr_db,), config, [rng])[0, 0],
                       norm="ortho")


# ---------------------------------------------------------------------------
# The allocation MDP


def collision_indicator(true_state_now: int, fused_prev: int) -> int:
    """Access outcome for one sub-channel: +1 successful secondary use,
    -1 collision with a returned primary, 0 no transmission opportunity.

    true_state_now is the channel's actual occupancy this slot; fused_prev
    is the fused prediction from the slot the allocation was based on.
    """
    if true_state_now not in (0, 1) or fused_prev not in (0, 1):
        raise ValueError("arguments must be bits")
    if fused_prev != 0:
        return 0
    return 1 if true_state_now == 0 else -1


def preset_scheduling_env(num_subchannels: int, num_uavs: int = 1) -> SchedulingEnv:
    """Bundled small MDPs for M=2 and M=4: p01=0.2 / p10=0.3 per channel,
    with distinct per-channel link qualities so the greedy choice matters."""
    sinr_by_m = {2: [15.0, 5.0], 4: [20.0, 12.0, 6.0, 0.0]}
    matrices = [TransitionMatrix(0.2, 0.3) for _ in range(num_subchannels)]
    row = sinr_by_m[num_subchannels]
    table = normalized_reward_table([row] * num_uavs)
    return SchedulingEnv(matrices, table)


def chain_rows(matrix: TransitionMatrix) -> np.ndarray:
    """The chain's row-stochastic 2x2 matrix, row and column 0 vacant."""
    return np.array([[1.0 - matrix.p01, matrix.p01], [matrix.p10, 1.0 - matrix.p10]])


def _joint_transition(matrices: list[TransitionMatrix]) -> np.ndarray:
    """Kronecker product of the per-channel chains under the bit-index
    convention (channel 1 in the least significant bit)."""
    joint = np.array([[1.0]])
    for m in matrices:
        joint = np.kron(chain_rows(m), joint)
    return joint


def _expected_rewards(matrices, channel_rewards) -> np.ndarray:
    """E[r * R] per (state, action); -inf marks infeasible actions."""
    out = np.full((2 ** len(matrices), len(matrices) + 1), -np.inf)
    out[:, 0] = 0.0
    for m, matrix in enumerate(matrices):
        vacant = (np.arange(len(out)) >> m) & 1 == 0  # the states where channel m+1 is free
        out[vacant, m + 1] = channel_rewards[m] * (1.0 - 2.0 * matrix.p01)
    return out


def value_iteration(matrices: list[TransitionMatrix], channel_rewards,
                    gamma: float, tol: float = 1e-9):
    """Exact Bellman solution of the allocation MDP over the 2^M recurrent
    states; returns (values, greedy policy). Infeasible actions are
    excluded from the max; ties break toward the lowest action index."""
    if len(matrices) > VALUE_ITERATION_MAX_SUBCHANNELS:
        raise ValueError(
            f"value iteration enumerates 2^M states; M <= "
            f"{VALUE_ITERATION_MAX_SUBCHANNELS} required, got {len(matrices)}")
    if not 0.0 <= gamma < 1.0:
        raise ValueError("gamma must lie in [0, 1)")
    if len(channel_rewards) != len(matrices):
        raise ValueError("one reward per sub-channel required")
    p = _joint_transition(matrices)
    r_exp = _expected_rewards(matrices, channel_rewards)
    v = np.zeros(2 ** len(matrices))
    while True:
        q = r_exp + gamma * (p @ v)[:, None]
        v_new = q.max(axis=1)
        if np.max(np.abs(v_new - v)) < tol:
            break
        v = v_new
    policy = q.argmax(axis=1)
    return v_new, policy


def policy_expected_utility(matrices: list[TransitionMatrix], channel_rewards,
                            policy) -> float:
    """Exact long-run per-slot expected utility of a stationary policy,
    weighting states by the joint stationary distribution."""
    r_exp = _expected_rewards(matrices, channel_rewards)
    pi = np.array([1.0])  # the joint stationary distribution, channel 1 in the lowest bit
    for m in matrices:
        pi = np.kron(np.asarray(stationary_distribution(m)), pi)
    per_state = r_exp[np.arange(len(policy)), policy]
    if not np.all(np.isfinite(per_state)):
        raise ValueError("policy takes an infeasible action")
    return float(pi @ per_state)


# ---------------------------------------------------------------------------
# Gradients


def mse_loss(y: np.ndarray, t: np.ndarray) -> float:
    """Mean squared error of outputs y against targets t of their shape, in
    float64."""
    y, t = np.asarray(y, dtype=float), np.asarray(t, dtype=float)
    return float(np.mean((y - t) ** 2))


def mse_error(net: nnet.Network, trace, target: np.ndarray) -> np.ndarray:
    """mse_loss's gradient at the output layer's pre-activations, a mean
    over every output of the trace, as a new array: y - t, then *= 2.0,
    then /= size, the operations of 2.0 * (y - t) / size in their order
    (the DQN step's error). The head is identity, or ReLU, whose mask it
    applies."""
    pre, post = trace
    y = post[-1]
    t = np.atleast_2d(np.asarray(target, dtype=y.dtype))
    if y.shape != t.shape:
        raise ValueError(f"target shape {t.shape} != output shape {y.shape}")
    head = net.layers[-1].activation
    if head not in ("identity", "relu"):
        raise ValueError(f"mse_error expects an identity or relu head, not {head}")
    delta = y - t
    delta *= 2.0
    delta /= y.size
    if head == "relu":
        delta *= pre[-1] > 0.0
    return delta


def mse_gradients(net: nnet.Network, x: np.ndarray, target: np.ndarray, trace=None):
    """mse_loss's gradients (dW, db) for every layer, as nnet.backward gives
    the classifier's: mse_error, then nnet.backpropagate."""
    trace = nnet.forward_trace(net, x) if trace is None else trace
    return nnet.backpropagate(net, trace, mse_error(net, trace, target))


class Loss(NamedTuple):
    gradients: Callable  # (net, x, target) -> per-layer (dW, db)
    value: Callable  # (outputs, targets) -> the mean loss, in float64


MSE = Loss(mse_gradients, mse_loss)
BCE = Loss(nnet.backward, nnet.output_loss)  # the classifier's, on a sigmoid head


def gradient_check(net: nnet.Network, x: np.ndarray, target: np.ndarray,
                   loss: Loss, eps: float = 1e-3) -> float:
    """Worst relative discrepancy between the loss's gradients and central
    differences.

    Gradient pairs that are both below 1e-7 in magnitude count as matching
    (dead ReLU paths are exactly zero on both sides).
    """
    grads = loss.gradients(net, x, target)
    t = np.atleast_2d(np.asarray(target, dtype=float))
    worst = 0.0
    for layer, (gw, gb) in zip(net.layers, grads):
        for param, grad in ((layer.w, gw), (layer.b, gb)):
            flat = param.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss.value(np.atleast_2d(nnet.forward(net, x)), t)
                flat[i] = orig - eps
                down = loss.value(np.atleast_2d(nnet.forward(net, x)), t)
                flat[i] = orig
                fd = (up - down) / (2.0 * eps)
                denom = max(abs(gflat[i]), abs(fd))
                if denom < 1e-7:
                    continue
                worst = max(worst, abs(gflat[i] - fd) / denom)
    return worst


# ---------------------------------------------------------------------------
# Energy detectors and the vote


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


def exact_laws(cfg, n: int):
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
    fused = np.array([[at_least([r[ch, s] for r in reports], n) for s in (0, 1)]
                      for ch in range(m)])
    return reports, fused
