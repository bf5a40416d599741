"""Primary-user environment: per-sub-channel two-state Markov occupancy
chains plus a static per-link SINR table standing in for ray-traced
geometry.

State convention everywhere: 0 = vacant, 1 = busy.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic 2x2 chain: p01 = P(vacant -> busy), p10 = P(busy -> vacant)."""

    p01: float = field(default=0.2, metadata={"low": 0.0, "high": 1.0})
    p10: float = field(default=0.3, metadata={"low": 0.0, "high": 1.0})


@dataclass(frozen=True)
class LinkModel:
    """Static SINR tables replacing the ray-traced geometry.

    sensing_sinr_db[k] applies to UAV k's sensing captures; in swept
    evaluations the differences between entries act as per-UAV offsets.
    access_sinr_db[k][m] is the transmit-link SINR of UAV k on sub-channel m.
    """

    sensing_sinr_db: tuple[float, ...]
    access_sinr_db: tuple[tuple[float, ...], ...]


def db_to_linear(db: float) -> float:
    return 10.0 ** (db / 10.0)


def stationary_distribution(matrix: TransitionMatrix) -> tuple[float, float]:
    """(P(vacant), P(busy)) of the chain's unique stationary distribution."""
    s = matrix.p01 + matrix.p10
    if s == 0:
        raise ValueError("p01 = p10 = 0 has no unique stationary distribution")
    return matrix.p10 / s, matrix.p01 / s


def stationary_sampler(matrices: list[TransitionMatrix]):
    """Callable(rng) drawing an int8 occupancy vector (M,) from the chains'
    stationary distributions: channel m is busy iff its one uniform is
    >= P(vacant). It draws each episode's slot-0 occupancy and each dataset
    label."""
    p_vacant = np.array([stationary_distribution(m)[0] for m in matrices])

    def draw(rng: np.random.Generator) -> np.ndarray:
        return (rng.random(len(p_vacant)) >= p_vacant).astype(np.int8)

    return draw


def sample_occupancy(matrices: list[TransitionMatrix], horizon: int,
                     rng: np.random.Generator, start=None) -> np.ndarray:
    """(horizon, M) int8 trajectory of true occupancy vectors driven by rng:
    a stationary draw and its successors, or, after a given previous
    state `start`, the next horizon states. One rng.random((steps, M))
    draw gives every step one uniform u per channel, in slot order.

    The transition rule: a vacant channel turns busy iff u < p01, and a
    busy one stays busy iff u >= p10. So each step maps a channel's state
    through a constant (both tests agree), a flip (only u < p01 holds) or
    the identity (only u >= p10 holds), and the state after a step is the
    value of the last constant map (or the start) XOR the parity of the
    flips since then: array code, with no loop over slots or channels."""
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if start is not None and len(start) != len(matrices):
        raise ValueError(f"expected {len(start)} matrices, got {len(matrices)}")
    fresh, m = start is None, len(matrices)
    if fresh:
        start = stationary_sampler(matrices)(rng)
    steps = horizon - fresh
    u = rng.random((steps, m))
    p01, p10 = np.array([(matrix.p01, matrix.p10) for matrix in matrices]).T
    to_busy, stays_busy = u < p01, u >= p10
    parity = np.logical_xor.accumulate(to_busy, axis=0)  # of the u < p01 steps so far
    # row 0 is the start; row s >= 1 is step s's constant, if it has one,
    # XOR the parity up to s
    base = np.empty((steps + 1, m), bool)
    base[0] = start
    np.not_equal(to_busy, parity, out=base[1:])
    # the last constant map at or before each step, 0 if none since the start
    last = np.maximum.accumulate(
        np.where(to_busy == stays_busy, np.arange(1, steps + 1)[:, None], 0), axis=0)
    # each u < p01 step after that map is a flip: the flips since it have
    # the parity of base's row XOR the parity now
    walk = np.empty((steps + 1, m), np.int8)
    walk[0] = start
    np.not_equal(base.ravel()[last * m + np.arange(m)], parity, out=walk[1:])
    return walk[not fresh:]


def default_link_model(num_uavs: int, num_subchannels: int) -> LinkModel:
    """Bundled preset emulating the three hovering UAV locations: all UAVs
    sense at 10 dB except the last, which senses at 0 dB; every access
    link is at 10 dB."""
    sensing = [10.0] * num_uavs
    if num_uavs >= 3:
        sensing[-1] = 0.0
    access_row = (10.0,) * num_subchannels
    return LinkModel(
        sensing_sinr_db=tuple(sensing),
        access_sinr_db=tuple(access_row for _ in range(num_uavs)),
    )
