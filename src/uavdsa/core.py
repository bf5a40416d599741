"""Closed-form slot quantities: costs, throughput, collision indicator,
utility and energy efficiency, plus the per-slot ledger of decisions and
the occupancy codec.

All functions are pure; every occupancy vector uses the convention
0 = vacant, 1 = busy (a "spectrum hole" is a 0 bit). The package holds
occupancy vectors as int8 arrays (..., M) or as their int64 codes, which
put sub-channel m in bit 2^(m-1): occupancy_codes and code_bits convert.
"""

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
import math

import numpy as np

# Sizes that tables, captures and networks are allocated from; config
# validation stops larger values before they overflow or exhaust memory.
MAX_SUBCHANNELS = 1024
MAX_UAVS = 256


@dataclass(frozen=True)
class SlotTiming:
    """Durations (seconds) of the four sub-slots: request, sensing,
    broadcast, access."""

    t_req: float = field(default=0.001, metadata={"low": 0.0})
    t_s: float = field(default=0.005, metadata={"low": 0.0})
    t_b: float = field(default=0.002, metadata={"low": 0.0})
    t_a: float = field(default=0.042, metadata={"low": 0.0})


@dataclass(frozen=True)
class RadioParams:
    """Radio constants shared by all UAVs.

    v_cc: receiver supply voltage (V); p_tx: transmit power (W);
    subchannel_bandwidth: per-sub-channel bandwidth (Hz);
    num_subchannels / num_uavs: the M and K of the deployment.
    """

    v_cc: float = field(default=1.0, metadata={"above": 0.0})
    p_tx: float = field(default=0.5, metadata={"above": 0.0})
    subchannel_bandwidth: float = field(default=540e3, metadata={"above": 0.0})
    num_subchannels: int = field(default=4, metadata={"low": 1, "high": MAX_SUBCHANNELS})
    num_uavs: int = field(default=3, metadata={"low": 1, "high": MAX_UAVS})
    system_bandwidth: float | None = None


def occupancy_codes(bits) -> np.ndarray:
    """int64 codes of occupancy vectors (..., M): sub-channel m is bit 2^(m-1)."""
    bits = np.asarray(bits)
    return (bits.astype(np.int64) << np.arange(bits.shape[-1])).sum(axis=-1)


def code_bits(codes, num_subchannels: int) -> np.ndarray:
    """int8 occupancy vectors (..., M) of codes (...): occupancy_codes inverted."""
    return (np.asarray(codes, dtype=np.int64)[..., None]
            >> np.arange(num_subchannels) & 1).astype(np.int8)


@dataclass(frozen=True)
class Assignment:
    """Set of (uav, subchannel) pairs, y_km = 1 iff the pair is present.

    Sub-channels are numbered 1..M (matching the action convention where 0
    means idle); sub-channel m corresponds to entry m-1 of an occupancy
    vector. The scheduler's check_actions admits only feasible ones.
    """

    pairs: frozenset[tuple[int, int]]


@dataclass
class SlotLedger:
    """Per-slot record of what was decided: each transmitting pair's
    collision indicator, the slot's scores and its detected and true hole
    counts. Throughputs and costs are the config's, not the slot's."""

    slot: int
    collision: dict[tuple[int, int], int]
    utility: float
    energy_efficiency: float
    holes_detected: int = 0
    holes_true: int = 0

    def __post_init__(self):
        if not {-1, 0, 1}.issuperset(self.collision.values()):
            raise ValueError("collision indicator must be in {-1, 0, 1}")

    @property
    def assignment(self) -> Assignment:
        """The pairs that transmitted: the keys of `collision`."""
        return Assignment(frozenset(self.collision))


@dataclass(frozen=True)
class RowView(Sequence):
    """Rows of columnar data as read-only objects, row(i) building row i."""

    size: int
    row: Callable[[int], object]

    def __len__(self) -> int:
        return self.size

    def __getitem__(self, i: int):
        return self.row(range(self.size)[i])  # IndexError past the end ends iteration


def sensing_cost(timing: SlotTiming, radio: RadioParams) -> float:
    """Energy (J) one UAV spends sensing one sub-channel for one slot:
    t_s * v_cc^2 * B_m."""
    return timing.t_s * radio.v_cc ** 2 * radio.subchannel_bandwidth


def access_cost(timing: SlotTiming, radio: RadioParams) -> float:
    """Energy (J) one UAV spends transmitting for one slot: t_a * p_tx."""
    return timing.t_a * radio.p_tx


def throughput(timing: SlotTiming, radio: RadioParams, sinr_linear: float) -> float:
    """Bits deliverable in the access sub-slot: t_a * B_m * log2(1 + sinr)."""
    if sinr_linear < 0:
        raise ValueError("sinr_linear must be non-negative")
    return timing.t_a * radio.subchannel_bandwidth * math.log2(1.0 + sinr_linear)


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


def slot_utility(pairs: Iterable[tuple[int, float]]) -> float:
    """Total slot utility: sum of r * R over assigned pairs.

    pairs yields (collision indicator r, throughput R) per assigned pair.
    Collisions subtract the full hypothetical throughput.
    """
    return float(sum(r * big_r for r, big_r in pairs))


def energy_efficiency(
    transmissions: Iterable[tuple[int, float, float]],
    sensing_costs: Iterable[float],
) -> float:
    """Slot EE: sum(r * R) / (sum(AC over assigned pairs) + sum(SC)).

    transmissions yields (r, R, AC) per assigned pair; sensing_costs yields
    one SC per sensing UAV. The EE is undefined, NaN, when the energy
    denominator is zero (as with t_s = 0 in a slot where no pair transmits).
    """
    num = 0.0
    den = 0.0
    for r, big_r, ac in transmissions:
        num += r * big_r
        den += ac
    den += sum(sensing_costs)
    return num / den if den > 0 else math.nan

