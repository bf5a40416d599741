"""n-out-of-N fusion of per-UAV occupancy reports at the UTM server.

A sub-channel is declared vacant iff at least n of the N received reports
call it vacant; n=1 is the OR rule, n=N the AND rule.
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class FusionRule:
    """Vote threshold n, 1 <= n <= num_uavs."""

    n: int
    num_uavs: int

    def __post_init__(self):
        if not 1 <= self.n <= self.num_uavs:
            raise ValueError(f"n must lie in [1, {self.num_uavs}]")


def vote(reports, n: int) -> np.ndarray:
    """The one n-out-of-N vote: fused vectors (..., M) of report stacks
    (..., K, M), a sub-channel vacant (0) iff at least n of the K reports
    call it vacant."""
    return (np.count_nonzero(np.asarray(reports) == 0, axis=-2) < n).astype(np.int8)


def _stack(reports: Sequence[Sequence[int]], num_uavs: int) -> np.ndarray:
    """(K, M) stack of one slot's reports, one from each UAV."""
    if len(reports) != num_uavs:
        raise ValueError(f"expected {num_uavs} reports, got {len(reports)}")
    if any(len(r) != len(reports[0]) for r in reports):
        raise ValueError("reports have mismatched lengths")
    return np.array(reports)


def fuse(reports: Sequence[Sequence[int]], rule: FusionRule) -> tuple[int, ...]:
    """Fused occupancy vector: channel vacant (0) iff vacant votes >= n.

    Every one of the rule's num_uavs reports must be present, all of one
    length; otherwise a ValueError is raised.
    """
    return tuple(vote(_stack(reports, rule.num_uavs), rule.n).tolist())


def fusion_table(reports: Sequence[Sequence[int]], num_uavs: int) -> list[tuple[int, ...]]:
    """Fused vectors for every n in 1..num_uavs, over one stack of reports."""
    stack = _stack(reports, num_uavs)
    return [tuple(vote(stack, n).tolist()) for n in range(1, num_uavs + 1)]
