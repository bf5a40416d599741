"""n-out-of-N fusion of per-UAV occupancy reports at the UTM server.

A sub-channel is declared vacant iff at least n of the N received reports
call it vacant; n=1 is the OR rule, n=N the AND rule.
"""

import numpy as np


def vote(reports, n: int) -> np.ndarray:
    """The one n-out-of-N vote: fused vectors (..., M) of report stacks
    (..., K, M), a sub-channel vacant (0) iff at least n of the K reports
    call it vacant."""
    return (np.count_nonzero(np.asarray(reports) == 0, axis=-2) < n).astype(np.int8)
