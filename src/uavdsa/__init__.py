"""Deterministic simulator for collaborative wideband spectrum sensing and
RL-based sub-channel scheduling across networked UAVs. The package itself
exports no names: import its modules (README, "Library layout").
"""

__version__ = "0.1.0"
