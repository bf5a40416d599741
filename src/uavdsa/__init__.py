"""Deterministic simulator for collaborative wideband spectrum sensing and
RL-based sub-channel scheduling across networked UAVs.

Modules:
    core       closed-form slot quantities and the per-slot ledger
    channel    Markov occupancy chains and the per-link SINR table
    iqsynth    labeled synthetic I/Q observations and the dataset file
    sensing    energy-detector and dense-classifier hole detection, metrics
    fusion     n-out-of-N report fusion
    nnet       dense network kernel with manual backpropagation
    scheduler  tabular/DQN-family allocation agents, the feasibility check on
               their actions, and the exact oracle
    config     JSON run configuration and validation
    simulate   the slot loop (request, sense, fuse, allocate, access)
    cli        command-line front end
    seeds      keyed RNG substreams, one per purpose
"""

__version__ = "0.1.0"

from .channel import TransitionMatrix, db_to_linear
from .core import (Assignment, RadioParams, SlotTiming, collision_indicator,
                   energy_efficiency, sensing_cost, slot_utility, throughput)
from .fusion import FusionRule, fuse, fusion_table
from .iqsynth import Dataset, IQObservation, SynthConfig, generate_dataset
from .scheduler import DqnAgent, QTable, SchedulingEnv, train_agent, value_iteration
from .sensing import SensingModel, micro_metrics, predict_occupancy, train_classifier
