"""Deterministic RNG substream derivation.

Every stochastic component in the package draws from a numpy Generator
derived from an integer seed plus an integer key path, so that results are
reproducible regardless of evaluation order and safe to fan out across
workers. One substream serves one purpose; every key path in use:

    (seed, 0x0B5, i)      iqsynth.generate_dataset: observation i
    (seed, 0x5E25)        sensing.train_classifier: minibatch order
    (seed, 0x2E7)         nnet.build_network: initial weights; a classifier
                          and an agent network built with equal seeds share it
    (seed, 0xE17)         scheduler.train_agent: each episode's sample_occupancy walk
    (seed, 0xA9E)         scheduler.train_agent: agent draws and replay sampling
    (seed, 0x51B, p)      simulate, p = TRUTH 0 (occupancy), REQUESTS 1,
                          CENTRAL 2 and SHIFT 3 (energy detectors' chi-square
                          and normal draws), SPECTRA 4 (classifier spectra),
                          AGENT 5 (the random agent's key blocks)
    (seed, 0xE7A1, p)     eval-sensing, p = TRUTH 0 (labels), 2, 3 and 4 as above
"""

import numpy as np


def derive_rng(seed: int, *keys: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *keys)."""
    return np.random.default_rng(np.random.SeedSequence((int(seed),) + tuple(int(k) for k in keys)))
