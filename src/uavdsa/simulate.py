"""End-to-end slot loop: request, sense, broadcast, fuse, allocate, access.

Each slot (1) samples which UAVs request resources, (2) has every UAV
sense the current occupancy and report its prediction, (3) fuses the
reports, (4) lets the agent allocate sub-channels to the requesting UAVs
for the next slot, (5) executes the allocation made in the previous slot
against the occupancy that actually materialized (the collision indicator
scores it), and (6) advances the occupancy chains. Steps (1)-(3) and (6)
do not depend on the agent, so they run a block of slots at a time with
array operations; run_slot does the rest, per slot. Before saving, every
slot is rescored from its collision indicators under the config's costs,
and the aggregates from those (self-audit). All randomness flows from the
config seed, one substream derive_rng(seed, SIMULATE_KEY, purpose) per
purpose (see the seeds module): TRUTH (occupancy), REQUESTS, CENTRAL and
SHIFT (energy detectors' chi-square and normal draws), SPECTRA (classifier
spectra) and AGENT. Each draws a block's slots in slot order, so outputs do
not depend on the block size; eval-sensing draws TRUTH labels and the
sensing streams under EVAL_KEY.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import nnet
from .channel import db_to_linear, sample_occupancy
from .config import ConfigError, SensingSpec, SimConfig
from .core import (SlotLedger, access_cost, collision_indicator, energy_efficiency,
                   sensing_cost, slot_utility, throughput)
from .fusion import vote
from .iqsynth import SynthConfig, draw_band_energies, synthesize_spectra
from .scheduler import (DqnAgent, QTable, RandomAgent, check_actions, load_agent,
                        load_qtable, valid_actions)
from .seeds import derive_rng
from .sensing import (SensingModel, confusion_tally, detect, energy_detect,
                      metrics_from_counts, write_metrics_csv)

LEDGER_COLUMNS = ("slot", "utility", "ee", "collisions", "holes_detected",
                  "holes_true")

SIMULATE_KEY, EVAL_KEY = 0x51B, 0xE7A1
TRUTH, REQUESTS, CENTRAL, SHIFT, SPECTRA, AGENT = range(6)
# Elements in a block's largest array, K x N with a classifier, else K x M
BLOCK_ELEMENTS = 1 << 15


def sensing_streams(seed: int, key: int) -> tuple:
    """The (CENTRAL, SHIFT, SPECTRA) generators of a sensing pass."""
    return tuple(derive_rng(seed, key, purpose) for purpose in (CENTRAL, SHIFT, SPECTRA))


def block_slots(models, synth: SynthConfig) -> int:
    """Slots (or trials) per block of a sensing pass by `models`, >= 1."""
    kinds = {getattr(model, "kind", None) for model in models}
    width = (synth.samples_per_observation if "dense-classifier" in kinds
             else synth.num_subchannels)
    return max(1, BLOCK_ELEMENTS // (len(models) * width))


@dataclass
class RunReport:
    ledgers: list[SlotLedger]
    slots: int
    mean_utility: float
    mean_ee: float
    collision_rate: float
    transmissions: int
    collisions: int
    sensing_counts: dict[str, tuple[int, int, int, int]]
    seed: int


def new_agent(config: SimConfig, variant: str):
    """A fresh agent of `variant` with the config's hyperparameters."""
    spec = config.agent
    m = config.radio.num_subchannels
    if variant == "random":
        return RandomAgent(num_subchannels=m)
    if variant == "qtable":
        return QTable(num_subchannels=m, gamma=spec.gamma, alpha=spec.alpha,
                      alpha_power=spec.alpha_power, epsilon0=spec.epsilon0,
                      epsilon_min=spec.epsilon_min,
                      epsilon_decay=spec.epsilon_decay)
    return DqnAgent(num_subchannels=m, variant=variant, gamma=spec.gamma,
                    hidden=spec.hidden, replay_capacity=spec.replay_capacity,
                    batch_size=spec.batch_size,
                    target_update_period=spec.target_update_period,
                    tau=spec.tau, learning_rate=spec.learning_rate,
                    epsilon0=spec.epsilon0, epsilon_min=spec.epsilon_min,
                    epsilon_decay=spec.epsilon_decay, seed=config.seed)


def build_agent(config: SimConfig):
    """The configured agent. A configured checkpoint is loaded; one that
    cannot be read or was trained for another M is a ConfigError naming
    agent.checkpoint."""
    spec = config.agent
    if spec.checkpoint is None:
        return new_agent(config, spec.variant)
    load = load_qtable if spec.variant == "qtable" else load_agent
    try:
        agent = load(spec.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"agent.checkpoint: {exc}"]) from None
    m = config.radio.num_subchannels
    if agent.num_subchannels != m:
        raise ConfigError([f"agent.checkpoint: {spec.checkpoint}: trained for "
                           f"M={agent.num_subchannels}, config has M={m}"])
    return agent


def build_sensing_model(spec: SensingSpec, config: SimConfig,
                        field: str) -> SensingModel | None:
    """None stands for the perfect (oracle) sensor. A classifier checkpoint
    that cannot be read, has other than M outputs, or takes another input
    width than the input mode gives (2N for iq, M for band-energy) is a
    ConfigError naming `field`, the setting the path came from. Sensing
    passes apply no interference, so a config that sets some is refused."""
    if config.synth.interference_gains_db:
        raise ConfigError(["dataset.interference_gains_db: only gen-dataset applies "
                           "neighbor-cell interference; simulate and eval-sensing "
                           "would ignore it"])
    m = config.radio.num_subchannels
    if spec.kind == "perfect":
        return None
    if spec.kind == "energy-threshold":
        return SensingModel(kind="energy-threshold", num_subchannels=m,
                            thresholds=np.asarray(spec.thresholds, dtype=float),
                            decision_threshold=spec.decision_threshold,
                            input_mode=spec.input_mode)
    try:
        network = nnet.load_checkpoint(spec.model_path)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"{field}: {exc}"]) from None
    if network.output_dim != m:
        raise ConfigError([f"{field}: {spec.model_path}: classifier has "
                           f"{network.output_dim} outputs, config has M={m}"])
    width = 2 * config.synth.samples_per_observation if spec.input_mode == "iq" else m
    if network.input_dim != width:
        raise ConfigError([f"{field}: {spec.model_path}: classifier takes "
                           f"{network.input_dim} inputs, input_mode "
                           f"{spec.input_mode!r} gives {width}"])
    return SensingModel(kind="dense-classifier", num_subchannels=m,
                        network=network, decision_threshold=spec.decision_threshold,
                        input_mode=spec.input_mode)


def sense(models, labels, sinrs_db, synth: SynthConfig, streams) -> np.ndarray:
    """(T, K, M) reports of K UAVs on T true labels (T, M): UAV k captures
    at sinrs_db[k] and reports what models[k] detects; None is the perfect
    sensor, which reports the label and draws nothing. Energy detectors
    share one draw_band_energies call and one energy_detect comparison;
    classifiers share one synthesize_spectra call per label and one
    inverse FFT, then each runs one forward pass (draw order: the iqsynth
    module docstring)."""
    central, shift, spectra_rng = streams
    labels = np.asarray(labels, dtype=np.int8)
    reports = np.repeat(labels[:, None, :], len(models), axis=1)
    kinds = [getattr(model, "kind", None) for model in models]
    energy = [k for k, kind in enumerate(kinds) if kind == "energy-threshold"]
    if energy:
        energies = draw_band_energies(labels, [sinrs_db[k] for k in energy], synth,
                                      central, shift)
        reports[:, energy] = energy_detect(
            energies, np.array([models[k].thresholds for k in energy]))
    classifiers = [k for k, kind in enumerate(kinds) if kind == "dense-classifier"]
    if classifiers:
        captures = np.fft.ifft([synthesize_spectra(label, [sinrs_db[k] for k in classifiers],
                                                   synth, spectra_rng)
                                for label in labels], norm="ortho")
        for j, k in enumerate(classifiers):
            reports[:, k] = detect(models[k], captures[:, j])
    return reports


def sensing_trials(models, labels, sinrs_db, config: SimConfig,
                   streams, counts: np.ndarray) -> np.ndarray:
    """(T, M) fused vectors of one block pass on true labels (T, M): sense,
    then the n-out-of-N vote. Each UAV's and the fused confusion counts
    against the labels are added into counts (K + 1, 4): one
    [TP, FP, FN, TN] row per UAV, then the fused one."""
    reports = sense(models, labels, sinrs_db, config.synth, streams)
    fused = vote(reports, config.fusion.n)
    counts += confusion_tally(np.concatenate([reports, fused[:, None]], axis=1), labels)
    return fused


def _metric_row(counts):
    """(precision, recall, F1) of pooled counts; None where undefined (NaN)."""
    met = metrics_from_counts(*counts)
    return tuple(None if np.isnan(v) else v
                 for v in (met.micro_precision, met.micro_recall, met.micro_f1))


def metric_rows(counts, uav_sinrs_db, fused_sinr_db, kinds, n: int) -> list[tuple]:
    """sensing_metrics.csv rows of sensing_trials' K + 1 tallies: UAV k's at
    uav_sinrs_db[k] with detector kinds[k], then the fused one at
    fused_sinr_db. An undefined ratio is None: an empty cell in the CSV."""
    rows = [(k, sinr, *_metric_row(tally), kind, 0)
            for k, (tally, sinr, kind) in enumerate(zip(counts[:-1], uav_sinrs_db, kinds))]
    rows.append(("fused", fused_sinr_db, *_metric_row(counts[-1]), f"n={n}", 1))
    return rows


def slot_scorer(config: SimConfig):
    """Callable(collision) -> (utility, energy efficiency) of one slot from
    its pairs' collision indicators and the config's K x M throughput
    table, per-pair access cost and K sensing costs (every UAV senses);
    the EE is NaN when the slot consumed no energy."""
    timing, radio = config.timing, config.radio
    bits = [[throughput(timing, radio, db_to_linear(sinr)) for sinr in row]
            for row in config.link.access_sinr_db]
    ac = access_cost(timing, radio)
    sensing_costs = [sensing_cost(timing, radio)] * radio.num_uavs

    def score(collision) -> tuple[float, float]:
        pairs = [(collision[uav, ch], bits[uav][ch - 1]) for uav, ch in sorted(collision)]
        return (slot_utility(pairs),
                energy_efficiency([(r, big_r, ac) for r, big_r in pairs], sensing_costs))

    return score


class Simulation:
    def __init__(self, config: SimConfig):
        self.cfg = config
        self.truth_rng, self.request_rng, self.agent_rng = (
            derive_rng(config.seed, SIMULATE_KEY, purpose)
            for purpose in (TRUTH, REQUESTS, AGENT))
        self.streams = sensing_streams(config.seed, SIMULATE_KEY)
        self.models = [build_sensing_model(s, config, f"sensing[{k}].model_path")
                       for k, s in enumerate(config.sensing)]
        self.agent = build_agent(config)
        self.score = slot_scorer(config)
        self.slot = 0
        # [TP, FP, FN, TN] per UAV, then fused
        self.counts = np.zeros((config.radio.num_uavs + 1, 4), dtype=np.int64)

    def episode(self):
        """Each slot's (true occupancy, requesting UAVs, fused vector) for
        one episode, computed block by block; starts the episode afresh."""
        cfg = self.cfg
        slots, size = cfg.slots_per_episode, block_slots(self.models, cfg.synth)
        self.prev_fused, self.pending = None, []
        state = None  # before slot 0: the episode starts from a stationary draw
        for start in range(0, slots, size):
            t = min(size, slots - start)
            truths = sample_occupancy(cfg.matrices, t, self.truth_rng, state)
            state = truths[-1]
            requests = (self.request_rng.random((t, cfg.radio.num_uavs))
                        < cfg.request_probability)
            fused = sensing_trials(self.models, truths, cfg.link.sensing_sinr_db, cfg,
                                   self.streams, self.counts)
            yield from zip(truths, ([k for k, r in enumerate(row) if r]
                                    for row in requests.tolist()),
                           map(tuple, fused.tolist()))

    def run_slot(self, truth, requesting, fused) -> SlotLedger:
        """One slot on its true occupancy, requesting UAVs and fused vector:
        the agent allocates the detected holes for the next slot, and the
        previous slot's allocation transmits and is scored."""
        pending_next = []  # (uav, sub-channel) pairs in UAV order
        if requesting:
            actions, _ = self.agent.select(fused, valid_actions(fused, len(fused)), 0.0,
                                           self.agent_rng, k=len(requesting))
            check_actions(actions, fused)
            pending_next = [(uav, a) for uav, a in zip(requesting, actions) if a]

        collision = {(uav, ch): collision_indicator(truth[ch - 1], self.prev_fused[ch - 1])
                     for uav, ch in self.pending}
        utility, ee = self.score(collision)
        ledger = SlotLedger(
            slot=self.slot, collision=collision, utility=utility, energy_efficiency=ee,
            holes_detected=len(fused) - sum(fused), holes_true=len(truth) - sum(truth))

        self.prev_fused = fused
        self.pending = pending_next
        self.slot += 1
        return ledger


def recompute_aggregates(ledgers: list[SlotLedger]):
    """(mean utility, mean EE, collision rate, transmissions, collisions) of
    the per-slot utility, EE and collision values the ledgers hold; slots
    with an undefined (NaN) EE are left out of the mean EE."""
    if not ledgers:
        return 0.0, float("nan"), 0.0, 0, 0
    ees = [led.energy_efficiency for led in ledgers if not np.isnan(led.energy_efficiency)]
    transmissions = sum(len(led.collision) for led in ledgers)
    collisions = sum(1 for led in ledgers for r in led.collision.values() if r == -1)
    mean_utility = float(np.mean([led.utility for led in ledgers]))
    mean_ee = float(np.mean(ees)) if ees else float("nan")
    rate = collisions / transmissions if transmissions else 0.0
    return mean_utility, mean_ee, rate, transmissions, collisions


def run_simulation(config: SimConfig) -> RunReport:
    sim = Simulation(config)
    ledgers = []
    for _ in range(config.episodes):
        ledgers += [sim.run_slot(*slot) for slot in sim.episode()]
    mean_utility, mean_ee, rate, transmissions, collisions = recompute_aggregates(ledgers)
    keys = [f"uav_{k}" for k in range(config.radio.num_uavs)] + ["fused"]
    return RunReport(
        ledgers=ledgers, slots=len(ledgers), mean_utility=mean_utility,
        mean_ee=mean_ee, collision_rate=rate, transmissions=transmissions,
        collisions=collisions,
        sensing_counts={key: tuple(c) for key, c in zip(keys, sim.counts.tolist())},
        seed=config.seed)


def _same(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def _audit(report: RunReport, config: SimConfig) -> None:
    """The only place slots are rescored: each slot's collision indicators
    under the config's costs must give the utility and EE it records, and
    those must give the report's aggregates."""
    score = slot_scorer(config)
    for led in report.ledgers:
        utility, ee = score(led.collision)
        if utility != led.utility or not _same(ee, led.energy_efficiency):
            raise RuntimeError(f"slot {led.slot}: recorded scores do not match "
                               f"its collision indicators")
    mean_utility, mean_ee, rate, transmissions, collisions = recompute_aggregates(
        report.ledgers)
    if (mean_utility != report.mean_utility or not _same(mean_ee, report.mean_ee)
            or rate != report.collision_rate
            or transmissions != report.transmissions
            or collisions != report.collisions):
        raise RuntimeError("report aggregates do not match their ledgers")


def save_report(report: RunReport, config: SimConfig, out_dir: str) -> None:
    """Persist ledgers.csv, report.json and sensing_metrics.csv; audited."""
    _audit(report, config)
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "ledgers.csv"), "w", newline="") as f:
        f.write(",".join(LEDGER_COLUMNS) + "\n")
        for led in report.ledgers:
            n_coll = sum(1 for r in led.collision.values() if r == -1)
            f.write(f"{led.slot},{led.utility!r},{led.energy_efficiency!r},"
                    f"{n_coll},{led.holes_detected},{led.holes_true}\n")

    sensing = {key: dict(zip(("tp", "fp", "fn", "tn", "precision", "recall", "f1"),
                             (*counts, *_metric_row(counts))))
               for key, counts in report.sensing_counts.items()}
    payload = dict(seed=report.seed, slots=report.slots, mean_utility=report.mean_utility,
                   mean_ee=None if np.isnan(report.mean_ee) else report.mean_ee,
                   collision_rate=report.collision_rate, transmissions=report.transmissions,
                   collisions=report.collisions, sensing=sensing)
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

    rows = metric_rows(list(report.sensing_counts.values()), config.link.sensing_sinr_db,
                       "", [spec.kind for spec in config.sensing], config.fusion.n)
    write_metrics_csv(os.path.join(out_dir, "sensing_metrics.csv"), rows)
