"""End-to-end slot loop: request, sense, broadcast, fuse, allocate, access.

Each slot (1) samples which UAVs request resources, (2) has every UAV
sense the current occupancy and report its prediction, (3) fuses the
reports, (4) lets the agent allocate sub-channels to the requesting UAVs
for the next slot, (5) executes the allocation made in the previous slot
against the occupancy that actually materialized (the collision indicator
scores it), and (6) advances the occupancy chains. Every step runs a block
of slots at a time with array operations: episode does (1)-(3) and (6),
and run_slot runs a whole block of (4) and (5), one agent call, one
feasibility check and one scoring pass per block, appending the block to
the run's ledger columns. Before saving, each distinct slot pattern is
scored once from its collision indicators under the config's costs, and
every slot is checked against it; the aggregates are checked against the
slots' scores (self-audit). All randomness flows from the config seed, one
substream derive_rng(seed, SIMULATE_KEY, purpose) per purpose (see the
seeds module): TRUTH (occupancy), REQUESTS, CENTRAL and SHIFT (energy
detectors' chi-square and normal draws), SPECTRA (classifier spectra) and
AGENT (the random agent's one (T, M + 1) block of keys per block; a
learning agent's greedy choices draw nothing that reaches an output). Each
draws a block's slots in slot order, so outputs do not depend on the block
size; eval-sensing draws TRUTH labels and the sensing streams under EVAL_KEY.
"""

import json
import os
from dataclasses import dataclass, fields

import numpy as np

from . import nnet
from .channel import db_to_linear, sample_occupancy
from .config import ConfigError, SimConfig
from .core import (RowView, SlotLedger, access_cost, energy_efficiency, sensing_cost,
                   slot_utility, throughput)
from .fusion import vote
from .iqsynth import BLOCK_ELEMENTS, SynthConfig, draw_band_energies, synthesize_block
from .scheduler import (DqnAgent, DqnSpec, QTable, QTableSpec, RandomAgent, block_actions,
                        check_actions, load_agent)
from .seeds import derive_rng
from .sensing import (SensingModel, SensingSpec, classify, confusion_tally, energy_detect,
                      metrics_from_counts, write_metrics_csv)

LEDGER_COLUMNS = ("slot", "utility", "ee", "collisions", "holes_detected",
                  "holes_true")

SIMULATE_KEY, EVAL_KEY = 0x51B, 0xE7A1
TRUTH, REQUESTS, CENTRAL, SHIFT, SPECTRA, AGENT = range(6)


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
    """A run's ledger columns, row s for slot s: the sub-channel each UAV
    transmitted on (channels, (S, K), 0 where it did not) and that pair's
    collision indicator (collision, (S, K)), the slot's utility and EE,
    and its detected and true hole counts; then the aggregates of those
    scores and the per-UAV and fused sensing confusion counts."""

    channels: np.ndarray
    collision: np.ndarray
    utility: np.ndarray
    energy_efficiency: np.ndarray
    holes_detected: np.ndarray
    holes_true: np.ndarray
    mean_utility: float
    mean_ee: float
    collision_rate: float
    transmissions: int
    collisions: int
    sensing_counts: dict[str, tuple[int, int, int, int]]
    seed: int

    @property
    def slots(self) -> int:
        return len(self.utility)

    @property
    def ledgers(self) -> RowView:
        """The slots as SlotLedger views, each built when it is read."""
        return RowView(len(self.utility), self._ledger)

    def _ledger(self, slot: int) -> SlotLedger:
        pairs = zip(self.channels[slot].tolist(), self.collision[slot].tolist())
        return SlotLedger(slot, {(uav, ch): c for uav, (ch, c) in enumerate(pairs) if ch},
                          self.utility.item(slot), self.energy_efficiency.item(slot),
                          self.holes_detected.item(slot), self.holes_true.item(slot))


def new_agent(config: SimConfig, variant: str):
    """A fresh agent of `variant` with the config's values of its
    learner's hyperparameters, every field of its spec class."""
    m = config.radio.num_subchannels
    if variant == "random":
        return RandomAgent(num_subchannels=m)
    cls, spec_cls, extra = ((QTable, QTableSpec, {}) if variant == "qtable" else
                            (DqnAgent, DqnSpec, dict(variant=variant, seed=config.seed)))
    return cls(num_subchannels=m, **extra,
               **{f.name: getattr(config.agent, f.name) for f in fields(spec_cls)})


def build_agent(config: SimConfig):
    """The configured agent. A configured checkpoint is loaded; one that
    cannot be read, holds another agent than the variant (a q-table for a
    DQN variant, the reverse, or another DQN variant) or was trained for
    another M is a ConfigError naming agent.checkpoint."""
    spec = config.agent
    if spec.checkpoint is None:
        return new_agent(config, spec.variant)
    try:
        agent = load_agent(spec.checkpoint)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"agent.checkpoint: {exc}"]) from None
    if (stored := getattr(agent, "variant", "qtable")) != spec.variant:
        held = ("" if "qtable" in (stored, spec.variant) else f"{stored} ") + type(agent).__name__
        raise ConfigError([f"agent.checkpoint: {spec.checkpoint}: holds a "
                           f"{held}, config has variant {spec.variant}"])
    m = config.radio.num_subchannels
    if agent.num_subchannels != m:
        raise ConfigError([f"agent.checkpoint: {spec.checkpoint}: trained for "
                           f"M={agent.num_subchannels}, config has M={m}"])
    return agent


def build_sensing_model(spec: SensingSpec, config: SimConfig, field: str,
                        networks: dict) -> SensingModel | None:
    """None stands for the perfect (oracle) sensor. A classifier checkpoint
    that cannot be read, has other than M outputs, or takes another input
    width than the input mode gives (2N for iq, M for band-energy) is a
    ConfigError naming `field`, the setting the path came from. networks
    maps the model paths already loaded to their networks: models built
    with one dict load each distinct path once and share its network.
    Sensing passes apply no interference, so a config that sets some is
    refused."""
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
    network = networks.get(spec.model_path)
    if network is None:
        try:
            network = networks[spec.model_path] = nnet.load_checkpoint(spec.model_path)
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
    share one draw_band_energies call and one energy_detect comparison.
    Classifiers share one synthesize_block call and one inverse FFT; the
    classifiers that share a network (and input mode) then run one feature
    matrix and one forward pass over their T x G captures, each UAV
    comparing its outputs with its own decision threshold (draw order: the
    iqsynth module docstring)."""
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
        captures = np.fft.ifft(synthesize_block(labels, [sinrs_db[k] for k in classifiers],
                                                synth, [spectra_rng] * len(labels)),
                               norm="ortho")
        groups = {}  # capture columns of the classifiers sharing one network
        for j, k in enumerate(classifiers):
            groups.setdefault((id(models[k].network), models[k].input_mode), []).append(j)
        for columns in groups.values():
            uavs = [classifiers[j] for j in columns]
            outputs = classify(models[uavs[0]], captures[:, columns])  # (T, G, M)
            reports[:, uavs] = outputs >= np.array(
                [models[k].decision_threshold for k in uavs])[:, None]
    return reports


def sensing_trials(models, labels, sinrs_db, config: SimConfig,
                   streams, counts: np.ndarray) -> np.ndarray:
    """(T, M) fused vectors of one block pass on true labels (T, M): sense,
    then the n-out-of-N vote. Each UAV's and the fused confusion counts
    against the labels are added into counts (K + 1, 4): one
    [TP, FP, FN, TN] row per UAV, then the fused one."""
    reports = sense(models, labels, sinrs_db, config.synth, streams)
    fused = vote(reports, config.fusion_n)
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


def score_table(config: SimConfig):
    """(bits, ac, sensing_costs): the config's K x M throughput table, the
    per-pair access cost and the K sensing costs (every UAV senses)."""
    timing, radio = config.timing, config.radio
    bits = np.array([[throughput(timing, radio, db_to_linear(sinr)) for sinr in row]
                     for row in config.link.access_sinr_db])
    return bits, access_cost(timing, radio), [sensing_cost(timing, radio)] * radio.num_uavs


class Simulation:
    def __init__(self, config: SimConfig):
        self.cfg = config
        self.truth_rng, self.request_rng, self.agent_rng = (
            derive_rng(config.seed, SIMULATE_KEY, purpose)
            for purpose in (TRUTH, REQUESTS, AGENT))
        self.streams = sensing_streams(config.seed, SIMULATE_KEY)
        networks = {}
        self.models = [build_sensing_model(s, config, f"sensing[{k}].model_path", networks)
                       for k, s in enumerate(config.sensing)]
        self.agent = build_agent(config)
        self.choices = {}  # block_actions' memo: simulate never trains its agent
        self.bits, self.access_cost, sensing_costs = score_table(config)
        self.sensing_cost = sum(sensing_costs)
        k = config.radio.num_uavs
        # each block's RunReport columns, after an empty one: a run may have no slots
        self.blocks = [(np.zeros((0, k), np.int64), np.zeros((0, k), np.int8), np.zeros(0),
                        np.zeros(0), np.zeros(0, np.int64), np.zeros(0, np.int64))]
        # [TP, FP, FN, TN] per UAV, then fused
        self.counts = np.zeros((k + 1, 4), dtype=np.int64)

    def episode(self):
        """Each block of one episode: its slots' true occupancy (T, M),
        requesting UAVs (T, K) and fused vectors (T, M); starts the
        episode afresh."""
        cfg = self.cfg
        k, m = cfg.radio.num_uavs, cfg.radio.num_subchannels
        slots, size = cfg.slots_per_episode, block_slots(self.models, cfg.synth)
        # nothing is allocated before slot 0, so nothing transmits in it
        self.pending = np.zeros((1, k), dtype=np.int64)
        self.prev_fused = np.ones((1, m), dtype=np.int8)
        state = None  # before slot 0: the episode starts from a stationary draw
        for start in range(0, slots, size):
            t = min(size, slots - start)
            truths = sample_occupancy(cfg.matrices, t, self.truth_rng, state)
            state = truths[-1]
            requests = self.request_rng.random((t, k)) < cfg.request_probability
            yield truths, requests, sensing_trials(
                self.models, truths, cfg.link.sensing_sinr_db, cfg, self.streams, self.counts)

    def run_slot(self, truths, requests, fused) -> None:
        """A block of slots on their true occupancy (T, M), requesting UAVs
        (T, K) and fused vectors (T, M): the agent allocates each slot's
        detected holes for the next slot (one block_actions call and one
        check_actions for the block), and each slot transmits the previous
        slot's allocation, whose collision indicators score it. Appends the
        block's RunReport columns to blocks."""
        actions = block_actions(self.agent, fused, requests, self.agent_rng, self.choices)
        check_actions(actions, fused)
        sent = np.concatenate((self.pending, actions[:-1]))
        targeted = np.concatenate((self.prev_fused, fused[:-1]))
        self.pending, self.prev_fused = actions[-1:], fused[-1:]

        rows, channel = np.arange(len(sent))[:, None], np.maximum(sent - 1, 0)
        # the collision indicator: +1 where a predicted hole stayed vacant,
        # -1 where a primary returned, 0 on a channel predicted busy
        collision = np.where((sent > 0) & (targeted[rows, channel] == 0),
                             1 - 2 * truths[rows, channel], 0).astype(np.int8)
        # running sums over the pairs in UAV order, the order slot_utility and
        # energy_efficiency add them in (+ 0.0 turns a lone -0.0 into their 0.0)
        gains = collision * self.bits[np.arange(sent.shape[1]), channel]
        utility = gains.cumsum(1)[:, -1] + 0.0
        energy = np.where(sent > 0, self.access_cost, 0.0).cumsum(1)[:, -1] + self.sensing_cost
        with np.errstate(divide="ignore", invalid="ignore"):
            ee = np.where(energy > 0, utility / energy, np.nan)
        m = fused.shape[1]
        self.blocks.append((sent, collision, utility, ee, m - fused.sum(1, dtype=np.int64),
                            m - truths.sum(1, dtype=np.int64)))


def recompute_aggregates(channels, collision, utility, ee):
    """(mean utility, mean EE, collision rate, transmissions, collisions) of
    a report's (S, K) transmitted-channel and collision-indicator columns
    and its per-slot utility and EE; slots with an undefined (NaN) EE are
    left out of the mean EE."""
    if not len(utility):
        return 0.0, float("nan"), 0.0, 0, 0
    ees = ee[~np.isnan(ee)]
    transmissions = int(np.count_nonzero(channels))
    collisions = int(np.count_nonzero(collision == -1))
    mean_utility = float(np.mean(utility))
    mean_ee = float(np.mean(ees)) if len(ees) else float("nan")
    rate = collisions / transmissions if transmissions else 0.0
    return mean_utility, mean_ee, rate, transmissions, collisions


def run_simulation(config: SimConfig) -> RunReport:
    sim = Simulation(config)
    for _ in range(config.episodes):
        for block in sim.episode():
            sim.run_slot(*block)
    columns = [np.concatenate(blocks) for blocks in zip(*sim.blocks)]
    keys = [f"uav_{k}" for k in range(config.radio.num_uavs)] + ["fused"]
    return RunReport(
        *columns, *recompute_aggregates(*columns[:4]),
        sensing_counts={key: tuple(c) for key, c in zip(keys, sim.counts.tolist())},
        seed=config.seed)


def _same(a, b):
    """Elementwise a == b, with NaN equal to NaN; scalars or arrays."""
    return (a == b) | (np.isnan(a) & np.isnan(b))


def _audit(report: RunReport, config: SimConfig) -> None:
    """The only place slots are rescored independently: each distinct slot
    pattern, the exact bytes of a slot's (channels, collision) rows, is
    scored once through the scalar slot_utility and energy_efficiency under
    the config's costs, and every slot is checked against it: the utility
    and EE its columns record must equal its pattern's, and those must give
    the report's aggregates."""
    bits, ac, sensing_costs = score_table(config)
    bits = bits.tolist()
    rows = np.hstack([np.ascontiguousarray(column).view(np.uint8)
                      for column in (report.channels, report.collision)])
    _, first, pattern = np.unique(rows.view(np.dtype((np.void, rows.shape[1])))[:, 0],
                                  return_index=True, return_inverse=True)
    scores = []
    for channels, collision in zip(report.channels[first].tolist(),
                                   report.collision[first].tolist()):
        pairs = [(r, bits[uav][ch - 1])
                 for uav, (ch, r) in enumerate(zip(channels, collision)) if ch]
        scores.append((slot_utility(pairs), energy_efficiency(
            [(r, big_r, ac) for r, big_r in pairs], sensing_costs)))
    utility, ee = np.array(scores).reshape(-1, 2)[pattern].T  # (-1, 2): a run may have no slots
    wrong = (utility != report.utility) | ~_same(ee, report.energy_efficiency)
    if wrong.any():
        raise RuntimeError(f"slot {wrong.argmax()}: recorded scores do not match "
                           f"its collision indicators")
    mean_utility, mean_ee, rate, transmissions, collisions = recompute_aggregates(
        report.channels, report.collision, report.utility, report.energy_efficiency)
    if (mean_utility != report.mean_utility or not _same(mean_ee, report.mean_ee)
            or rate != report.collision_rate
            or transmissions != report.transmissions
            or collisions != report.collisions):
        raise RuntimeError("report aggregates do not match their ledgers")


def _reprs(column: np.ndarray) -> list[str]:
    """repr of each float of a float64 column, each distinct 64-bit pattern
    formatted once (so 0.0, -0.0 and NaN keep their own)."""
    values, inverse = np.unique(column.view(np.uint64), return_inverse=True)
    return np.array([repr(v) for v in values.view(np.float64).tolist()],
                    dtype=object)[inverse].tolist()


def save_report(report: RunReport, config: SimConfig, out_dir: str) -> None:
    """Persist ledgers.csv, report.json and sensing_metrics.csv; audited."""
    _audit(report, config)
    os.makedirs(out_dir, exist_ok=True)

    with open(os.path.join(out_dir, "ledgers.csv"), "w", newline="") as f:
        f.write(",".join(LEDGER_COLUMNS) + "\n")
        f.writelines(f"{slot},{utility},{ee},{n_coll},{detected},{true}\n"
                     for slot, (utility, ee, n_coll, detected, true) in enumerate(zip(
                         _reprs(report.utility), _reprs(report.energy_efficiency),
                         np.count_nonzero(report.collision == -1, axis=1).tolist(),
                         report.holes_detected.tolist(), report.holes_true.tolist())))

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
                       "", [spec.kind for spec in config.sensing], config.fusion_n)
    write_metrics_csv(os.path.join(out_dir, "sensing_metrics.csv"), rows)
