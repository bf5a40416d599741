"""End-to-end slot loop: request, sense, broadcast, fuse, allocate, access.

Each slot (1) samples which UAVs request resources, (2) has every UAV
sense the current occupancy and report its prediction, (3) fuses the
reports, (4) lets the agent allocate sub-channels to the requesting UAVs
for the next slot, (5) executes the allocation made in the previous slot
against the occupancy that actually materialized, and (6) advances the
occupancy chains. Transmissions therefore always run one slot behind the
prediction they were based on, which is what the collision indicator
scores.

Before saving, every slot is rescored from its per-pair fields and must
give the utility and EE its ledger records, and the run's aggregates
must match those per-slot values (self-audit). All randomness flows from
the config seed.
"""

import json
import os
from dataclasses import dataclass

import numpy as np

from . import nnet
from .channel import db_to_linear, stationary_sampler, step
from .config import ConfigError, SensingSpec, SimConfig
from .core import (Assignment, SlotLedger, UndefinedEnergyEfficiencyError,
                   access_cost, collision_indicator, energy_efficiency,
                   sensing_cost, slot_utility, throughput)
from .fusion import fuse
from .iqsynth import IQObservation, draw_band_energies, synthesize_spectra
from .scheduler import (DqnAgent, QTable, RandomAgent, feasible_assignment,
                        load_agent, load_qtable, valid_actions)
from .seeds import derive_rng
from .sensing import (SensingModel, confusion_counts, energy_detect,
                      metrics_from_counts, predict_occupancy, write_metrics_csv)

LEDGER_COLUMNS = ("slot", "utility", "ee", "collisions", "holes_detected",
                  "holes_true")


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
    ConfigError naming `field`, the setting the path came from."""
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


def sense(models, label, sinrs_db, synth, rng) -> list[tuple[int, ...]]:
    """Every UAV's occupancy report on one true label: UAV k captures at
    sinrs_db[k] and reports what models[k] detects; None is the perfect
    sensor, which reports the label and draws nothing from rng.

    Energy detectors come first: one draw_band_energies call gives the
    band energies of all of them (one row per UAV, in UAV order), drawn
    from their exact law, and one energy_detect call against the stacked
    thresholds detects. Classifiers then get one synthesize_spectra call
    and one inverse FFT, and each runs its own forward pass, which keeps
    its output bitwise that of a single capture. The iqsynth module
    docstring gives the draw order.
    """
    reports = [label] * len(models)
    energy = [k for k, model in enumerate(models)
              if model is not None and model.kind == "energy-threshold"]
    if energy:
        energies = draw_band_energies(label, [sinrs_db[k] for k in energy], synth, rng)
        thresholds = np.array([models[k].thresholds for k in energy])
        for k, report in zip(energy, energy_detect(energies, thresholds)):
            reports[k] = tuple(report)
    classifiers = [k for k, model in enumerate(models)
                   if model is not None and model.kind == "dense-classifier"]
    if classifiers:
        spectra = synthesize_spectra(label, [sinrs_db[k] for k in classifiers], synth, rng)
        for k, capture in zip(classifiers, np.fft.ifft(spectra, norm="ortho")):
            reports[k] = predict_occupancy(models[k], IQObservation(
                samples=capture, label=label, sinr_db=float(sinrs_db[k])))
    return reports


def sensing_trial(models, label, sinrs_db, config: SimConfig, rng,
                  counts) -> tuple[int, ...]:
    """The fused vector of one sense and fuse pass on a true label. Each
    report's and the fused vector's confusion counts against the label are
    added into counts: one [TP, FP, FN, TN] tally per UAV, then the fused one."""
    reports = sense(models, label, sinrs_db, config.synth, rng)
    fused = fuse(reports, config.fusion)
    for tally, h in zip(counts, reports + [fused]):
        confusion_counts((h,), (label,), counts=tally)
    return fused


def _metric_row(counts):
    """(precision, recall, F1) of pooled counts; None where undefined."""
    met = metrics_from_counts(*counts)
    return (met.micro_precision if met.precision_defined else None,
            met.micro_recall if met.recall_defined else None,
            met.micro_f1 if met.f1_defined else None)


def metric_rows(counts, uav_sinrs_db, fused_sinr_db, kinds, n: int) -> list[tuple]:
    """sensing_metrics.csv rows of sensing_trial's K + 1 tallies: UAV k's at
    uav_sinrs_db[k] with detector kinds[k], then the fused one at
    fused_sinr_db. An undefined ratio is None: an empty cell in the CSV."""
    rows = [(k, sinr, *_metric_row(tally), kind, 0)
            for k, (tally, sinr, kind) in enumerate(zip(counts[:-1], uav_sinrs_db, kinds))]
    rows.append(("fused", fused_sinr_db, *_metric_row(counts[-1]), f"n={n}", 1))
    return rows


def slot_scores(collision, throughput, access_cost, sensing_costs) -> tuple[float, float]:
    """(utility, energy efficiency) of one slot from its per-pair and
    per-UAV tables; the EE is NaN when the slot consumed no energy."""
    keys = sorted(collision)
    utility = slot_utility((collision[key], throughput[key]) for key in keys)
    try:
        ee = energy_efficiency(
            [(collision[key], throughput[key], access_cost[key]) for key in keys],
            [sensing_costs[k] for k in sorted(sensing_costs)])
    except UndefinedEnergyEfficiencyError:
        ee = float("nan")
    return utility, ee


class Simulation:
    def __init__(self, config: SimConfig):
        self.cfg = config
        self.rng = derive_rng(config.seed, 0x51B)
        self.models = [build_sensing_model(s, config, f"sensing[{k}].model_path")
                       for k, s in enumerate(config.sensing)]
        self.agent = build_agent(config)
        m = config.radio.num_subchannels
        self.sc_per_uav = sensing_cost(config.timing, config.radio)
        self.ac_per_pair = access_cost(config.timing, config.radio)
        self.bits_table = [
            [throughput(config.timing, config.radio,
                        db_to_linear(config.link.access_sinr_db[k][ch]))
             for ch in range(m)]
            for k in range(config.radio.num_uavs)
        ]
        self.slot = 0
        keys = [f"uav_{k}" for k in range(config.radio.num_uavs)] + ["fused"]
        self.counts = {key: [0, 0, 0, 0] for key in keys}  # per-UAV, then fused
        self.stationary = stationary_sampler(config.matrices)
        self.reset_episode()

    def reset_episode(self) -> None:
        self.occupancy = self.stationary(self.rng)
        self.prev_fused = None
        self.pending = Assignment()

    def run_slot(self) -> SlotLedger:
        cfg = self.cfg
        k_uavs = cfg.radio.num_uavs
        m = cfg.radio.num_subchannels
        truth = self.occupancy

        requesting = [k for k in range(k_uavs)
                      if self.rng.random() < cfg.request_probability]

        fused = sensing_trial(self.models, truth, cfg.link.sensing_sinr_db, cfg,
                              self.rng, self.counts.values())

        pending_next = Assignment()
        if requesting:
            actions, _ = self.agent.select(fused, valid_actions(fused, m), 0.0,
                                           self.rng, k=len(requesting))
            pending_next = feasible_assignment(zip(requesting, actions), fused)

        collision, bits, acc = {}, {}, {}
        for uav, ch in sorted(self.pending.pairs):
            collision[(uav, ch)] = collision_indicator(truth[ch - 1],
                                                       self.prev_fused[ch - 1])
            bits[(uav, ch)] = self.bits_table[uav][ch - 1]
            acc[(uav, ch)] = self.ac_per_pair
        sensing_costs = {k: self.sc_per_uav for k in range(k_uavs)}
        utility, ee = slot_scores(collision, bits, acc, sensing_costs)

        ledger = SlotLedger(
            slot=self.slot, assignment=self.pending,
            collision=collision, throughput=bits, access_cost=acc,
            sensing_costs=sensing_costs, utility=utility, energy_efficiency=ee,
            holes_detected=m - sum(fused), holes_true=m - sum(truth))

        self.occupancy = step(self.occupancy, cfg.matrices, self.rng)
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
    for episode in range(config.episodes):
        if episode > 0:
            sim.reset_episode()
        for _ in range(config.slots_per_episode):
            ledgers.append(sim.run_slot())
    mean_utility, mean_ee, rate, transmissions, collisions = recompute_aggregates(ledgers)
    return RunReport(
        ledgers=ledgers, slots=len(ledgers), mean_utility=mean_utility,
        mean_ee=mean_ee, collision_rate=rate, transmissions=transmissions,
        collisions=collisions,
        sensing_counts={key: tuple(c) for key, c in sim.counts.items()},
        seed=config.seed)


def _same(a: float, b: float) -> bool:
    return a == b or (np.isnan(a) and np.isnan(b))


def _audit(report: RunReport) -> None:
    """The only place slots are rescored: each slot's per-pair fields must
    give the utility and EE it records, and those must give the report's
    aggregates."""
    for led in report.ledgers:
        utility, ee = slot_scores(led.collision, led.throughput, led.access_cost,
                                  led.sensing_costs)
        if utility != led.utility or not _same(ee, led.energy_efficiency):
            raise RuntimeError(f"slot {led.slot}: recorded scores do not match "
                               f"its per-pair fields")
    mean_utility, mean_ee, rate, transmissions, collisions = recompute_aggregates(
        report.ledgers)
    if (mean_utility != report.mean_utility or not _same(mean_ee, report.mean_ee)
            or rate != report.collision_rate
            or transmissions != report.transmissions
            or collisions != report.collisions):
        raise RuntimeError("report aggregates do not match their ledgers")


def save_report(report: RunReport, config: SimConfig, out_dir: str) -> None:
    """Persist ledgers.csv, report.json and sensing_metrics.csv; audited."""
    _audit(report)
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
    payload = {
        "seed": report.seed,
        "slots": report.slots,
        "mean_utility": report.mean_utility,
        "mean_ee": None if np.isnan(report.mean_ee) else report.mean_ee,
        "collision_rate": report.collision_rate,
        "transmissions": report.transmissions,
        "collisions": report.collisions,
        "sensing": sensing,
    }
    with open(os.path.join(out_dir, "report.json"), "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")

    rows = metric_rows(list(report.sensing_counts.values()), config.link.sensing_sinr_db,
                       "", [spec.kind for spec in config.sensing], config.fusion.n)
    write_metrics_csv(os.path.join(out_dir, "sensing_metrics.csv"), rows)
