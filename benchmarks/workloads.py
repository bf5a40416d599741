"""The three benchmark workloads: configs made from the workload seed, the
CLI calls of one pass, its correctness checks and its output-quality guards.

One pass is a fixed amount of work, so every pass of one seed writes the
same bytes; the benchmark repeats passes for as long as a run lasts.
"""

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Callable

# train-ddqn: the acceptance suite's M=4 preset (p01=0.2, p10=0.3 and the
# preset_scheduling_env access links) for two UAVs.
TRAIN_EPISODES = 5
TRAIN_SLOTS = 200
TRAIN_GUARD_EPISODES = 2  # the episodes after epsilon reaches its floor
PRESET_ACCESS_DB = [20.0, 12.0, 6.0, 0.0]

# simulate-energy: the criterion-8 configuration, fewer slots per pass.
SIM_EPISODES = 1
SIM_SLOTS = 1000

# sensor-pipeline: the README geometry with the raw-I/Q classifier.
SENSOR_M = 16
SENSOR_K = 3
SENSOR_FFT = 1024
SENSOR_GRID = (-10.0, 0.0, 10.0, 20.0)
SENSOR_COUNT_PER_SINR = 150
SENSOR_EVAL_COUNT = 50
SENSOR_EPOCHS = 5
SENSOR_HIDDEN = (128, 128)


def train_config(seed: int) -> dict:
    return {
        "seed": seed,
        "radio": {"num_subchannels": 4, "num_uavs": 2},
        "channels": {"p01": 0.2, "p10": 0.3},
        "link": {"sensing_sinr_db": [10.0, 10.0],
                 "access_sinr_db": [PRESET_ACCESS_DB, PRESET_ACCESS_DB]},
        "agent": {"variant": "ddqn-soft", "uavs": 2},
        "episodes": TRAIN_EPISODES,
        "slots_per_episode": TRAIN_SLOTS,
    }


def sim_config(seed: int) -> dict:
    return {
        "seed": seed,
        "radio": {"num_subchannels": 4, "num_uavs": 3},
        "dataset": {"fft_size": 256},
        "sensing": {"kind": "energy-threshold", "thresholds": [8.0] * 4},
        "agent": {"variant": "random"},
        "request_probability": 1.0,
        "episodes": SIM_EPISODES,
        "slots_per_episode": SIM_SLOTS,
    }


def sensor_config(seed: int) -> dict:
    return {
        "seed": seed,
        "radio": {"num_subchannels": SENSOR_M, "num_uavs": SENSOR_K},
        "dataset": {"fft_size": SENSOR_FFT, "sinr_grid_db": list(SENSOR_GRID),
                    "count_per_sinr": SENSOR_COUNT_PER_SINR,
                    "eval_count": SENSOR_EVAL_COUNT},
        # model_path only satisfies validation: eval-sensing gets --model.
        "sensing": {"kind": "dense-classifier", "model_path": "sensor.ckpt",
                    "input_mode": "iq", "epochs": SENSOR_EPOCHS,
                    "hidden": list(SENSOR_HIDDEN)},
    }


@dataclass(frozen=True)
class Stage:
    """One CLI call of a pass. argv(out) omits --config and --out."""

    name: str
    argv: Callable[[str], list[str]]
    outputs: tuple[str, ...]  # byte-reproducible files it writes


@dataclass(frozen=True)
class Workload:
    name: str
    config: Callable[[int], dict]
    stages: tuple[Stage, ...]
    # (out dir, captured run reports) -> [(stage name, problem)]
    check: Callable[[str, list], list[tuple[str, str]]]
    # (stage seconds, out dir) -> {metric: (value, unit)}
    figures: Callable[[dict[str, float], str], dict[str, tuple[float, str]]]


def _finite_training_rows(path: str, episodes: int) -> list[str]:
    from uavdsa.scheduler import TRAINING_COLUMNS
    with open(path, newline="") as f:
        rows = list(csv.reader(f))
    if not rows or tuple(rows[0]) != TRAINING_COLUMNS:
        return [f"{path}: header is not {TRAINING_COLUMNS}"]
    body = rows[1:]
    problems = []
    if len(body) != episodes:
        problems.append(f"{path}: {len(body)} rows, expected {episodes}")
    for i, row in enumerate(body):
        try:
            values = [float(v) for v in row]
        except ValueError:
            problems.append(f"{path}: row {i} is not numeric")
            continue
        if len(values) != len(TRAINING_COLUMNS) or not all(map(math.isfinite, values)):
            problems.append(f"{path}: row {i} is not finite")
        elif values[0] != i:
            problems.append(f"{path}: row {i} is episode {values[0]}")
    return problems


def _check_train(out: str, reports: list) -> list[tuple[str, str]]:
    from uavdsa.scheduler import load_agent
    problems = [("train-agent", p) for p in _finite_training_rows(
        os.path.join(out, "training_ddqn-soft_2uav.csv"), TRAIN_EPISODES)]
    try:
        agent = load_agent(os.path.join(out, "agent_ddqn-soft_2uav.ckpt"))
    except (OSError, ValueError) as exc:
        problems.append(("train-agent", f"checkpoint does not reload: {exc}"))
    else:
        if agent.num_subchannels != 4 or agent.variant != "ddqn-soft":
            problems.append(("train-agent", "checkpoint reloads as another agent"))
    return problems


def constraint_violations(ledgers, slots_per_episode: int) -> int:
    """External audit of every executed assignment against the fused vector
    it targeted, in the manner of acceptance criterion 8."""
    violations = 0
    for i, led in enumerate(ledgers):
        pairs = sorted(led.assignment.pairs)
        uavs = [u for u, _ in pairs]
        chans = [c for _, c in pairs]
        if len(set(uavs)) != len(uavs) or len(set(chans)) != len(chans):
            violations += 1
        if i % slots_per_episode == 0:
            violations += bool(pairs)  # nothing is allocated before slot 0
            continue
        if len(pairs) > ledgers[i - 1].holes_detected:
            violations += 1
        if any(r == 0 for r in led.collision.values()):
            violations += 1  # transmitted on a channel predicted busy
    return violations


def _check_sim(out: str, reports: list) -> list[tuple[str, str]]:
    if len(reports) != 1:
        return [("simulate", f"captured {len(reports)} run reports, expected 1")]
    report = reports[0]
    problems = []
    if report.slots != SIM_EPISODES * SIM_SLOTS:
        problems.append(f"{report.slots} slots, expected {SIM_EPISODES * SIM_SLOTS}")
    violations = constraint_violations(report.ledgers, SIM_SLOTS)
    if violations:
        problems.append(f"{violations} constraint violations in the ledgers")
    with open(os.path.join(out, "report.json")) as f:
        saved = json.load(f)
    if saved["collision_rate"] != report.collision_rate or saved["slots"] != report.slots:
        problems.append("report.json disagrees with the run it reports")
    with open(os.path.join(out, "ledgers.csv")) as f:
        lines = sum(1 for _ in f)
    if lines != report.slots + 1:
        problems.append(f"ledgers.csv has {lines - 1} rows for {report.slots} slots")
    return [("simulate", p) for p in problems]


def _fused_f1(out: str) -> list[float]:
    with open(os.path.join(out, "sensing_metrics.csv"), newline="") as f:
        return [float(row["f1"]) for row in csv.DictReader(f) if row["fused"] == "1"]


def _check_sensor(out: str, reports: list) -> list[tuple[str, str]]:
    from uavdsa import nnet
    from uavdsa.iqsynth import load_dataset
    problems = []
    expected = SENSOR_COUNT_PER_SINR * len(SENSOR_GRID)
    try:
        count = len(load_dataset(os.path.join(out, "dataset.iq")).observations)
    except (OSError, ValueError) as exc:
        problems.append(("gen-dataset", f"dataset does not reload: {exc}"))
    else:
        if count != expected:
            problems.append(("gen-dataset", f"dataset holds {count} observations, "
                                            f"expected {expected}"))
    try:
        net = nnet.load_checkpoint(os.path.join(out, "sensor.ckpt"))
    except (OSError, ValueError) as exc:
        problems.append(("train-sensor", f"sensor.ckpt does not reload: {exc}"))
    else:
        dims = [net.input_dim] + [layer.w.shape[1] for layer in net.layers]
        if dims != [2 * SENSOR_FFT, *SENSOR_HIDDEN, SENSOR_M]:
            problems.append(("train-sensor", f"sensor.ckpt has layer widths {dims}"))
    f1 = _fused_f1(out)
    if len(f1) != len(SENSOR_GRID) or not all(map(math.isfinite, f1)):
        problems.append(("eval-sensing", f"fused F1 rows {f1} do not cover the grid"))
    return problems


def _train_figures(seconds, out):
    path = os.path.join(out, "training_ddqn-soft_2uav.csv")
    with open(path, newline="") as f:
        utilities = [float(row["cumulative_utility"]) for row in csv.DictReader(f)]
    tail = utilities[-TRAIN_GUARD_EPISODES:]
    return {
        "train_slots_per_s": (TRAIN_EPISODES * TRAIN_SLOTS / seconds["train-agent"], "1/s"),
        "final_utility_per_slot": (sum(tail) / len(tail) / TRAIN_SLOTS, "utility"),
    }


def _sim_figures(seconds, out):
    with open(os.path.join(out, "report.json")) as f:
        rate = json.load(f)["collision_rate"]
    return {
        "sim_slots_per_s": (SIM_EPISODES * SIM_SLOTS / seconds["simulate"], "1/s"),
        "collision_rate": (rate, "ratio"),
    }


def _sensor_figures(seconds, out):
    f1 = _fused_f1(out)
    return {
        "gen_dataset_s": (seconds["gen-dataset"], "s"),
        "train_sensor_s": (seconds["train-sensor"], "s"),
        "eval_sensing_s": (seconds["eval-sensing"], "s"),
        "fused_f1": (sum(f1) / len(f1), "ratio"),
    }


WORKLOADS = {
    "train-ddqn": Workload(
        name="train-ddqn", config=train_config,
        stages=(Stage("train-agent",
                      lambda out: ["train-agent", "--variant", "ddqn-soft", "--uavs", "2"],
                      ("training_ddqn-soft_2uav.csv", "agent_ddqn-soft_2uav.ckpt")),),
        check=_check_train, figures=_train_figures),
    "simulate-energy": Workload(
        name="simulate-energy", config=sim_config,
        stages=(Stage("simulate", lambda out: ["simulate"],
                      ("ledgers.csv", "report.json", "sensing_metrics.csv")),),
        check=_check_sim, figures=_sim_figures),
    "sensor-pipeline": Workload(
        name="sensor-pipeline", config=sensor_config,
        stages=(Stage("gen-dataset", lambda out: ["gen-dataset"], ("dataset.iq",)),
                Stage("train-sensor", lambda out: ["train-sensor"],
                      ("sensor.ckpt", "sensor_curve.csv")),
                Stage("eval-sensing",
                      lambda out: ["eval-sensing", "--model", os.path.join(out, "sensor.ckpt")],
                      ("sensing_metrics.csv",))),
        check=_check_sensor, figures=_sensor_figures),
}
