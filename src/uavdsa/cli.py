"""Command-line front end.

Subcommands: gen-dataset, train-sensor, eval-sensing, train-agent,
simulate, report. Every subcommand accepts --config PATH, --seed U64 (seed
override) and --out DIR (output directory override). Exit codes: 0
success, 1 usage or configuration error (a malformed config, checkpoint,
dataset file or training log among them, or an output directory that is
a file), 2 runtime failure.

cli_dispatch builds the argument parser on its first call and reuses it
for every later call in the process; each call gets a fresh namespace, and
its subcommand's cmd_* handler is looked up when the call is dispatched.

All output files are byte-reproducible for a fixed (config, seed);
wall-clock timings go to stderr only.
"""

import argparse
import csv
import dataclasses
import functools
import os
import sys
import time

import numpy as np

from . import nnet
from .channel import stationary_sampler
from .config import ConfigError, SimConfig, load_config
from .iqsynth import DATASET_MAX_SUBCHANNELS, generate_dataset, load_dataset, save_dataset
from .scheduler import (DQN_VARIANTS, SchedulingEnv, TRAINING_COLUMNS,
                        normalized_reward_table, save_agent, train_agent, write_training_csv)
from .seeds import derive_rng
from .sensing import evaluate_model, train_classifier, write_metrics_csv
from .simulate import (EVAL_KEY, TRUTH, block_slots, build_sensing_model, metric_rows,
                       new_agent, run_simulation, save_report, sensing_streams,
                       sensing_trials)

AGENT_TRAIN_VARIANTS = ("qtable", *DQN_VARIANTS)


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def _check_out_dir(path: str, field: str) -> None:
    """Refuse an output directory that cannot be made because it, or its
    nearest existing ancestor, is not a directory; `field` names the
    setting it came from."""
    head = path
    while head and not os.path.exists(head):
        head = os.path.dirname(head)
    if head and not os.path.isdir(head):
        raise ConfigError([f"{field}: {head} is not a directory"])


def cmd_gen_dataset(config: SimConfig, args) -> int:
    m = config.radio.num_subchannels
    if m > DATASET_MAX_SUBCHANNELS:
        raise ConfigError([f"radio.num_subchannels: gen-dataset stores each label as a "
                           f"u32 mask, so M must be <= {DATASET_MAX_SUBCHANNELS} (got M={m})"])
    t0 = time.perf_counter()
    source = stationary_sampler(list(config.matrices))
    dataset = generate_dataset(config.synth, source, config.dataset.count_per_sinr)
    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "dataset.iq")
    save_dataset(dataset, path, num_uavs=config.radio.num_uavs)
    _say(f"gen-dataset: {len(dataset.observations)} observations in "
         f"{time.perf_counter() - t0:.1f}s")
    print(path)
    return 0


def cmd_train_sensor(config: SimConfig, args) -> int:
    t0 = time.perf_counter()
    data_path = args.data or os.path.join(config.out_dir, "dataset.iq")
    try:
        dataset = load_dataset(data_path)
    except (OSError, ValueError) as exc:
        raise ConfigError([f"--data: {exc}"]) from None
    if not dataset.split["train"]:
        raise ConfigError([f"--data: {data_path}: dataset has an empty train split"])
    if dataset.config.num_subchannels != config.radio.num_subchannels:
        raise ConfigError([f"radio.num_subchannels: M={config.radio.num_subchannels}, but "
                           f"{data_path} has M={dataset.config.num_subchannels}"])
    model = train_classifier(dataset, config.sensing[0], config.seed)
    os.makedirs(config.out_dir, exist_ok=True)
    ckpt = os.path.join(config.out_dir, "sensor.ckpt")
    nnet.save_checkpoint(model.network, ckpt)
    with open(os.path.join(config.out_dir, "sensor_curve.csv"), "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("epoch", "bce"))
        for epoch, loss in enumerate(model.training_curve):
            writer.writerow((epoch, repr(loss)))
    for g in dataset.config.sinr_grid_db:
        metrics = evaluate_model(model, dataset, split="val", sinr_db=g)
        _say(f"train-sensor: val {g:+.0f} dB F1={metrics.micro_f1:.3f}")
    _say(f"train-sensor: {config.sensing[0].epochs} epochs in {time.perf_counter() - t0:.1f}s")
    print(ckpt)
    return 0


def cmd_eval_sensing(config: SimConfig, args) -> int:
    """Per-UAV and fused micro metrics swept over the SINR grid.

    UAV k senses each grid point offset by (sensing_sinr_db[k] -
    sensing_sinr_db[0]), so the configured table acts as relative
    degradation between UAV locations.
    """
    t0 = time.perf_counter()
    specs = list(config.sensing)
    if args.model:
        specs = [dataclasses.replace(spec, kind="dense-classifier",
                                     model_path=args.model) for spec in specs]
    networks = {}
    models = [build_sensing_model(spec, config, "--model" if args.model
                                  else f"sensing[{k}].model_path", networks)
              for k, spec in enumerate(specs)]
    source = stationary_sampler(list(config.matrices))
    labels_rng = derive_rng(config.seed, EVAL_KEY, TRUTH)
    streams = sensing_streams(config.seed, EVAL_KEY)
    size = block_slots(models, config.synth)
    offsets = [s - config.link.sensing_sinr_db[0] for s in config.link.sensing_sinr_db]

    rows = []
    for g in config.synth.sinr_grid_db:
        sinrs = [g + offset for offset in offsets]
        counts = np.zeros((len(models) + 1, 4), dtype=np.int64)
        for start in range(0, config.dataset.eval_count, size):
            labels = [source(labels_rng)
                      for _ in range(min(size, config.dataset.eval_count - start))]
            sensing_trials(models, labels, sinrs, config, streams, counts)
        rows += metric_rows(counts.tolist(), sinrs, g, [spec.kind for spec in specs],
                            config.fusion_n)

    os.makedirs(config.out_dir, exist_ok=True)
    path = os.path.join(config.out_dir, "sensing_metrics.csv")
    write_metrics_csv(path, rows)
    _say(f"eval-sensing: {len(rows)} rows in {time.perf_counter() - t0:.1f}s")
    print(path)
    return 0


def cmd_train_agent(config: SimConfig, args) -> int:
    if config.agent.checkpoint is not None:
        raise ConfigError([f"agent.checkpoint: train-agent trains a fresh agent and "
                           f"cannot resume from {config.agent.checkpoint}"])
    t0 = time.perf_counter()
    variant = args.variant or config.agent.variant
    if variant not in AGENT_TRAIN_VARIANTS:
        raise ConfigError([f"agent.variant: train-agent cannot train variant "
                           f"{variant!r}; options: {', '.join(AGENT_TRAIN_VARIANTS)}"])
    uavs = args.uavs or config.agent.uavs
    if uavs > config.radio.num_uavs:
        raise ConfigError([f"--uavs: {uavs} exceeds radio.num_uavs "
                           f"({config.radio.num_uavs})"])
    try:
        table = normalized_reward_table(config.link.access_sinr_db[:uavs])
    except ValueError as exc:
        raise ConfigError([f"link.access_sinr_db: {exc} among the {uavs} trained "
                           f"UAV(s)"]) from None
    env = SchedulingEnv(list(config.matrices), table)
    agent = new_agent(config, variant)
    log = train_agent(agent, env, config.episodes, config.slots_per_episode,
                      config.seed)
    os.makedirs(config.out_dir, exist_ok=True)
    stem = f"{variant}_{uavs}uav"
    log_path = os.path.join(config.out_dir, f"training_{stem}.csv")
    write_training_csv(log_path, log)
    ckpt = os.path.join(config.out_dir, f"agent_{stem}.ckpt")
    save_agent(agent, ckpt)
    if log:
        tail = [row[1] for row in log[-min(100, len(log)):]]
        _say(f"train-agent: final-{len(tail)} mean episode utility "
             f"{np.mean(tail):.3f}")
    _say(f"train-agent: {config.episodes} episodes in {time.perf_counter() - t0:.1f}s")
    print(log_path)
    print(ckpt)
    return 0


def cmd_simulate(config: SimConfig, args) -> int:
    t0 = time.perf_counter()
    report = run_simulation(config)
    save_report(report, config, config.out_dir)
    _say(f"simulate: {report.slots} slots in {time.perf_counter() - t0:.1f}s; "
         f"mean utility {report.mean_utility:.3f}, "
         f"collision rate {report.collision_rate:.4f}")
    if config.agent.variant != "random" and config.agent.checkpoint is None:
        _say(f"simulate: agent {config.agent.variant} is untrained (no agent.checkpoint)")
    print(os.path.join(config.out_dir, "report.json"))
    return 0


def cmd_report(args) -> int:
    out_dir = args.out or "out"
    _check_out_dir(out_dir, "--out" if args.out else "--out (default)")
    logs = []  # every input is read and checked before comparison.csv is opened
    for src in args.files:
        try:
            with open(src, newline="") as fin:
                rows = list(csv.reader(fin))
        except OSError as exc:
            raise ConfigError([f"{src}: cannot read: {exc.strerror}"]) from None
        if not rows or tuple(rows[0]) != TRAINING_COLUMNS:
            raise ConfigError([f"{src}: not a training log "
                               f"(expected columns {','.join(TRAINING_COLUMNS)})"])
        logs.append((os.path.splitext(os.path.basename(src))[0], rows[1:]))
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "comparison.csv")
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(("source",) + TRAINING_COLUMNS)
        for stem, rows in logs:
            writer.writerows([stem] + row for row in rows)
    print(path)
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of this process, built by the first dispatch."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to the JSON run configuration")
    common.add_argument("--seed", type=int, help="seed override")
    common.add_argument("--out", help="output directory override")

    parser = argparse.ArgumentParser(
        prog="uavdsa",
        description="Collaborative spectrum sensing and scheduling simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("gen-dataset", parents=[common],
                   help="synthesize the labeled I/Q dataset")

    p = sub.add_parser("train-sensor", parents=[common],
                       help="train the dense sensing classifier")
    p.add_argument("--data", help="dataset file (default: OUT/dataset.iq)")

    p = sub.add_parser("eval-sensing", parents=[common],
                       help="per-UAV and fused metrics across the SINR grid")
    p.add_argument("--model", help="use this classifier checkpoint for every UAV")

    p = sub.add_parser("train-agent", parents=[common],
                       help="train a spectrum allocation agent")
    p.add_argument("--variant", choices=AGENT_TRAIN_VARIANTS)
    p.add_argument("--uavs", type=int, choices=(1, 2))

    sub.add_parser("simulate", parents=[common],
                   help="run the full sensing/fusion/access loop")

    p = sub.add_parser("report", parents=[common],
                       help="merge training logs into a comparison table")
    p.add_argument("files", nargs="+", help="training log CSVs")

    return parser


def cli_dispatch(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    # looked up per call, so that a cmd_* patched after the parser was built runs
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        if args.command == "report":
            return handler(args)
        if not args.config:
            _say(f"{args.command}: --config is required")
            return 1
        config = load_config(args.config, args.seed, args.out)
        _check_out_dir(config.out_dir, "out_dir" if args.out is None else "--out")
        return handler(config, args)
    except ConfigError as exc:
        for problem in exc.problems:
            _say(problem)
        return 1
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        _say(f"{args.command}: {exc}")
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
