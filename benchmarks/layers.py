"""Per-layer metrics of a traced run: which boundaries are wrapped, and the
figures derived from their spans.

A layer is one module of the package. Every public function of every
module is wrapped; the metrics keep the boundaries an optimisation is most
likely to move (see README.md for which end-to-end figure each should
move, on which workload).
"""

import importlib
import math
import os
import statistics

import numpy as np

from spans import Tracer, self_times, totals_by_run

LAYERS = ("cli", "config", "seeds", "channel", "iqsynth", "sensing", "fusion",
          "nnet", "scheduler", "core", "simulate")

FUNCTIONS = (
    "nnet.forward.single", "nnet.forward.batched", "nnet.backward",
    "nnet.optimizer_step", "nnet.load_checkpoint",
    "scheduler.DqnAgent.observe", "scheduler.DqnAgent.select",
    "scheduler.replay_sample", "scheduler.ddqn_targets", "scheduler.soft_update",
    "scheduler.state_features",
    "iqsynth.synthesize_observation", "iqsynth.generate_dataset",
    "iqsynth.save_dataset", "iqsynth.load_dataset",
    "sensing.band_energies", "sensing.predict_occupancy", "sensing.feature_vector",
    "sensing.train_classifier", "sensing.evaluate_model", "sensing.micro_metrics",
    "seeds.derive_rng", "channel.step", "fusion.fuse", "core.validate_assignment",
    "simulate.Simulation.run_slot", "simulate.recompute_aggregates",
    "simulate.save_report", "config.load_config",
)

PERCENTILES = (99.9, 99.0, 90.0, 50.0)


def modules():
    return [importlib.import_module(f"uavdsa.{name}") for name in LAYERS]


def methods():
    from uavdsa.scheduler import DqnAgent
    from uavdsa.simulate import Simulation
    return [(DqnAgent, "observe"), (DqnAgent, "select"), (Simulation, "run_slot")]


def _forward_name(args, kwargs):
    x = args[1] if len(args) > 1 else kwargs["x"]
    return "nnet.forward.single" if np.ndim(x) == 1 else "nnet.forward.batched"


def _backward_flops(tracer: Tracer, args, kwargs, result) -> None:
    """Matrix-product FLOPs of one backward(): the forward trace, dW for
    every layer, and the delta propagated below every layer but the first."""
    net, x = args[0], args[1]
    batch = len(x) if np.ndim(x) == 2 else 1
    sizes = [layer.w.size for layer in net.layers]
    tracer.count("nnet.backward.flop", 2 * batch * (2 * sum(sizes) + sum(sizes[1:])))


def _file_bytes(name: str, position: int):
    def after(tracer: Tracer, args, kwargs, result) -> None:
        tracer.count(f"{name}.bytes", os.path.getsize(args[position]))
    return (None, after)


HOOKS = {
    "nnet.forward": (_forward_name, None),
    "nnet.backward": (None, _backward_flops),
    "iqsynth.save_dataset": _file_bytes("iqsynth.save_dataset", 1),
    "iqsynth.load_dataset": _file_bytes("iqsynth.load_dataset", 0),
}


def install(tracer: Tracer) -> None:
    tracer.install(modules(), methods(), HOOKS)


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {}
    for name in FUNCTIONS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        units[f"{name}.us_per_call"] = "us"
    for layer in LAYERS:
        units[f"layer.{layer}.self_s"] = "s"
    units.update({
        "nnet.backward.flop_per_call_computed": "flop",
        "nnet.backward.gflop_per_s_computed": "GFLOP/s",
        "scheduler.grad_steps_per_observe": "ratio",
        "simulate.Simulation.run_slot.p50_us": "us",
        "simulate.Simulation.run_slot.p_high_us": "us",
        "simulate.Simulation.run_slot.p_high_pct": "%",
        "iqsynth.save_dataset.bytes": "B",
        "iqsynth.save_dataset.mb_per_s": "MB/s",
        "iqsynth.load_dataset.bytes": "B",
        "iqsynth.load_dataset.mb_per_s": "MB/s",
        "trace.untraced_wall_s": "s",
        "trace.traced_wall_s": "s",
        "trace.overhead_s": "s",
        "trace.overhead_pct": "%",
    })
    return units


def _nearest_rank(sorted_values: list[float], pct: float) -> float:
    return sorted_values[max(0, math.ceil(pct / 100.0 * len(sorted_values)) - 1)]


def high_percentile(n: int) -> float:
    """The highest of PERCENTILES with at least ten of n samples beyond it."""
    for pct in PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct
    return 50.0


def per_layer_metrics(tracer: Tracer, traced_runs: list[int],
                      untraced_walls: list[float], traced_walls: list[float]):
    """(metrics, per-run totals of the first traced pass). Counts are per
    pass (every pass does the same work); times are medians over the
    traced passes."""
    own = self_times(tracer.parent, tracer.start, tracer.end)
    by_run = totals_by_run(tracer, own)
    totals = [by_run.get(run, {}) for run in traced_runs]
    passes = len(traced_runs)

    def median_of(name: str, column: int) -> float:
        return statistics.median(t.get(name, [0, 0.0, 0.0])[column] for t in totals)

    values: dict[str, float] = {}
    for name in FUNCTIONS:
        calls = totals[0].get(name, [0])[0]
        values[f"{name}.calls"] = calls
        values[f"{name}.self_s"] = median_of(name, 1)
        values[f"{name}.us_per_call"] = median_of(name, 2) / calls * 1e6 if calls else 0.0
    for layer in LAYERS:
        values[f"layer.{layer}.self_s"] = statistics.median(
            sum((row[1] for name, row in t.items() if name.split(".", 1)[0] == layer), 0.0)
            for t in totals)

    backward_calls = values["nnet.backward.calls"]
    flop = tracer.counters.get("nnet.backward.flop", 0.0) / passes
    backward_s = median_of("nnet.backward", 2)
    values["nnet.backward.flop_per_call_computed"] = flop / backward_calls if backward_calls else 0.0
    values["nnet.backward.gflop_per_s_computed"] = flop / backward_s / 1e9 if backward_s else 0.0

    observe = tracer.name_id("scheduler.DqnAgent.observe")
    backward = tracer.name_id("nnet.backward")
    first = traced_runs[0]
    steps = sum(1 for sid in range(len(tracer.name))
                if tracer.run[sid] == first and tracer.name[sid] == backward
                and tracer.parent[sid] >= 0 and tracer.name[tracer.parent[sid]] == observe)
    observes = values["scheduler.DqnAgent.observe.calls"]
    values["scheduler.grad_steps_per_observe"] = steps / observes if observes else 0.0

    slot = tracer.name_id("simulate.Simulation.run_slot")
    durations = sorted(tracer.end[sid] - tracer.start[sid] for sid in range(len(tracer.name))
                       if tracer.name[sid] == slot and tracer.run[sid] in traced_runs)
    pct = high_percentile(len(durations))
    values["simulate.Simulation.run_slot.p50_us"] = (
        _nearest_rank(durations, 50.0) * 1e6 if durations else 0.0)
    values["simulate.Simulation.run_slot.p_high_us"] = (
        _nearest_rank(durations, pct) * 1e6 if durations else 0.0)
    values["simulate.Simulation.run_slot.p_high_pct"] = pct if durations else 0.0

    for name in ("iqsynth.save_dataset", "iqsynth.load_dataset"):
        size = tracer.counters.get(f"{name}.bytes", 0.0) / passes
        seconds = median_of(name, 2)
        values[f"{name}.bytes"] = size
        values[f"{name}.mb_per_s"] = size / seconds / 1e6 if seconds else 0.0

    untraced = statistics.median(untraced_walls)
    traced = statistics.median(traced_walls)
    values["trace.untraced_wall_s"] = untraced
    values["trace.traced_wall_s"] = traced
    values["trace.overhead_s"] = traced - untraced
    values["trace.overhead_pct"] = (traced - untraced) / untraced * 100.0
    units = metric_units()
    return {name: {"value": values[name], "unit": units[name]} for name in units}, totals[0]


def format_table(totals: dict[str, list[float]], wall: float) -> list[str]:
    """Per-layer self-time table of one traced pass, then its functions."""
    lines = [f"{'layer':<10} {'calls':>9} {'self_s':>10} {'share':>7}"]
    for layer in LAYERS:
        rows = [row for name, row in totals.items() if name.split(".", 1)[0] == layer]
        calls = sum(row[0] for row in rows)
        own = sum(row[1] for row in rows)
        lines.append(f"{layer:<10} {calls:>9} {own:>10.4f} {own / wall:>7.1%}")
    lines.append(f"{'function':<38} {'calls':>9} {'self_s':>10} {'us/call':>10}")
    for name, (calls, own, incl) in sorted(totals.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:<38} {calls:>9} {own:>10.4f} {incl / calls * 1e6:>10.1f}")
    return lines
