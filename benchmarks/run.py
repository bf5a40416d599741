"""uavdsa benchmark: one workload, run in-process through the public CLI
entry point `uavdsa.cli.cli_dispatch`.

Usage (from the repository root):

    python3 benchmarks/run.py --workload train-ddqn --seed 1 --seconds 15 --trace 0

The workload seed becomes the seed of a config JSON written under
.bench_work/. A run repeats fixed-size passes of the workload's CLI calls
until --seconds have passed (at least two passes), checks every pass's
outputs, and requires every pass to write byte-identical outputs.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
and traced passes; a traced pass wraps the public functions of every
uavdsa module (see layers.py). That run reports per-layer metrics, a
per-layer self-time table and the tracing overhead, and writes the spans
to .bench_work/<workload>/spans.jsonl.

The host's speed drifts by tens of per cent within seconds, so a fixed
reference kernel is timed before and after every pass. Pass wall times,
and the set-up probe that follows a pass, are scaled to the host speed at
which that kernel takes REFERENCE_S. The unscaled medians are printed as
raw_wall_s and raw_setup_s. Span times are not scaled.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}. An operation is one CLI
call of one pass; it fails when its exit code is not 0, a check of its
outputs does not hold, or its outputs differ from the first pass's.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import layers
from spans import Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5  # at least; a --trace 0 run probes every PROBE_GAP_S seconds
PROBE_GAP_S = 2.0
MIN_PASSES = 2
MAX_TRACED_PASSES = 3  # bounds the spans kept in memory
REFERENCE_ROUNDS = 700
REFERENCE_S = 0.05  # nominal reference-kernel time that pass times are scaled to
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be a u64")
    return args


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        cpu = next((line.split(":", 1)[1].strip() for line in f
                    if line.startswith("model name")), cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def reference_seconds() -> float:
    """Time of a fixed kernel in the workloads' style: interpreter work and
    small dicts and tuples around small matrix products, FFT round trips,
    random draws and strided reads of an 8 MB array. The host's speed
    drifts by tens of per cent within seconds; timing this kernel next to
    every pass measures that drift so that it can be divided out."""
    rng = np.random.default_rng(0)
    w = rng.normal(size=(64, 64))
    x = rng.normal(size=(32, 64))
    v = rng.normal(size=256) + 0j
    big = np.ones(1 << 20)
    kept, total = [], 0.0
    t0 = time.perf_counter()
    for i in range(REFERENCE_ROUNDS):
        h = np.maximum(x @ w, 0.0)
        s = np.fft.ifft(np.fft.fft(v, norm="ortho"), norm="ortho")
        noise = rng.normal(0.0, 1.0, size=(256, 2))
        bits = tuple(int(b) for b in (h[0, :4] > 0))
        kept.append({"round": i, "bits": bits, "pairs": [(k, k + 1) for k in range(4)]})
        total += (sum(bits) + float(s[i % 256].real) + noise[0, 0]
                  + float(big[(i * 4099) % big.size::65536].sum()))
    return time.perf_counter() - t0


def host_scale(before: float, after: float) -> float:
    """Factor that brings a time measured between two reference timings to
    the host speed at which the reference takes REFERENCE_S."""
    return 2 * REFERENCE_S / (before + after)


def probe_setup(config_path: Path) -> float:
    """Seconds from spawning a fresh process to its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, str(HERE / "setup_probe.py"), str(config_path)],
                          stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited {proc.returncode}")
    return elapsed


def sha256(path: Path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_pass(workload, config_path: Path, out: Path, tracer=None):
    """One pass of the workload's CLI calls. Returns (seconds per stage,
    [(stage, problem)], {output file: sha256}, captured run reports)."""
    from uavdsa import cli

    seconds, problems, reports = {}, [], []
    if tracer is not None:
        layers.install(tracer)
    run_simulation = cli.run_simulation

    def capture(config):  # keeps the ledgers for the external audit
        report = run_simulation(config)
        reports.append(report)
        return report

    cli.run_simulation = capture
    try:
        for stage in workload.stages:
            argv = stage.argv(str(out)) + ["--config", str(config_path), "--out", str(out)]
            log = io.StringIO()
            t0 = time.perf_counter()
            with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
                code = cli.cli_dispatch(argv)
            seconds[stage.name] = time.perf_counter() - t0
            if code != 0:
                problems.append((stage.name, f"exit {code}: {log.getvalue()[-400:]}"))
    finally:
        cli.run_simulation = run_simulation
        if tracer is not None:
            tracer.uninstall()

    digests = {}
    for stage in workload.stages:
        for name in stage.outputs:
            if (out / name).is_file():
                digests[name] = sha256(out / name)
            else:
                problems.append((stage.name, f"{name} was not written"))
    return seconds, problems, digests, reports


def check_pass(workload, out: Path, reports, digests, first_digests):
    problems = []
    try:
        problems += workload.check(str(out), reports)
    except Exception:  # noqa: BLE001 - a broken output is a failed operation
        problems.append((workload.stages[-1].name, traceback.format_exc(limit=2)))
    for stage in workload.stages:
        for name in stage.outputs:
            if first_digests is not None and digests.get(name) != first_digests.get(name):
                problems.append((stage.name, f"{name} differs from the first pass"))
    return problems


def main(argv) -> int:
    if not (SRC / "uavdsa" / "__init__.py").is_file():
        print(f"benchmark: no uavdsa sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)
    import uavdsa.cli  # noqa: F401  compile and cache before the set-up probes

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config_path = work / "config.json"
    config_path.write_text(json.dumps(workload.config(args.seed), indent=2) + "\n")
    env = environment()

    tracer = Tracer() if args.trace else None
    origin = time.perf_counter()
    deadline = origin + args.seconds
    walls = {False: [], True: []}  # pass times, keyed by whether the pass was traced
    scaled_walls = {False: [], True: []}
    setup_times, scaled_setup = [], []
    traced_runs, figures, problems = [], [], []
    attempted = failed = 0
    first_digests, identical = None, True
    index = 0
    last_probe = float("-inf")
    references = [reference_seconds()]
    while index < MIN_PASSES or time.perf_counter() < deadline:
        traced = (tracer is not None and index % 2 == 1
                  and len(traced_runs) < MAX_TRACED_PASSES)
        if traced:
            traced_runs.append(tracer.begin_run(f"{workload.name}/seed{args.seed}/pass{index}"))
        out = work / f"pass{index}"
        seconds, pass_problems, digests, reports = run_pass(
            workload, config_path, out, tracer if traced else None)
        walls[traced].append(sum(seconds.values()))
        pass_problems += check_pass(workload, out, reports, digests, first_digests)
        del reports
        first_digests = first_digests or digests
        identical = identical and digests == first_digests
        probed = not args.trace and time.perf_counter() - last_probe >= PROBE_GAP_S
        if probed:
            setup_times.append(probe_setup(config_path))
            last_probe = time.perf_counter()
        references.append(reference_seconds())
        scale = host_scale(references[-2], references[-1])
        scaled_walls[traced].append(walls[traced][-1] * scale)
        if probed:
            scaled_setup.append(setup_times[-1] * scale)
        if not args.trace and not pass_problems:
            figures.append(workload.figures({k: v * scale for k, v in seconds.items()}, str(out)))
        attempted += len(workload.stages)
        failed += len({stage for stage, _ in pass_problems})
        problems += [f"pass {index} {stage}: {msg}" for stage, msg in pass_problems]
        if index > 0:
            shutil.rmtree(out, ignore_errors=True)
        index += 1
    while not args.trace and len(setup_times) < SETUP_PROBES:
        setup_times.append(probe_setup(config_path))
        references.append(reference_seconds())
        scaled_setup.append(setup_times[-1] * host_scale(references[-2], references[-1]))

    digest = hashlib.sha256("".join(f"{k}={v};" for k, v in sorted(first_digests.items()))
                            .encode()).hexdigest()
    print(f"uavdsa benchmark: workload={workload.name} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} passes={index}")
    print("environment: " + json.dumps(env, sort_keys=True))
    if args.trace:
        metrics, first = layers.per_layer_metrics(
            tracer, traced_runs, scaled_walls[False], scaled_walls[True])
        spans_written = tracer.write_jsonl(str(work / "spans.jsonl"), origin, traced_runs[0])
        for line in layers.format_table(first, walls[True][0]):
            print(line)
        print(f"tracing overhead: {metrics['trace.overhead_s']['value']:.4f} s per pass "
              f"({metrics['trace.overhead_pct']['value']:.1f} % of "
              f"{metrics['trace.untraced_wall_s']['value']:.4f} s untraced, "
              f"both at reference host speed); "
              f"{spans_written} spans of the first traced pass in {work / 'spans.jsonl'}")
    else:
        metrics = {
            "setup_s": statistics.median(scaled_setup),
            "wall_s": statistics.median(scaled_walls[False]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
        named = dict(metrics)
        if figures:
            for key, (_, unit) in figures[0].items():
                named[key] = {"value": statistics.median(f[key][0] for f in figures),
                              "unit": unit}
        named["raw_wall_s"] = {"value": statistics.median(walls[False]), "unit": "s"}
        named["raw_setup_s"] = {"value": statistics.median(setup_times), "unit": "s"}
        named["reference_s"] = {"value": statistics.median(references), "unit": "s"}
        for key, m in named.items():
            print(f"{key:<24} {m['value']:>14.6g} {m['unit']}")
    print(f"outputs sha256 {digest} (identical across {index} passes: {identical})")
    for problem in problems:
        print(f"FAILED {problem}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=workload.name, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=index, environment=env, digest=digest,
                  raw_walls=walls[False], setup_probes=setup_times,
                  references=references, figures=figures, problems=problems)
    (WORK / "results").mkdir(exist_ok=True)
    (WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
