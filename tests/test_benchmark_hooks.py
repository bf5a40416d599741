"""The benchmark's hooks into the package, kept working from this suite.

benchmarks/layers.py wraps every public function of every module and three
methods it finds through vars(cls), and benchmarks/run.py swaps out
cli.run_simulation to keep the run reports for its audit. A method moved
out of its class body, or a stage that stops calling through the cli
global, breaks `python3 benchmarks/run.py --trace 1` without failing any
other test. Likewise, a run report whose ledgers lose an attribute the
benchmark's external audit reads, or a ledgers.csv that loses a row, fails
here rather than as failed benchmark operations.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "benchmarks"))

import layers  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from uavdsa import cli  # noqa: E402
from uavdsa.scheduler import DqnAgent  # noqa: E402
from uavdsa.simulate import Simulation  # noqa: E402

CONFIG = {"seed": 3, "radio": {"num_subchannels": 4, "num_uavs": 2},
          "dataset": {"fft_size": 256}, "sensing": {"kind": "perfect"},
          "agent": {"variant": "random"}, "episodes": 1, "slots_per_episode": 20}


def simulate(tmp_path) -> int:
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(CONFIG))
    return cli.cli_dispatch(["simulate", "--config", str(path),
                             "--out", str(tmp_path / "run")])


def test_layers_install_traces_the_slot_loop_and_uninstall_restores(tmp_path, capsys):
    originals = [(cls, attr, vars(cls)[attr]) for cls, attr in layers.methods()]
    assert {(cls, attr) for cls, attr, _ in originals} == {
        (DqnAgent, "observe"), (DqnAgent, "select"), (Simulation, "run_slot")}
    tracer = spans.Tracer()
    tracer.begin_run("simulate")
    layers.install(tracer)
    try:
        assert simulate(tmp_path) == 0
    finally:
        tracer.uninstall()
    names = {tracer.names[i] for i in tracer.name}
    assert {"cli.cli_dispatch", "simulate.run_simulation",
            "simulate.Simulation.run_slot"} <= names
    assert all(vars(cls)[attr] is fn for cls, attr, fn in originals)


def test_cmd_simulate_calls_run_simulation_through_the_cli_global(tmp_path, capsys,
                                                                  monkeypatch):
    reports = []
    run_simulation = cli.run_simulation

    def capture(config):
        reports.append(run_simulation(config))
        return reports[-1]

    monkeypatch.setattr(cli, "run_simulation", capture)
    assert simulate(tmp_path) == 0
    assert len(reports) == 1 and reports[0].slots == CONFIG["slots_per_episode"]


def test_simulate_energy_pass_satisfies_the_benchmark_check(tmp_path, capsys, monkeypatch):
    workload = workloads.WORKLOADS["simulate-energy"]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(workload.config(1)))
    reports = []
    run_simulation = cli.run_simulation

    def capture(config):
        reports.append(run_simulation(config))
        return reports[-1]

    monkeypatch.setattr(cli, "run_simulation", capture)
    out = tmp_path / "run"
    for stage in workload.stages:
        assert cli.cli_dispatch(stage.argv(str(out)) + ["--config", str(path),
                                                        "--out", str(out)]) == 0
    assert workload.check(str(out), reports) == []
    assert reports[0].transmissions > 0

    ledgers = out / "ledgers.csv"
    ledgers.write_text("".join(ledgers.read_text().splitlines(keepends=True)[:-1]))
    assert [stage for stage, problem in workload.check(str(out), reports)
            if "ledgers.csv has" in problem] == ["simulate"]
