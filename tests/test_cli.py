import csv
import json
import os

import struct

import pytest

from uavdsa import cli, nnet, simulate
from uavdsa.cli import cli_dispatch, main
from uavdsa.config import load_config
from uavdsa.scheduler import TRAINING_COLUMNS, DqnAgent, QTable, load_agent, save_agent


def write_config(tmp_path, **overrides):
    cfg = {
        "seed": 42,
        "radio": {"num_subchannels": 4, "num_uavs": 3},
        "dataset": {"fft_size": 256, "count_per_sinr": 30, "eval_count": 20},
        "sensing": {"kind": "energy-threshold",
                    "thresholds": [8.0, 8.0, 8.0, 8.0],
                    "input_mode": "band-energy", "epochs": 4},
        "agent": {"variant": "random"},
        "episodes": 1,
        "slots_per_episode": 30,
    }
    cfg.update(overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _dirs, files in os.walk(root):
        for name in files:
            p = os.path.join(dirpath, name)
            out[os.path.relpath(p, root)] = open(p, "rb").read()
    return out


class TestExitCodes:
    def test_missing_config_is_usage_error(self, capsys):
        assert cli_dispatch(["simulate", "--config", "/no/such/file.json"]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_malformed_config_lists_field_paths(self, tmp_path, capsys):
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({"seed": 1, "radio": {"num_subchannels": -2},
                                 "mystery": True}))
        assert cli_dispatch(["simulate", "--config", str(p)]) == 1
        err = capsys.readouterr().err
        assert "radio.num_subchannels" in err
        assert "config.mystery" in err

    def test_unknown_subcommand(self):
        assert cli_dispatch(["frobnicate"]) == 1

    def test_missing_required_config_flag(self, capsys):
        assert cli_dispatch(["simulate"]) == 1

    def test_runtime_failure_is_2(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)

        def faulty_run(config):  # a fault inside the program: the self-audit refuses it
            report = simulate.run_simulation(config)
            report.mean_utility += 1.0
            return report

        monkeypatch.setattr(cli, "run_simulation", faulty_run)
        assert cli_dispatch(["simulate", "--config", cfg,
                             "--out", str(tmp_path / "run")]) == 2
        assert (capsys.readouterr().err
                == "simulate: report aggregates do not match their ledgers\n")

    def test_missing_dataset_is_a_data_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        data, out = tmp_path / "missing.iq", tmp_path / "run"
        assert cli_dispatch(["train-sensor", "--config", cfg, "--data", str(data),
                             "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("--data: [Errno 2] ")
        assert not out.exists()

    def test_dataset_of_another_m_is_config_error(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cfg = write_config(tmp_path, radio={"num_subchannels": 2, "num_uavs": 1},
                           sensing={"kind": "perfect"})
        assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", out]) == 0
        cfg = write_config(tmp_path, radio={"num_subchannels": 4, "num_uavs": 1},
                           sensing={"kind": "perfect"})
        capsys.readouterr()
        assert cli_dispatch(["train-sensor", "--config", cfg, "--out", out]) == 1
        assert capsys.readouterr().err.startswith("radio.num_subchannels: M=4, ")

    @pytest.mark.parametrize("offset", [56, 60])  # batch_size, target_update_period
    def test_agent_checkpoint_with_a_zero_count_is_refused(self, offset, tmp_path, capsys):
        field = {56: "batch_size", 60: "target_update_period"}[offset]
        ckpt = tmp_path / "agent.ckpt"
        save_agent(DqnAgent(num_subchannels=4, variant="dqn"), str(ckpt))
        data = bytearray(ckpt.read_bytes())
        struct.pack_into("<I", data, offset, 0)
        ckpt.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"^{ckpt}: header.{field}: must be >= 1$"):
            load_agent(str(ckpt))
        cfg = write_config(tmp_path, agent={"variant": "dqn", "checkpoint": str(ckpt)})
        assert cli_dispatch(["simulate", "--config", cfg,
                             "--out", str(tmp_path / "run")]) == 1
        assert "agent.checkpoint" in capsys.readouterr().err

    def test_batch_larger_than_replay_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, agent={"replay_capacity": 8, "batch_size": 32})
        assert cli_dispatch(["train-agent", "--config", cfg, "--variant", "dqn",
                             "--out", str(tmp_path / "run")]) == 1
        assert "agent.batch_size" in capsys.readouterr().err

    def test_qtable_checkpoint_is_honoured(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        cfg = write_config(tmp_path, radio={"num_subchannels": 4, "num_uavs": 1},
                           sensing={"kind": "perfect"}, fusion_n=1)
        assert cli_dispatch(["train-agent", "--config", cfg, "--out", out,
                             "--variant", "qtable"]) == 0
        ckpt = os.path.join(out, "agent_qtable_1uav.ckpt")
        transmissions = {}
        for checkpoint in (None, ckpt):
            cfg = write_config(tmp_path, radio={"num_subchannels": 4, "num_uavs": 1},
                               sensing={"kind": "perfect"}, fusion_n=1,
                               agent={"variant": "qtable", "checkpoint": checkpoint})
            assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 0
            with open(os.path.join(out, "report.json")) as f:
                transmissions[checkpoint] = json.load(f)["transmissions"]
        # an all-zero table idles (ties go to action 0); the trained one transmits
        assert transmissions[None] == 0 and transmissions[ckpt] > 0
        cfg = write_config(tmp_path, radio={"num_subchannels": 4, "num_uavs": 1},
                           sensing={"kind": "perfect"}, fusion_n=1,
                           agent={"variant": "qtable",
                                  "checkpoint": str(tmp_path / "missing.ckpt")})
        capsys.readouterr()
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "agent.checkpoint" in err and "missing.ckpt" in err
        # a q-table trained for another M is refused
        cfg = write_config(tmp_path, radio={"num_subchannels": 2, "num_uavs": 1},
                           sensing={"kind": "perfect"}, fusion_n=1,
                           dataset={"fft_size": 256, "count_per_sinr": 30, "eval_count": 20},
                           agent={"variant": "qtable", "checkpoint": ckpt})
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "agent.checkpoint" in err and "trained for M=4" in err

    def test_train_agent_refuses_a_configured_checkpoint(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, agent={"variant": "dqn",
                                            "checkpoint": "/no/such/agent.ckpt"})
        assert cli_dispatch(["train-agent", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "agent.checkpoint: train-agent trains a fresh agent and cannot resume "
            "from /no/such/agent.ckpt\n")
        assert not out.exists()

    @pytest.mark.parametrize("saved,variant,holds", [
        (QTable(num_subchannels=4), "dqn", "QTable"),
        (DqnAgent(num_subchannels=4, variant="ddqn", hidden=(3,)), "qtable", "DqnAgent"),
        (DqnAgent(num_subchannels=4, variant="ddqn-soft", hidden=(3,)), "dqn",
         "ddqn-soft DqnAgent"),
    ], ids=["qtable-for-dqn", "dqn-for-qtable", "ddqn-soft-for-dqn"])
    def test_checkpoint_of_another_kind_is_refused(self, saved, variant, holds, tmp_path,
                                                   capsys):
        ckpt, out = tmp_path / "agent.ckpt", tmp_path / "run"
        save_agent(saved, str(ckpt))
        cfg = write_config(tmp_path, agent={"variant": variant, "checkpoint": str(ckpt)})
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"agent.checkpoint: {ckpt}: holds a {holds}, config has variant {variant}\n")
        assert not out.exists()

    def test_unusable_checkpoints_name_their_field(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"UAGC")
        cfg = write_config(tmp_path, agent={"variant": "dqn", "checkpoint": str(bad)})
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 1
        assert "agent.checkpoint" in capsys.readouterr().err
        sensing = [{"kind": "perfect"}, {"kind": "perfect"},
                   {"kind": "dense-classifier",
                    "model_path": str(tmp_path / "missing.ckpt")}]
        cfg = write_config(tmp_path, sensing=sensing)
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 1
        assert "sensing[2].model_path" in capsys.readouterr().err
        cfg = write_config(tmp_path)
        assert cli_dispatch(["eval-sensing", "--config", cfg, "--out", out,
                             "--model", str(bad)]) == 1
        assert "--model" in capsys.readouterr().err

    def test_random_agent_with_checkpoint_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, agent={"variant": "random",
                                            "checkpoint": "/no/such.ckpt"})
        assert cli_dispatch(["simulate", "--config", cfg,
                             "--out", str(tmp_path / "run")]) == 1
        assert "agent.checkpoint" in capsys.readouterr().err

    def test_classifier_input_width_must_match_its_mode(self, tmp_path, capsys):
        out = str(tmp_path / "run")
        sensing = {"kind": "dense-classifier", "input_mode": "band-energy",
                   "model_path": "unused", "epochs": 1, "hidden": [8]}
        cfg = write_config(tmp_path, sensing=sensing)
        assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", out]) == 0
        assert cli_dispatch(["train-sensor", "--config", cfg, "--out", out]) == 0
        ckpt = os.path.join(out, "sensor.ckpt")
        assert os.path.exists(ckpt)
        # the band-energy checkpoint (4 inputs) on an iq sensor (2N = 512 inputs)
        iq = [{"kind": "perfect"}, {"kind": "perfect"},
              {"kind": "dense-classifier", "model_path": ckpt}]
        cfg = write_config(tmp_path, sensing=iq)
        capsys.readouterr()
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 1
        err = capsys.readouterr().err
        assert "sensing[2].model_path" in err and "512" in err
        assert cli_dispatch(["eval-sensing", "--config", cfg, "--out", out,
                             "--model", ckpt]) == 1
        assert "--model" in capsys.readouterr().err
        cfg = write_config(tmp_path, sensing=dict(sensing, model_path=ckpt))
        assert cli_dispatch(["eval-sensing", "--config", cfg, "--out", out,
                             "--model", ckpt]) == 0

    def test_interference_is_refused_where_it_is_ignored(self, tmp_path, capsys):
        out = tmp_path / "run"
        cfg = write_config(tmp_path, dataset={"fft_size": 256, "count_per_sinr": 4,
                                              "interference_gains_db": [-10.0]})
        for command in ("simulate", "eval-sensing"):
            assert cli_dispatch([command, "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("dataset.interference_gains_db: ")
            assert not out.exists()
        assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", str(out)]) == 0
        clean = write_config(tmp_path, dataset={"fft_size": 256, "count_per_sinr": 4})
        clean_out = tmp_path / "clean"
        assert cli_dispatch(["gen-dataset", "--config", clean, "--out", str(clean_out)]) == 0
        assert (out / "dataset.iq").read_bytes() != (clean_out / "dataset.iq").read_bytes()

    def test_train_agent_refuses_an_untrainable_variant(self, tmp_path, capsys):
        cfg = write_config(tmp_path)  # agent.variant "random", no --variant
        out = tmp_path / "run"
        assert cli_dispatch(["train-agent", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("agent.variant: ")
        assert not out.exists()

    def test_train_agent_refuses_more_uavs_than_configured(self, tmp_path, capsys):
        cfg = write_config(tmp_path, radio={"num_subchannels": 4, "num_uavs": 1})
        out = tmp_path / "run"
        assert cli_dispatch(["train-agent", "--config", cfg, "--variant", "dqn",
                             "--uavs", "2", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("--uavs: ")
        assert not out.exists()

    def test_empty_per_entry_lists_are_config_errors(self, tmp_path, capsys):
        for key, count in (("channels", 4), ("sensing", 3)):
            cfg = write_config(tmp_path, **{key: []})
            assert cli_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path / "run")]) == 1
            assert (f"{key}: expected {count} entries, got 0"
                    in capsys.readouterr().err.splitlines())

    def test_simulate_says_when_the_agent_is_untrained(self, tmp_path, capsys):
        # a learning variant without agent.checkpoint runs untrained, and
        # says so after the summary; a random agent never says it
        for variant, said in (("qtable", True), ("dqn", True), ("random", False)):
            cfg = write_config(tmp_path, agent={"variant": variant})
            assert cli_dispatch(["simulate", "--config", cfg,
                                 "--out", str(tmp_path / variant)]) == 0
            err = capsys.readouterr().err.splitlines()
            assert err[0].startswith("simulate: 30 slots in ")
            assert err[1:] == [f"simulate: agent {variant} is untrained "
                               "(no agent.checkpoint)"] * said

    def test_repeated_sinr_grid_value_is_config_error(self, tmp_path, capsys):
        # a repeated grid value would merge two strata of the dataset
        cfg = write_config(tmp_path, dataset={"fft_size": 256, "sinr_grid_db": [5, 5]})
        out = tmp_path / "run"
        for command in ("gen-dataset", "simulate"):
            assert cli_dispatch([command, "--config", cfg, "--out", str(out)]) == 1
            assert capsys.readouterr().err.startswith("dataset.sinr_grid_db: repeats a value")
            assert not out.exists()

    def test_seed_flag_out_of_range_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        for seed in ("-1", str(2 ** 64)):
            assert cli_dispatch(["simulate", "--config", cfg, "--seed", seed,
                                 "--out", str(tmp_path / "run")]) == 1
            assert "--seed" in capsys.readouterr().err

    def test_help_exits_zero(self):
        assert cli_dispatch(["--help"]) == 0

    def test_gen_dataset_refuses_more_than_32_subchannels(self, tmp_path, capsys):
        # IQDS stores each label as a u32 mask; other subcommands accept M=40
        cfg = write_config(tmp_path, radio={"num_subchannels": 40, "num_uavs": 3},
                           sensing={"kind": "perfect"})
        assert load_config(cfg).radio.num_subchannels == 40
        out = tmp_path / "run"
        assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("radio.num_subchannels: ")
        assert not out.exists()


# (field path in the problem, config overrides): JSON admits NaN and
# Infinity, and every bound comparison with NaN is false
NON_FINITE = [
    ("channels[0].p01", {"channels": {"p01": float("nan"), "p10": 0.3}}),
    ("agent.gamma", {"agent": {"variant": "random", "gamma": float("nan")}}),
    ("timing.t_s", {"timing": {"t_s": float("nan")}}),
    ("config.request_probability", {"request_probability": float("nan")}),
    ("radio.p_tx", {"radio": {"num_subchannels": 4, "p_tx": float("-inf")}}),
    ("dataset.sinr_grid_db", {"dataset": {"fft_size": 256,
                                          "sinr_grid_db": [0.0, float("nan")]}}),
    ("dataset.interference_gains_db", {"dataset": {"fft_size": 256,
                                                   "interference_gains_db": [float("inf")]}}),
]


# integers that JSON admits but that overflow a float
TOO_LARGE = [
    ("timing.t_s", {"timing": {"t_s": 10 ** 350}}),
    ("agent.hidden", {"agent": {"variant": "random", "hidden": [10 ** 350]}}),
]


@pytest.mark.parametrize("field,overrides", NON_FINITE + TOO_LARGE,
                         ids=[f for f, _ in NON_FINITE]
                         + [f"{f}-too-large" for f, _ in TOO_LARGE])
def test_non_finite_numbers_are_config_errors(field, overrides, tmp_path, capsys):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", str(out)]) == 1
    assert f"{field}: must be a finite number" in capsys.readouterr().err.splitlines()
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "gen-dataset", "eval-sensing"])
def test_frozen_chain_is_a_config_error(command, tmp_path, capsys):
    # p01 = p10 = 0 has no stationary distribution to draw slot 0 or labels from
    channels = [{"p01": 0.2, "p10": 0.3}, {"p01": 0.0, "p10": 0.0},
                {"p01": 0.2, "p10": 0.3}, {"p01": 0.0, "p10": 0.0}]
    cfg = write_config(tmp_path, channels=channels)
    out = tmp_path / "run"
    assert cli_dispatch([command, "--config", cfg, "--out", str(out)]) == 1
    problems = capsys.readouterr().err.splitlines()
    assert [p.split(":")[0] for p in problems] == ["channels[1]", "channels[3]"]
    assert not out.exists()


# (field path, config overrides, subcommand): integers that used to overflow
# or to size tables, networks and replay rings at run time, then agent rates
# that used to overflow the epsilon schedule, make it oscillate, or drive
# the Q-values past the divergence guard
TOO_BIG = [
    ("radio.num_subchannels", {"radio": {"num_subchannels": 10 ** 30}}, "simulate"),
    ("radio.num_uavs", {"radio": {"num_uavs": 10 ** 30}}, "simulate"),
    ("dataset.fft_size", {"dataset": {"fft_size": 2 ** 40}}, "simulate"),
    ("agent.hidden", {"agent": {"hidden": [10 ** 12]}}, "simulate"),
    ("sensing[0].hidden", {"sensing": {"kind": "perfect", "hidden": [10 ** 12]}},
     "train-sensor"),
    ("agent.replay_capacity", {"agent": {"variant": "dqn", "replay_capacity": 10 ** 14}},
     "train-agent"),
    ("agent.epsilon_decay", {"agent": {"variant": "qtable", "epsilon_decay": 10.0},
                             "episodes": 400}, "train-agent"),
    ("agent.epsilon_decay", {"agent": {"variant": "qtable", "epsilon_decay": -0.5}},
     "train-agent"),
    ("agent.alpha", {"agent": {"variant": "qtable", "alpha": -1.0}}, "train-agent"),
    ("agent.alpha", {"agent": {"variant": "qtable", "alpha": 5.0}}, "train-agent"),
]


@pytest.mark.parametrize("field,overrides,command", TOO_BIG,
                         ids=[f"{f}-{i}" for i, (f, _, _) in enumerate(TOO_BIG)])
def test_oversized_integers_are_config_errors(field, overrides, command, tmp_path,
                                              capsys):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert cli_dispatch([command, "--config", cfg, "--out", str(out)]) == 1
    assert any(p.startswith(f"{field}: ") for p in capsys.readouterr().err.splitlines())
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval-sensing", "simulate"])
def test_undefined_precision_is_an_empty_cell(command, tmp_path, capsys):
    # thresholds of 0 report every band busy, so UAV 0 never predicts the
    # positive (vacant) class and its precision is undefined
    sensing = [{"kind": "energy-threshold", "thresholds": [0.0] * 4},
               {"kind": "energy-threshold", "thresholds": [8.0] * 4},
               {"kind": "perfect"}]
    cfg = write_config(tmp_path, sensing=sensing)
    out = tmp_path / "run"
    assert cli_dispatch([command, "--config", cfg, "--out", str(out)]) == 0
    with open(out / "sensing_metrics.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    uav0 = [row for row in rows if row["uav"] == "0"]
    assert uav0 and all(row["precision"] == "" for row in uav0)
    assert all(float(row["recall"]) == 0.0 for row in uav0)
    assert all(float(row["precision"]) == 1.0 for row in rows if row["uav"] == "2")


def _agent_file(path, primary=None):
    agent = DqnAgent(num_subchannels=4, variant="dqn", hidden=(3,))
    if primary is not None:  # set after construction, which would refuse it
        agent.primary = primary
    save_agent(agent, str(path))


def _sensor_file(path, outputs=4):
    nnet.save_checkpoint(nnet.build_network([4, 3, outputs], ["relu", "sigmoid"], seed=0),
                         str(path))


def _packed(fmt, offset, value):
    """An edit of a file's bytes that packs `value` at `offset`."""
    def edit(data):
        data = bytearray(data)
        struct.pack_into(fmt, data, offset, value)
        return bytes(data)
    return edit


def _edited(write, edit):
    """The file of `write`, its bytes passed through `edit`."""
    def make(path):
        write(path)
        path.write_bytes(edit(path.read_bytes()))
    return make


def _patched(write, fmt, offset, value):
    return _edited(write, _packed(fmt, offset, value))


# (the setting that names the file, its config overrides)
CHECKPOINT_USES = {
    "dqn": ("agent.checkpoint", lambda p: {"agent": {"variant": "dqn", "checkpoint": p}}),
    "qtable": ("agent.checkpoint",
               lambda p: {"agent": {"variant": "qtable", "checkpoint": p}}),
    "sensor": ("sensing[0].model_path",
               lambda p: {"sensing": {"kind": "dense-classifier",
                                      "input_mode": "band-energy", "model_path": p}}),
}

def _qtable_file(path):
    save_agent(QTable(num_subchannels=4), str(path))


# (use, writer of the defective file, problem): UAGC header offsets 4 version,
# 12 variant code, 16 gamma, 24 epsilon0, 32 epsilon_min, 40 epsilon_decay,
# 48 tau, 64 learning rate; UQTB 4 version, 8 M, 20 alpha, 28 alpha_power;
# UNNC 4 version, 8 layer count, 20 the first layer's activation code, 36
# the first weight of a two-layer block. A UQTB file for M = 4 is 1396 bytes
# and the two-layer UNNC file 160.
MALFORMED_CHECKPOINTS = [
    ("dqn", _patched(_agent_file, "<I", 4, 2), "unsupported agent version 2"),
    ("dqn", _patched(_agent_file, "<d", 16, 1.0), "header.gamma: must be < 1.0"),
    ("dqn", _patched(_agent_file, "<d", 48, 2.0), "header.tau: must be <= 1.0"),
    ("dqn", _patched(_agent_file, "<d", 64, 0.0), "header.learning_rate: must be > 0.0"),
    ("dqn", _patched(_agent_file, "<d", 64, float("nan")),
     "header.learning_rate: must be a finite number"),
    ("dqn", _patched(_agent_file, "<d", 64, float("inf")),
     "header.learning_rate: must be a finite number"),
    ("dqn", _patched(_agent_file, "<d", 24, float("nan")),
     "header.epsilon0: must be a finite number"),
    ("dqn", _patched(_agent_file, "<d", 24, 2.0), "header.epsilon0: must be <= 1.0"),
    ("dqn", _patched(_agent_file, "<d", 32, -1.0), "header.epsilon_min: must be >= 0.0"),
    ("dqn", _patched(_agent_file, "<d", 40, 5.0), "header.epsilon_decay: must be <= 1.0"),
    ("dqn", _patched(_patched(_agent_file, "<d", 24, 0.5), "<d", 32, 0.75),
     "header.epsilon_min: 0.75 exceeds header.epsilon0 0.5, so epsilon would rise to "
     "its floor, not decay to it"),
    ("dqn", lambda p: _agent_file(p, nnet.build_network([4, 3, 4], ["relu", "identity"],
                                                        seed=0)),
     "output width must be M + 1"),
    ("dqn", lambda p: _agent_file(p, nnet.build_network([3, 3, 5], ["relu", "identity"],
                                                        seed=0)),
     "input width must be M"),
    ("dqn", _sensor_file, "not an agent checkpoint"),
    ("dqn", _patched(_agent_file, "<I", 12, 9), "unknown agent variant code 9"),
    ("qtable", _patched(_qtable_file, "<I", 4, 2), "unsupported q-table version 2"),
    ("qtable", _patched(_qtable_file, "<I", 8, 13),
     "q-table for M=13 exceeds the tabular limit M <= 12"),
    ("qtable", _patched(_qtable_file, "<d", 20, 3.0), "header.alpha: must be <= 1.0"),
    ("qtable", _patched(_qtable_file, "<d", 28, 7.0), "header.alpha_power: must be <= 1.0"),
    ("qtable", _patched(_qtable_file, "<d", 28, float("nan")),
     "header.alpha_power: must be a finite number"),
    ("qtable", _edited(_qtable_file, lambda data: data[:-1]),
     "1395 bytes where a q-table for M=4 needs 1396: truncated"),
    ("qtable", _edited(_qtable_file, lambda data: data + b"\0"),
     "1397 bytes where a q-table for M=4 needs 1396: trailing bytes"),
    ("sensor", _patched(_sensor_file, "<I", 4, 2), "unsupported checkpoint version 2"),
    ("sensor", _patched(_sensor_file, "<I", 8, 0), "network has no layers"),
    ("sensor", _patched(_sensor_file, "<f", 36, float("nan")), "weights must be finite"),
    ("sensor", _edited(_sensor_file, lambda data: data[:8]), "truncated network header"),
    ("sensor", _edited(_sensor_file, lambda data: data[:24]), "truncated layer table"),
    ("sensor", _patched(_sensor_file, "<I", 20, 7), "unknown activation code 7"),
    ("sensor", _edited(_sensor_file, lambda data: data[:-1]),
     "159 bytes where the network block needs 160: truncated"),
    ("sensor", _edited(_sensor_file, lambda data: data + b"\0"),
     "161 bytes where the network block needs 160: trailing bytes"),
    ("sensor", lambda p: _sensor_file(p, outputs=3), "classifier has 3 outputs, config has M=4"),
]


@pytest.mark.parametrize("use,write,problem", MALFORMED_CHECKPOINTS, ids=[
    "agent-version", "agent-gamma", "agent-tau", "agent-learning-rate",
    "agent-learning-rate-nan", "agent-learning-rate-inf", "agent-epsilon0-nan",
    "agent-epsilon0", "agent-epsilon-min", "agent-epsilon-decay", "agent-epsilon-floor",
    "agent-output-width", "agent-input-width", "agent-magic", "agent-variant-code",
    "qtable-version", "qtable-m-limit", "qtable-alpha", "qtable-alpha-power",
    "qtable-alpha-power-nan", "qtable-truncated", "qtable-trailing", "network-version",
    "network-no-layers", "network-non-finite", "network-truncated-header",
    "network-truncated-layer-table", "network-activation-code", "network-truncated",
    "network-trailing", "classifier-output-width"])
def test_malformed_checkpoints_are_config_errors(use, write, problem, tmp_path, capsys):
    ckpt = tmp_path / "file.ckpt"
    write(ckpt)
    field, overrides = CHECKPOINT_USES[use]
    cfg = write_config(tmp_path, **overrides(str(ckpt)))
    out = tmp_path / "run"
    assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"{field}: {ckpt}: {problem}\n"
    assert not out.exists()


# (defect, problem) of the 24-record file below: IQDS header offsets 4
# version, 8 M, 12 N, 48 the first record; a record is 520 bytes (mask u32,
# SINR f32, 64 samples), its SINR at offset 4, and records 0-5 are -10 dB
@pytest.mark.parametrize("defect,problem", [
    (_packed("<I", 4, 7), "unsupported dataset version 7"),
    (lambda data: data[:-3], "truncated record 23"),
    (lambda data: data[:10], "truncated header"),
    (lambda data: b"IQDX" + data[4:], "not a dataset file"),
    (_packed("<I", 8, 0), "header has M=0 sub-channels"),
    (_packed("<I", 12, 63),
     "header has M=4, N=63: samples_per_observation: must be a positive power of two"),
    (_packed("<I", 12, 2), "header has M=4, N=2: subcarriers_per_subchannel: must be >= 1"),
    (lambda data: _packed("<I", 12, 2 ** 30)(_packed("<I", 8, 1)(data)),
     "header has M=1, N=1073741824: "),
    (_packed("<I", 48, 16), "record 0: label mask has bits at or above M=4"),
    (_packed("<f", 52, 3.5), "record 0: SINR is not a grid value"),
    (_packed("<f", 48 + 7 * 520 + 4, -10.0), "record 7: SINR -10 dB outside its stratum"),
], ids=["version", "truncated-record", "truncated-header", "magic", "header-m",
        "header-n", "header-n-below-m", "header-record-size", "record-mask", "record-sinr", "record-stratum"])
def test_malformed_dataset_is_a_config_error(defect, problem, tmp_path, capsys):
    out = tmp_path / "run"
    cfg = write_config(tmp_path, dataset={"fft_size": 64, "count_per_sinr": 6},
                       sensing={"kind": "perfect", "epochs": 1, "hidden": [4]})
    assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", str(out)]) == 0
    data = out / "dataset.iq"
    data.write_bytes(bytes(defect(bytearray(data.read_bytes()))))
    capsys.readouterr()
    assert cli_dispatch(["train-sensor", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"--data: {data}: {problem}")
    assert not (out / "sensor.ckpt").exists()


@pytest.mark.parametrize("count,header_only", [(1, False), (6, True)],
                         ids=["one-per-sinr", "header-only"])
def test_empty_train_split_is_a_data_error(count, header_only, tmp_path, capsys):
    """A dataset with no training rows (strata of one observation, or a file
    that holds only its header) is refused naming --data and the file."""
    out = tmp_path / "run"
    cfg = write_config(tmp_path, dataset={"fft_size": 64, "count_per_sinr": count},
                       sensing={"kind": "perfect", "epochs": 1, "hidden": [4]})
    assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", str(out)]) == 0
    data = out / "dataset.iq"
    if header_only:  # magic, five u32 fields, the four-value grid and the seed
        data.write_bytes(data.read_bytes()[:4 + 20 + 4 * 4 + 8])
    capsys.readouterr()
    assert cli_dispatch(["train-sensor", "--config", cfg, "--data", str(data),
                         "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"--data: {data}: dataset has an empty train split\n"
    assert not (out / "sensor.ckpt").exists()


def test_train_agent_refuses_links_without_capacity(tmp_path, capsys):
    # log2(1 + 10^-20) == 0.0, so no link of the trained UAV carries a bit
    link = {"sensing_sinr_db": [10.0] * 3, "access_sinr_db": [[-200.0] * 4] * 3}
    cfg = write_config(tmp_path, link=link)
    out = tmp_path / "run"
    assert cli_dispatch(["train-agent", "--config", cfg, "--variant", "dqn",
                         "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("link.access_sinr_db: ")
    assert not out.exists()
    # simulate scores those links as carrying nothing
    assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "report.json") as f:
        assert json.load(f)["mean_utility"] == 0.0


@pytest.mark.parametrize("overrides,problems", [
    ({"sensing": {"kind": "energy-threshold", "thresholds": [8.0, -1.0, 8.0, 8.0]}},
     [f"sensing[{i}].thresholds: entries must be >= 0.0" for i in range(3)]),
    ({"agent": {"variant": "random", "hidden": [64, 0]}}, ["agent.hidden: entries must be >= 1"]),
], ids=["thresholds", "hidden"])
def test_list_entries_below_their_bound_are_config_errors(overrides, problems, tmp_path,
                                                          capsys):
    """Each refused list is one line per entry that holds it, nothing more."""
    cfg = write_config(tmp_path, **overrides)
    assert cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert capsys.readouterr().err.splitlines() == problems


def test_config_that_is_not_an_object_is_refused(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[1, 2]")
    assert cli_dispatch(["simulate", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"config: {cfg} must contain a JSON object\n"


def test_main_exits_with_the_dispatch_code(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["uavdsa", "simulate"])
    with pytest.raises(SystemExit) as exit_:
        main()
    assert exit_.value.code == 1
    assert capsys.readouterr().err == "simulate: --config is required\n"


class TestPipeline:
    def test_full_pipeline(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = str(tmp_path / "run")
        assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", out]) == 0
        assert cli_dispatch(["train-sensor", "--config", cfg, "--out", out]) == 0
        assert cli_dispatch(["eval-sensing", "--config", cfg, "--out", out,
                             "--model", os.path.join(out, "sensor.ckpt")]) == 0
        assert cli_dispatch(["train-agent", "--config", cfg, "--out", out,
                             "--variant", "ddqn-soft", "--uavs", "2"]) == 0
        assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 0
        for name in ("dataset.iq", "sensor.ckpt", "sensor_curve.csv",
                     "sensing_metrics.csv", "training_ddqn-soft_2uav.csv",
                     "agent_ddqn-soft_2uav.ckpt", "ledgers.csv", "report.json"):
            assert os.path.exists(os.path.join(out, name)), name

    def test_report_merges_training_logs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, episodes=2, slots_per_episode=10)
        out = str(tmp_path / "runs")
        for variant in ("dqn", "ddqn"):
            assert cli_dispatch(["train-agent", "--config", cfg, "--out", out,
                                 "--variant", variant]) == 0
        assert cli_dispatch([
            "report", "--out", out,
            os.path.join(out, "training_dqn_1uav.csv"),
            os.path.join(out, "training_ddqn_1uav.csv")]) == 0
        lines = open(os.path.join(out, "comparison.csv")).read().splitlines()
        assert lines[0].startswith("source,episode,")
        sources = {line.split(",")[0] for line in lines[1:]}
        assert sources == {"training_dqn_1uav", "training_ddqn_1uav"}

    def test_report_rejects_non_training_csv(self, tmp_path, capsys):
        bad = tmp_path / "x.csv"
        bad.write_text("a,b\n1,2\n")
        good = tmp_path / "training_dqn_1uav.csv"
        good.write_text(",".join(TRAINING_COLUMNS) + "\n")
        assert cli_dispatch(["report", "--out", str(tmp_path), str(good), str(bad)]) == 1
        assert capsys.readouterr().err == (
            f"{bad}: not a training log (expected columns {','.join(TRAINING_COLUMNS)})\n")
        assert not (tmp_path / "comparison.csv").exists()
        missing = tmp_path / "missing.csv"
        assert cli_dispatch(["report", "--out", str(tmp_path), str(good), str(missing)]) == 1
        assert capsys.readouterr().err == f"{missing}: cannot read: No such file or directory\n"
        assert not (tmp_path / "comparison.csv").exists()


class TestDeterminism:
    def test_gen_dataset_and_simulate_byte_identical(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trees = []
        for name in ("r1", "r2"):
            out = str(tmp_path / name)
            assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", out]) == 0
            assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]

    def test_seed_flag_changes_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        outs = []
        for name, seed in (("a", "42"), ("b", "43")):
            out = str(tmp_path / name)
            assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", out,
                                 "--seed", seed]) == 0
            outs.append(open(os.path.join(out, "dataset.iq"), "rb").read())
        assert outs[0] != outs[1]


# (argv after the subcommand, beyond --config and --out): every subcommand writes
WRITERS = {
    "gen-dataset": [],
    "train-sensor": [],
    "eval-sensing": [],
    "train-agent": ["--variant", "qtable"],
    "simulate": [],
}


class TestOutputPath:
    @pytest.mark.parametrize("command", [*WRITERS, "report"])
    @pytest.mark.parametrize("nested", [False, True], ids=["file", "under-file"])
    def test_out_that_is_a_file_is_refused_before_any_work(self, command, nested,
                                                           tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        out = taken / "run" if nested else taken
        if command == "report":
            argv = ["report", "--out", str(out), str(tmp_path / "missing.csv")]
        else:
            argv = [command, "--config", write_config(tmp_path), "--out", str(out),
                    *WRITERS[command]]
        assert cli_dispatch(argv) == 1
        assert capsys.readouterr().err == f"--out: {taken} is not a directory\n"
        assert taken.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["taken"] + (["cfg.json"] if command != "report" else []))

    def test_report_default_out_is_named_as_the_default(self, tmp_path, capsys,
                                                        monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "out").write_text("kept\n")
        assert cli_dispatch(["report", str(tmp_path / "missing.csv")]) == 1
        assert capsys.readouterr().err == "--out (default): out is not a directory\n"
        assert (tmp_path / "out").read_text() == "kept\n"
        assert os.listdir(tmp_path) == ["out"]

    def test_out_dir_from_the_config_is_named(self, tmp_path, capsys, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        ran, run_simulation = [], cli.run_simulation
        monkeypatch.setattr(cli, "run_simulation",
                            lambda config: ran.append(config) or run_simulation(config))
        cfg = write_config(tmp_path, out_dir=str(taken))
        assert cli_dispatch(["simulate", "--config", cfg]) == 1
        assert capsys.readouterr().err == f"out_dir: {taken} is not a directory\n"
        assert ran == []  # refused before the run, not after it
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "run")]) == 0
        assert len(ran) == 1 and taken.read_text() == "kept\n"


class TestParserReuse:
    """cli_dispatch builds its parser once per process: no option of one
    call reaches the next, a usage error leaves the next call unharmed,
    and each call runs the cmd_* handler the cli module holds then."""

    def test_options_do_not_leak_between_calls(self, tmp_path, monkeypatch):
        seen = []

        def record(config, args):
            seen.append((args.command, config.seed, vars(args)))
            return 0

        for name in ("cmd_train_sensor", "cmd_eval_sensing", "cmd_simulate"):
            monkeypatch.setattr(cli, name, record)
        cfg, out = write_config(tmp_path), str(tmp_path / "run")
        for argv in (["train-sensor", "--data", "a.iq", "--seed", "5"], ["train-sensor"],
                     ["eval-sensing", "--model", "m.ckpt", "--seed", "6"], ["eval-sensing"],
                     ["simulate", "--seed", "7"], ["simulate"]):
            assert cli_dispatch(argv + ["--config", cfg, "--out", out]) == 0
        assert [(command, seed) for command, seed, _ in seen] == [
            ("train-sensor", 5), ("train-sensor", 42), ("eval-sensing", 6),
            ("eval-sensing", 42), ("simulate", 7), ("simulate", 42)]
        assert [args.get("data") for _, _, args in seen[:2]] == ["a.iq", None]
        assert [args.get("model") for _, _, args in seen[2:4]] == ["m.ckpt", None]
        assert all(args["seed"] is None for _, _, args in seen[1::2])

    def test_usage_error_leaves_the_next_call_unharmed(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trees = []
        for name, bad in (("a", ["simulate", "--bogus"]),
                          ("b", ["train-agent", "--variant", "nope", "--config", cfg])):
            out = str(tmp_path / name)
            assert cli_dispatch(bad) == 1
            assert cli_dispatch(["simulate", "--config", cfg, "--out", out]) == 0
            trees.append(tree_bytes(out))
        assert trees[0] == trees[1]
        with open(os.path.join(tmp_path, "a", "report.json")) as f:
            assert json.load(f)["seed"] == 42

    def test_a_patched_handler_runs(self, tmp_path, monkeypatch, capsys):
        cfg = write_config(tmp_path)
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "a")]) == 0
        assert cli.build_parser() is cli.build_parser()  # the parser is not built again
        calls = []
        monkeypatch.setattr(cli, "cmd_simulate", lambda config, args: calls.append(args) or 3)
        assert cli_dispatch(["simulate", "--config", cfg, "--out", str(tmp_path / "b")]) == 3
        assert len(calls) == 1 and not (tmp_path / "b").exists()


def test_eval_sensing_model_is_loaded_once(tmp_path, monkeypatch, capsys):
    ckpt = str(tmp_path / "sensor.ckpt")
    nnet.save_checkpoint(nnet.build_network([4, 8, 4], ["relu", "sigmoid"], seed=2), ckpt)
    loads = []
    load = nnet.load_checkpoint
    monkeypatch.setattr(nnet, "load_checkpoint", lambda path: loads.append(path) or load(path))
    cfg = write_config(tmp_path)
    assert cli_dispatch(["eval-sensing", "--config", cfg, "--out", str(tmp_path / "run"),
                         "--model", ckpt]) == 0
    assert loads == [ckpt]


# (field path, config overrides, subcommand): values that used to validate
# and then allocate an impossible array at run time (exit 2), or run an
# epsilon schedule that rises instead of decaying
REFUSED_AT_VALIDATION = [
    ("config.slots_per_episode", {"agent": {"variant": "dqn"}, "slots_per_episode": 10 ** 12},
     "train-agent"),
    ("dataset.count_per_sinr", {"dataset": {"fft_size": 256, "count_per_sinr": 10 ** 12}},
     "gen-dataset"),
    ("dataset.count_per_sinr", {"dataset": {"fft_size": 65536, "count_per_sinr": 1025}},
     "gen-dataset"),
    ("agent.epsilon_min", {"agent": {"variant": "qtable", "epsilon0": 0.1,
                                     "epsilon_min": 0.5}}, "train-agent"),
    ("agent.hidden", {"agent": {"variant": "ddqn", "hidden": [1024] * 400}}, "simulate"),
]


@pytest.mark.parametrize("field,overrides,command", REFUSED_AT_VALIDATION,
                         ids=["slots-per-episode", "count-per-sinr", "dataset-samples",
                              "epsilon-min", "hidden-depth"])
def test_values_past_their_bounds_stop_at_validation(field, overrides, command, tmp_path,
                                                     capsys):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert cli_dispatch([command, "--config", cfg, "--out", str(out)]) == 1
    assert [p.split(": ")[0] for p in capsys.readouterr().err.splitlines()] == [field]
    assert not out.exists()


# (config overrides, the one problem): checks that span fields, each
# reported under the key it refuses
CROSS_FIELD_REFUSALS = [
    ({"timing": {"t_req": 0, "t_s": 0, "t_b": 0, "t_a": 0}},
     "timing: t_req + t_s + t_b + t_a must be > 0"),
    ({"radio": {"num_subchannels": 4, "num_uavs": 3, "system_bandwidth": 1e6}},
     "radio.system_bandwidth: 4 sub-channels of 540000.0 Hz exceed 1000000.0 Hz"),
    ({"dataset": {"fft_size": 1024, "subcarriers_per_subchannel": 300}},
     "dataset.subcarriers_per_subchannel: 4 blocks of 300 bins exceed the 1024-bin "
     "transform"),
]


@pytest.mark.parametrize("overrides,problem", CROSS_FIELD_REFUSALS,
                         ids=["timing", "system-bandwidth", "subcarriers"])
def test_cross_field_refusals_name_their_key(overrides, problem, tmp_path, capsys):
    cfg = write_config(tmp_path, **overrides)
    out = tmp_path / "run"
    assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 1
    assert capsys.readouterr().err == problem + "\n"
    assert not out.exists()


def test_new_bounds_admit_their_edges(tmp_path):
    # 4 SINRs x 1024 observations x 65536 samples is 2^28 samples exactly
    cfg = write_config(tmp_path, dataset={"fft_size": 65536, "count_per_sinr": 1024})
    assert load_config(cfg).dataset.count_per_sinr == 1024
    cfg = write_config(tmp_path, slots_per_episode=10 ** 6,
                       agent={"variant": "qtable", "epsilon0": 0.5, "epsilon_min": 0.5})
    assert load_config(cfg).slots_per_episode == 10 ** 6


def test_train_sensor_takes_every_training_value_of_sensing_0(tmp_path, monkeypatch,
                                                            capsys):
    """Each training field of sensing[0], set away from its default,
    reaches the classifier train-sensor trains."""
    from dataclasses import fields
    from uavdsa.sensing import SensingSpec
    training = {"decision_threshold": 0.3, "input_mode": "band-energy", "hidden": [6, 5],
                "epochs": 3, "batch_size": 7, "learning_rate": 0.004}
    assert set(training) == {f.name for f in fields(SensingSpec)} - {
        "kind", "thresholds", "model_path"}
    assert all(getattr(SensingSpec, key) != (tuple(value) if isinstance(value, list)
                                             else value) for key, value in training.items())
    out = tmp_path / "run"
    cfg = write_config(tmp_path, dataset={"fft_size": 64, "count_per_sinr": 20},
                       sensing={"kind": "perfect", **training})
    assert cli_dispatch(["gen-dataset", "--config", cfg, "--out", str(out)]) == 0
    models, rates, steps = [], [], []
    train, optimizer, step = cli.train_classifier, nnet.OptimizerState, nnet.optimizer_step
    monkeypatch.setattr(cli, "train_classifier",
                        lambda *a: models.append(train(*a)) or models[-1])
    monkeypatch.setattr(nnet, "OptimizerState",
                        lambda learning_rate: rates.append(learning_rate)
                        or optimizer(learning_rate))
    monkeypatch.setattr(nnet, "optimizer_step", lambda *a: steps.append(1) or step(*a))
    assert cli_dispatch(["train-sensor", "--config", cfg, "--out", str(out)]) == 0
    (model,) = models
    train_rows = 56  # 70 % of 20 observations at each of 4 SINRs
    assert len(model.training_curve) == 3
    assert [layer.w.shape for layer in model.network.layers] == [(4, 6), (6, 5), (5, 4)]
    assert (model.decision_threshold, model.input_mode) == (0.3, "band-energy")
    assert rates == [0.004]
    assert len(steps) == 3 * -(-train_rows // 7)


def test_simulate_with_no_episodes_reports_no_slots(tmp_path, capsys):
    cfg = write_config(tmp_path, episodes=0)
    out = tmp_path / "run"
    assert cli_dispatch(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with open(out / "report.json") as f:
        report = json.load(f)
    assert (report["slots"], report["mean_utility"], report["mean_ee"]) == (0, 0.0, None)
    assert (out / "ledgers.csv").read_text().count("\n") == 1  # the header only


def test_train_agent_runs_a_dqn_whose_feature_table_outgrows_the_batch(tmp_path):
    # at M = 6 the padded feature table has 68 rows, more than a default
    # batch's [batch; next states] (64), so each gradient step passes over
    # those rows instead of the table
    cfg = write_config(tmp_path, radio={"num_subchannels": 6, "num_uavs": 1},
                       sensing={"kind": "perfect"}, fusion_n=1, episodes=2)
    out = tmp_path / "run"
    assert cli_dispatch(["train-agent", "--config", cfg, "--variant", "dqn",
                         "--out", str(out)]) == 0
    with open(out / "training_dqn_1uav.csv") as f:
        assert [row["episode"] for row in csv.DictReader(f)] == ["0", "1"]
    agent = load_agent(str(out / "agent_dqn_1uav.ckpt"))
    assert agent.num_subchannels == 6 and agent.primary.output_dim == 7
