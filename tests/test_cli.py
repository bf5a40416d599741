import csv
import json
import os

import struct

import pytest

from uavdsa.cli import cli_dispatch
from uavdsa.config import load_config
from uavdsa.scheduler import DqnAgent, load_agent, save_agent


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

    def test_runtime_failure_is_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        # train-sensor with no dataset file on disk
        assert cli_dispatch(["train-sensor", "--config", cfg,
                             "--out", str(tmp_path / "empty")]) == 2

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
        ckpt = tmp_path / "agent.ckpt"
        save_agent(DqnAgent(num_subchannels=4, variant="dqn"), str(ckpt))
        data = bytearray(ckpt.read_bytes())
        struct.pack_into("<I", data, offset, 0)
        ckpt.write_bytes(bytes(data))
        with pytest.raises(ValueError, match=f"^{ckpt}: "):
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
            assert capsys.readouterr().err.startswith("dataset: sinr_grid_db repeats a value")
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
        assert cli_dispatch(["report", "--out", str(tmp_path), str(bad)]) == 2


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
