"""Byte-level goldens of the CLI: every file each subcommand writes.

One small pipeline (M=4, K=3, FFT 256) runs every subcommand in turn:
gen-dataset, train-sensor, eval-sensing (configured sensors, and the
--model override), train-agent (ddqn-soft with 2 UAVs, dqn, qtable) and
simulate with a DQN checkpoint, with a q-table checkpoint at request
probability 0.5, and with the random agent. The three UAVs use a
dense classifier on band energies, an energy threshold and the perfect
sensor. Each step pins the SHA-256 of every file it writes. A digest may
only be regenerated together with a CHANGES.md entry that names the
behaviour change.

Regenerate (prints the table below):
    PYTHONPATH=src python tests/test_cli_goldens.py
"""

import contextlib
import hashlib
import io
import json
import os

import pytest

from uavdsa.cli import cli_dispatch

BASE = {
    "seed": 7,
    "radio": {"num_subchannels": 4, "num_uavs": 3},
    "dataset": {"fft_size": 256, "sinr_grid_db": [-5, 5, 15],
                "count_per_sinr": 40, "eval_count": 25},
    "agent": {"target_update_period": 20},
    "episodes": 2,
    "slots_per_episode": 40,
}


def sensing(out_dir):
    return [
        {"kind": "dense-classifier", "input_mode": "band-energy",
         "model_path": os.path.join(out_dir, "sensor.ckpt"),
         "hidden": [16, 16], "epochs": 4, "batch_size": 16,
         "learning_rate": 0.01},
        {"kind": "energy-threshold", "input_mode": "band-energy",
         "thresholds": [30.0, 30.0, 30.0, 30.0]},
        {"kind": "perfect", "input_mode": "band-energy"},
    ]


# name -> (argv after the subcommand, agent overrides, top-level overrides,
#          files written)
STEPS = {
    "gen-dataset": (["gen-dataset"], {}, {}, ["dataset.iq"]),
    "train-sensor": (["train-sensor"], {}, {}, ["sensor.ckpt", "sensor_curve.csv"]),
    "eval-sensing": (["eval-sensing"], {}, {}, ["sensing_metrics.csv"]),
    "eval-sensing-model": (["eval-sensing", "--model", "{out}/sensor.ckpt"], {}, {},
                           ["sensing_metrics.csv"]),
    "train-ddqn-soft": (["train-agent", "--variant", "ddqn-soft", "--uavs", "2"], {}, {},
                        ["training_ddqn-soft_2uav.csv", "agent_ddqn-soft_2uav.ckpt"]),
    "train-dqn": (["train-agent", "--variant", "dqn"], {}, {},
                  ["training_dqn_1uav.csv", "agent_dqn_1uav.ckpt"]),
    "train-qtable": (["train-agent", "--variant", "qtable"], {}, {},
                     ["training_qtable_1uav.csv", "agent_qtable_1uav.ckpt"]),
    "simulate-dqn": (["simulate"],
                     {"variant": "dqn", "checkpoint": "{out}/agent_dqn_1uav.ckpt"}, {},
                     ["ledgers.csv", "report.json", "sensing_metrics.csv"]),
    "simulate-qtable": (["simulate"],
                        {"variant": "qtable",
                         "checkpoint": "{out}/agent_qtable_1uav.ckpt"},
                        {"request_probability": 0.5},
                        ["ledgers.csv", "report.json", "sensing_metrics.csv"]),
    "simulate-random": (["simulate"], {"variant": "random"}, {},
                        ["ledgers.csv", "report.json", "sensing_metrics.csv"]),
}

GOLDEN = {
    "gen-dataset": {
        "dataset.iq":
            "fabff051a38b8e06631d49da376b56b0c0b71f35890e694f52f24719c45772b8",
    },
    "train-sensor": {
        "sensor.ckpt":
            "391c6db2e52b99760875a25ae1e860e32e7b06a992f6b83d6bc169abeaeb7601",
        "sensor_curve.csv":
            "946b6fbca7bc6a072ca0531d75c2d56fa24a35d35a0f93556180d532dcf63f95",
    },
    "eval-sensing": {
        "sensing_metrics.csv":
            "89a7e8b817a95689d7a1ede2d3e0bdd20db40c0ddcaf097a8cc8841df0baaebf",
    },
    "eval-sensing-model": {
        "sensing_metrics.csv":
            "a2b7d49e64469cf061cce1e660dff386fb94c88c9f66f76a288fbbf7d4f26a94",
    },
    "train-ddqn-soft": {
        "training_ddqn-soft_2uav.csv":
            "59072e56bdbcb0b72f4a099a3bc963041f85215d146a3249568ea4c2968e406e",
        "agent_ddqn-soft_2uav.ckpt":
            "1aa30c061e638ac229f01fddff7658baacf797fcbf3dd8e69fcf0d7274c013cd",
    },
    "train-dqn": {
        "training_dqn_1uav.csv":
            "c9d2a6ea9986ce747943ce6dc674f722b52162e1f8bd42926a189027c3a1fec7",
        "agent_dqn_1uav.ckpt":
            "8bad45f6e5d3c30f438f1b287b8541031fdaae2399ebe9b659dcf944bff5586b",
    },
    "train-qtable": {
        "training_qtable_1uav.csv":
            "2126aede44b4e8faec7e9386d592a6f02c6f30527d066a0af5e0eeecf65903d8",
        "agent_qtable_1uav.ckpt":
            "26c511ae0151169dbe979a02ec7706196fb54846b108da93210855621eda8a08",
    },
    "simulate-dqn": {
        "ledgers.csv":
            "da86cb935ceef5d84f0c77fb4583ed784d4e602b0a3e5656690a57983b63b208",
        "report.json":
            "fbd91053b1f6c0ebb3037f37c35c18a70fcee17ecb70d4919f44a3757fcc9185",
        "sensing_metrics.csv":
            "06f16bec52ecb0623f738b52cc4c90591731649a798495f2d7287492d815f674",
    },
    "simulate-qtable": {
        "ledgers.csv":
            "37cc45bf4de0bd0555c9d57ab1884647128bbf3bccbf16efa77243ef37a6eb15",
        "report.json":
            "934836be15191a31633710eac625e29dfb31a1239517854b112b0c9387bb25c5",
        "sensing_metrics.csv":
            "5702bbdc9ab0365aed02a6812e16baa04aee2cbe024cda09b685736fc4037909",
    },
    "simulate-random": {
        "ledgers.csv":
            "669ed58493c7299f371ad946988720880ba3cbd75ac9e0199f6090d639a079fd",
        "report.json":
            "5c6c3fcbae69eb3cc3821d609fcf20febe67505fc767f8481cbe596dba92e5d3",
        "sensing_metrics.csv":
            "211df3b69c5cbc4cfc2339351e3e6e1f8a91355aa2cb03ef81f9a804d6284fcc",
    },
}


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_pipeline(root) -> dict[str, dict[str, str]]:
    """{step: {file: sha256}} of every step, run in order in one directory."""
    out = os.path.join(str(root), "run")
    digests = {}
    for name, (argv, agent, top, files) in STEPS.items():
        cfg = dict(BASE, sensing=sensing(out), **top)
        cfg["agent"] = dict(BASE["agent"],
                            **{k: v.format(out=out) for k, v in agent.items()})
        path = os.path.join(str(root), f"{name}.json")
        with open(path, "w") as f:
            json.dump(cfg, f)
        args = [a.format(out=out) for a in argv] + ["--config", path, "--out", out]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()) as err:
            code = cli_dispatch(args)
        if code != 0:
            raise RuntimeError(f"{name}: exit {code}: {err.getvalue()}")
        digests[name] = {f: _digest(os.path.join(out, f)) for f in files}
    return digests


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    return run_pipeline(tmp_path_factory.mktemp("cli_goldens"))


@pytest.mark.parametrize("step", list(STEPS))
def test_cli_golden(step, pipeline):
    assert pipeline[step] == GOLDEN[step]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for step, files in run_pipeline(tmp).items():
            print(f'    "{step}": {{')
            for name, digest in files.items():
                print(f'        "{name}":\n            "{digest}",')
            print("    },")
