"""Byte-level goldens of the CLI: every file each subcommand writes.

One small pipeline (M=4, K=3, FFT 256) runs every subcommand in turn:
gen-dataset, train-sensor, eval-sensing (configured sensors, and the
--model override), train-agent (ddqn-soft with 2 UAVs, dqn, qtable) and
simulate with a DQN checkpoint, with a q-table checkpoint at request
probability 0.5, and with the random agent, then train-sensor once more
with the classifier on raw I/Q. The three UAVs use a dense classifier on
band energies, an energy threshold and the perfect sensor. Each step pins the SHA-256 of every file it writes. A digest may
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


def sensing(out_dir, **classifier):
    return [
        {"kind": "dense-classifier", "input_mode": "band-energy",
         "model_path": os.path.join(out_dir, "sensor.ckpt"),
         "hidden": [16, 16], "epochs": 4, "batch_size": 16,
         "learning_rate": 0.01, **classifier},
        {"kind": "energy-threshold", "input_mode": "band-energy",
         "thresholds": [30.0, 30.0, 30.0, 30.0]},
        {"kind": "perfect", "input_mode": "band-energy"},
    ]


# name -> (argv after the subcommand, agent overrides, top-level overrides
#          (a "sensing" entry overrides the classifier's keys), files written)
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
    "train-sensor-iq": (["train-sensor"], {}, {"sensing": {"input_mode": "iq"}},
                        ["sensor.ckpt", "sensor_curve.csv"]),
}

GOLDEN = {
    "gen-dataset": {
        "dataset.iq":
            "a8bfd4b045e7b19d24bfaf0139b4923a2233cf113457abe0b0901fda52364a30",
    },
    "train-sensor": {
        "sensor.ckpt":
            "531b60f7bfbe07f4c0a3b3d7cdb6a0c898c9b3ea35ec19ed6799b2699e20f4b7",
        "sensor_curve.csv":
            "ed495111e6867551740ec8de7da66af83f7923eeb68f50d65fa4011d910ce620",
    },
    "eval-sensing": {
        "sensing_metrics.csv":
            "e8b727ace3013c07412b63295861d1c875a8dc0fc4b2450f6cd977bea9e6528a",
    },
    "eval-sensing-model": {
        "sensing_metrics.csv":
            "0ba08310791f7cff810d0a177946db1c26528f76d967bd3ed99128efe0163d82",
    },
    "train-ddqn-soft": {
        "training_ddqn-soft_2uav.csv":
            "59072e56bdbcb0b72f4a099a3bc963041f85215d146a3249568ea4c2968e406e",
        "agent_ddqn-soft_2uav.ckpt":
            "1aa30c061e638ac229f01fddff7658baacf797fcbf3dd8e69fcf0d7274c013cd",
    },
    "train-dqn": {
        "training_dqn_1uav.csv":
            "864f6bb5294811e78d050e41b258ae8ce6bb2ef256118298bc2d8756deb9db7b",
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
            "5c4c791f747da6c56259d3233faaf3310b0eabd1fa9f54a3fef8e0a9fce3e8a2",
        "report.json":
            "625305805f3874451cc7e7599862e26043deb77b21cbc949b6f0222f6f23cc4e",
        "sensing_metrics.csv":
            "fe7d6593a03908c752a9dbf712e406f9e655e2cfbce5b6ae510ef364c75c8224",
    },
    "simulate-qtable": {
        "ledgers.csv":
            "3c4a3e47bb11b8c41dfafad0ece3b641fe651b5d6d22fc86093fb041f069e488",
        "report.json":
            "9ecb1d0b7fc06b2e77837aa51401ccc2ddc6cd959fb6c25dd3457f2d4e8244c5",
        "sensing_metrics.csv":
            "fe7d6593a03908c752a9dbf712e406f9e655e2cfbce5b6ae510ef364c75c8224",
    },
    "simulate-random": {
        "ledgers.csv":
            "7f7e578cbb3c40c160de0a39b487c8b3e838ea3965a6fbf352a19eba3468a179",
        "report.json":
            "c01bdbc9637b7b6019a1839e7037ea433566fe7bb97e10ce12b70977bca94c6b",
        "sensing_metrics.csv":
            "fe7d6593a03908c752a9dbf712e406f9e655e2cfbce5b6ae510ef364c75c8224",
    },
    "train-sensor-iq": {
        "sensor.ckpt":
            "dc8b4a28e57f936ba7b65235b72396407ef6d2b464a4aaaaad4395a34898d623",
        "sensor_curve.csv":
            "deda5bd4e65a20e3afff6f18ef5314162c6cc5d4ca78b79df3628c9c818df7cf",
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
        cfg = dict(BASE, **top)
        cfg["sensing"] = sensing(out, **top.get("sensing", {}))
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
