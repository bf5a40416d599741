"""Byte-level goldens of the learner: training logs and checkpoints.

Each case trains one agent on the M=4 preset environment and pins the
SHA-256 of the `write_training_csv` output and of the saved checkpoint.
A digest may only be regenerated together with a CHANGES.md entry that
names the behaviour change.

Regenerate (prints the table below):
    PYTHONPATH=src python tests/test_learner_goldens.py
"""

import hashlib

import pytest

import exact
from uavdsa import scheduler as sch

EPISODES, SLOTS, SEED = 3, 60, 11

# name -> (variant, uavs, extra agent keywords)
CASES = {
    "qtable_1uav": ("qtable", 1, {}),
    "qtable_2uav": ("qtable", 2, {}),
    # 149 gradient steps reach a period of 25 five times
    "dqn_1uav": ("dqn", 1, {"target_update_period": 25}),
    # 329 gradient steps reach the default period of 100 three times
    "dqn_2uav": ("dqn", 2, {}),
    "ddqn_1uav": ("ddqn", 1, {}),
    "ddqn_2uav": ("ddqn", 2, {}),
    "ddqn-soft_1uav": ("ddqn-soft", 1, {}),
    "ddqn-soft_2uav": ("ddqn-soft", 2, {}),
    # 360 observe calls into 64 replay slots: the buffer wraps five times
    "ddqn-soft_2uav_wrap": ("ddqn-soft", 2, {"replay_capacity": 64}),
}

GOLDEN = {
    "qtable_1uav": (
        "3010dacd23e05f0b31edd9efcca21812f61d56398c1c1299b864f58ebfeca49b",
        "3021cb3cbe9ceb0244d0f0af93c846f43f3bcbd362e435ff0475dd5c7a5df07c"),
    "qtable_2uav": (
        "12301a0db93d351c4dc9f50399a1f35c10366d527dd912fde40ba336c9d5d60a",
        "d52e551990f515203548d06ba474db11de724c904ad61632796e97c15e7c29f8"),
    "dqn_1uav": (
        "b7c0bc92576765443e809fcb37d589821a291796249a623fe50425224c6ee8c8",
        "0064f64364bb2a104127b76aadffef4aa5ff156c44bd2930a23ce97e2c37c1d0"),
    "dqn_2uav": (
        "46867ca4aa02831bb71cc0ba78730c1c11aa2c0ae9f59294e77628dfdac69589",
        "2769cbab4028b831d2f05241d606d7821c050f2abf03360e89fba4f1510b6f33"),
    "ddqn_1uav": (
        "f0637801e345a70d0f1401c7c66d7f0489e5f886ecfe8fee5a35ba7e55cb9c66",
        "509ed47978195effd40347a3847b8c425aa888519d6466dd87ae14cb1285e548"),
    "ddqn_2uav": (
        "a6ec18451ee412a458dfb71c340e6cda7b8ac1f7e4962dded9b9a21a1ca83e99",
        "b1fd1cfa44483d5763f66d88987eb6baa5a43015162df11f829dcf059f8f4e7d"),
    "ddqn-soft_1uav": (
        "240efb623428a89eff8e1383cf18859be6eb9b5ca065bef787d9d83b76296920",
        "daaa16f48594855f8082b5ec1a1033607ff6cb34a3e280b66fd4c19aba20f1a1"),
    "ddqn-soft_2uav": (
        "36ae9e51e25e5ce22d2b77bb5dd559be441a0ae0a642a662c15e6ab0e26fd36d",
        "4e8a2404ed287b54ac0812f527d574cd371f063e0a6c7c2a6353ad510e4ca58d"),
    "ddqn-soft_2uav_wrap": (
        "a5654d454d76fcffd289c6cbf1bcd74fa3e89dac436aee733cb71251a68a088a",
        "bff62047e2ee8c2a81493aa1dd1f59754b996b89248153f80a3d933c56c7b014"),
}


def _digest(path) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def run_case(name: str, out_dir) -> tuple[str, str]:
    """(training CSV digest, checkpoint digest) of one case."""
    variant, uavs, extra = CASES[name]
    env = exact.preset_scheduling_env(4, num_uavs=uavs)
    if variant == "qtable":
        agent = sch.QTable(num_subchannels=4, gamma=0.9)
    else:
        agent = sch.DqnAgent(num_subchannels=4, variant=variant, seed=SEED, **extra)
    log = sch.train_agent(agent, env, EPISODES, SLOTS, SEED)
    csv_path = f"{out_dir}/training_{name}.csv"
    ckpt_path = f"{out_dir}/agent_{name}.ckpt"
    sch.write_training_csv(csv_path, log)
    sch.save_agent(agent, ckpt_path)
    return _digest(csv_path), _digest(ckpt_path)


@pytest.mark.parametrize("name", sorted(CASES))
def test_learner_golden(name, tmp_path):
    assert run_case(name, tmp_path) == GOLDEN[name]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for case in CASES:
            csv_digest, ckpt_digest = run_case(case, tmp)
            print(f'    "{case}": (\n        "{csv_digest}",\n        "{ckpt_digest}"),')
