"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers. Heavy artifacts (trained sensors and agents) are
session fixtures shared between criteria.
"""

import json
import os
import time

import numpy as np
import pytest

import exact
from uavdsa import fusion, iqsynth, nnet, sensing
from uavdsa import scheduler as sch
from uavdsa.channel import TransitionMatrix, stationary_sampler
from uavdsa.cli import cli_dispatch
from uavdsa.seeds import derive_rng

SEEDS = (101, 202, 303)


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS - {detail}")


# -------------------------------------------------------------------------
# shared fixtures


@pytest.fixture(scope="session")
def sensing_runs():
    """Per seed: dense classifier trained on the SINR-mixed split plus its
    per-SINR test metrics (M=16, 2400 observations, band-energy features)."""
    grid = (-10.0, 0.0, 10.0, 20.0)
    runs = []
    for seed in SEEDS:
        cfg = iqsynth.SynthConfig(seed=seed, num_subchannels=16,
                                  samples_per_observation=1024, sinr_grid_db=grid)
        source = stationary_sampler([TransitionMatrix(0.2, 0.3)] * 16)
        dataset = iqsynth.generate_dataset(cfg, source, count_per_sinr=600)
        spec = sensing.SensingSpec(epochs=20, input_mode="band-energy")
        model = sensing.train_classifier(dataset, spec, seed)
        per_sinr = {g: sensing.evaluate_model(model, dataset, sinr_db=g)
                    for g in grid}
        runs.append({"seed": seed, "cfg": cfg, "model": model,
                     "per_sinr": per_sinr})
    return runs


@pytest.fixture(scope="session")
def m4_runs():
    """Per seed: DDQN-soft training logs on the M=4 preset for one and two
    UAVs, plus the exact oracle per-slot utility."""
    env1 = exact.preset_scheduling_env(4, num_uavs=1)
    rewards = env1.reward_table[0]
    _, policy = exact.value_iteration(env1.matrices, rewards, 0.9)
    oracle = exact.policy_expected_utility(env1.matrices, rewards, policy)
    episodes, slots = 250, 200
    runs = []
    for seed in SEEDS:
        logs = {}
        for uavs in (1, 2):
            env = exact.preset_scheduling_env(4, num_uavs=uavs)
            agent = sch.DqnAgent(num_subchannels=4, variant="ddqn-soft", seed=seed)
            logs[uavs] = sch.train_agent(agent, env, episodes, slots, seed)
        runs.append(logs)
    return {"runs": runs, "oracle": oracle, "slots": slots}


def final_mean_utility(log, window=100):
    return float(np.mean([row[1] for row in log[-window:]]))


# -------------------------------------------------------------------------
# criteria


def test_criterion_1_fusion_oracle_equivalence():
    t0 = time.perf_counter()
    checked = 0
    for k in range(1, 5):
        for m in range(1, 5):
            for packed in range(2 ** (k * m)):
                bits = [(packed >> i) & 1 for i in range(k * m)]
                reports = [tuple(bits[u * m:(u + 1) * m]) for u in range(k)]
                stack = np.array(reports)
                for n in range(1, k + 1):
                    expected = tuple(
                        0 if sum(1 for r in reports if r[ch] == 0) >= n else 1
                        for ch in range(m))
                    assert tuple(fusion.vote(stack, n).tolist()) == expected, (k, m, packed, n)
                    checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report("criterion 1 (fusion oracle equivalence)",
           f"{checked} fused vectors match brute force in {elapsed:.1f}s")


def test_criterion_2_sensing_at_high_sinr(sensing_runs):
    precisions = [run["per_sinr"][20.0].micro_precision for run in sensing_runs]
    recalls = [run["per_sinr"][20.0].micro_recall for run in sensing_runs]
    mean_p, mean_r = float(np.mean(precisions)), float(np.mean(recalls))
    assert mean_p >= 0.90
    assert mean_r >= 0.90
    report("criterion 2 (sensing at 20 dB)",
           f"micro precision {mean_p:.3f}, micro recall {mean_r:.3f} "
           f"over {len(SEEDS)} seeds")


def test_sensing_f1_monotone_in_sinr(sensing_runs):
    # spec invariant tied to the criterion-2 runs: F1 non-decreasing in SINR
    # within a 0.03 noise band, averaged over seeds
    grid = (-10.0, 0.0, 10.0, 20.0)
    means = [float(np.mean([run["per_sinr"][g].micro_f1 for run in sensing_runs]))
             for g in grid]
    for lo, hi in zip(means, means[1:]):
        assert hi >= lo - 0.03
    report("invariant (sensing F1 monotone in SINR)",
           " -> ".join(f"{v:.3f}" for v in means))


def test_criterion_2_cli_reproduction(tmp_path):
    # the same >= 0.9 result must be reachable through the CLI pipeline
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": int(SEEDS[0]),
        "radio": {"num_subchannels": 16, "num_uavs": 3},
        "dataset": {"count_per_sinr": 600, "eval_count": 150},
        "sensing": {"kind": "perfect", "input_mode": "band-energy",
                    "epochs": 20},
    }))
    out = str(tmp_path / "run")
    assert cli_dispatch(["gen-dataset", "--config", str(cfg_path), "--out", out]) == 0
    assert cli_dispatch(["train-sensor", "--config", str(cfg_path), "--out", out]) == 0
    assert cli_dispatch(["eval-sensing", "--config", str(cfg_path), "--out", out,
                         "--model", os.path.join(out, "sensor.ckpt")]) == 0
    rows = {}
    with open(os.path.join(out, "sensing_metrics.csv")) as f:
        header = f.readline().strip().split(",")
        for line in f:
            cells = dict(zip(header, line.strip().split(",")))
            rows[(cells["uav"], cells["sinr_db"])] = cells
    reference = rows[("0", "20.0")]
    assert float(reference["precision"]) >= 0.90
    assert float(reference["recall"]) >= 0.90
    report("criterion 2 (cli reproduction at 20 dB)",
           f"eval-sensing uav 0: precision {float(reference['precision']):.3f}, "
           f"recall {float(reference['recall']):.3f}")


def test_criterion_3_fusion_benefit(sensing_runs):
    degraded_f1, fused_f1 = [], []
    strong_db, weak_db = 0.0, -10.0
    for run in sensing_runs:
        rng = derive_rng(run["seed"], 0xF3)
        source = stationary_sampler([TransitionMatrix(0.2, 0.3)] * 16)
        truths, weak_preds, fused_preds = [], [], []
        for _ in range(300):
            label = source(rng)
            truths.append(label)
            reports = []
            for sinr in (strong_db, strong_db, weak_db):
                samples = exact.capture(label, sinr, run["cfg"], rng)
                reports.append(tuple(sensing.detect(run["model"], samples).tolist()))
            weak_preds.append(reports[2])
            fused_preds.append(tuple(fusion.vote(reports, 2).tolist()))
        degraded_f1.append(sensing.micro_metrics(weak_preds, truths).micro_f1)
        fused_f1.append(sensing.micro_metrics(fused_preds, truths).micro_f1)
    mean_deg, mean_fused = float(np.mean(degraded_f1)), float(np.mean(fused_f1))
    assert mean_fused >= mean_deg + 0.05
    report("criterion 3 (fusion benefit)",
           f"fused F1 {mean_fused:.3f} vs degraded sensor {mean_deg:.3f}")


def test_criterion_4_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    worst = 0.0
    nets_checked = 0
    while nets_checked < 20:
        n_layers = int(rng.integers(1, 4))
        dims = [int(rng.integers(2, 65)) for _ in range(n_layers + 1)]
        acts = ["relu"] * (n_layers - 1) + ["identity"]
        net = nnet.build_network(dims, acts, seed=int(rng.integers(10 ** 9)))
        x = rng.normal(size=dims[0])
        pre, _ = nnet.forward_trace(net, x)
        # skip configurations with a pre-activation near a ReLU kink, where
        # central differences straddle the nondifferentiability
        if any(np.abs(p).min() < 1e-2 for p in pre[:-1]):
            continue
        target = rng.normal(size=dims[-1])
        worst = max(worst, exact.gradient_check(net, x, target, exact.MSE, eps=1e-3))
        nets_checked += 1
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-4
    assert elapsed < 60.0
    report("criterion 4 (gradient correctness)",
           f"max relative error {worst:.2e} over 20 nets in {elapsed:.1f}s")


def test_criterion_5_tabular_q_vs_oracle():
    t0 = time.perf_counter()
    env = exact.preset_scheduling_env(2)
    rewards = env.reward_table[0]
    v_star, policy_star = exact.value_iteration(env.matrices, rewards, 0.9)
    agent = sch.QTable(num_subchannels=2, gamma=0.9, alpha=None,
                       epsilon0=1.0, epsilon_min=1.0)  # exploratory, off-policy
    sch.train_agent(agent, env, episodes=1, slots_per_episode=10 ** 5, seed=SEEDS[0])
    worst_rel = 0.0
    states_checked = 0
    for s in range(4):
        if agent.visits[s].sum() < 100:
            continue
        states_checked += 1
        valid = sch.valid_actions(s, 2)
        row = agent.table[s]
        greedy = max(valid, key=lambda a: (row[a], -a))
        assert greedy == policy_star[s], f"state {s}"
        rel = abs(row[list(valid)].max() - v_star[s]) / v_star[s]
        worst_rel = max(worst_rel, rel)
    elapsed = time.perf_counter() - t0
    assert states_checked == 4
    assert worst_rel <= 0.05
    assert elapsed < 60.0
    report("criterion 5 (tabular Q vs oracle)",
           f"policy exact on {states_checked} states, worst value error "
           f"{worst_rel:.3f} in {elapsed:.1f}s")


def test_criterion_6_ddqn_soft_near_optimality(m4_runs):
    oracle_per_episode = m4_runs["oracle"] * m4_runs["slots"]
    ratios = [final_mean_utility(run[1]) / oracle_per_episode
              for run in m4_runs["runs"]]
    passing = sum(1 for r in ratios if r >= 0.9)
    assert passing >= 2, ratios
    report("criterion 6 (ddqn-soft near-optimality)",
           f"final-100 utility ratios {[f'{r:.3f}' for r in ratios]} "
           f"vs oracle, {passing}/3 seeds >= 0.9")


def test_criterion_7_two_uav_scaling(m4_runs):
    ratios = [final_mean_utility(run[2]) / final_mean_utility(run[1])
              for run in m4_runs["runs"]]
    mean_ratio = float(np.mean(ratios))
    assert 1.0 < mean_ratio < 2.0, ratios
    report("criterion 7 (two-uav scaling)",
           f"U2/U1 = {mean_ratio:.3f} (per-seed {[f'{r:.2f}' for r in ratios]})")


def test_criterion_8_constraint_safety(tmp_path):
    from uavdsa.config import validate_config
    from uavdsa.simulate import run_simulation

    episodes, slots = 100, 1000
    cfg = validate_config({
        "seed": 808,
        "radio": {"num_subchannels": 4, "num_uavs": 3},
        "dataset": {"fft_size": 256},
        "sensing": {"kind": "energy-threshold",
                    "thresholds": [8.0, 8.0, 8.0, 8.0]},
        "agent": {"variant": "random"},
        "episodes": episodes,
        "slots_per_episode": slots,
    })
    t0 = time.perf_counter()
    run = run_simulation(cfg)
    elapsed = time.perf_counter() - t0
    assert run.slots == episodes * slots

    # external audit of every executed assignment against the fused vector
    # it targeted (the previous slot's prediction inside the same episode)
    violations = 0
    for i, led in enumerate(run.ledgers):
        pairs = sorted(led.assignment.pairs)
        uavs = [u for u, _ in pairs]
        chans = [c for _, c in pairs]
        if len(set(uavs)) != len(uavs) or len(set(chans)) != len(chans):
            violations += 1
        if i % slots == 0:
            if pairs:  # first slot of an episode has nothing allocated yet
                violations += 1
            continue
        if len(pairs) > run.ledgers[i - 1].holes_detected:
            violations += 1  # hole budget of the targeted prediction
        if any(r == 0 for r in led.collision.values()):
            violations += 1  # transmitted on a channel predicted busy
    assert violations == 0
    assert run.transmissions > 10 ** 4
    report("criterion 8 (constraint safety)",
           f"{run.slots} slots, {run.transmissions} transmissions, "
           f"0 violations in {elapsed:.0f}s")


def test_criterion_9_determinism(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 909,
        "radio": {"num_subchannels": 4, "num_uavs": 3},
        "dataset": {"fft_size": 256, "count_per_sinr": 40, "eval_count": 25},
        "sensing": {"kind": "energy-threshold",
                    "thresholds": [8.0, 8.0, 8.0, 8.0],
                    "input_mode": "band-energy", "epochs": 4},
        "agent": {"variant": "ddqn-soft"},
        "episodes": 3,
        "slots_per_episode": 40,
    }))

    def run_all(out):
        assert cli_dispatch(["gen-dataset", "--config", str(cfg_path), "--out", out]) == 0
        assert cli_dispatch(["train-sensor", "--config", str(cfg_path), "--out", out]) == 0
        assert cli_dispatch(["eval-sensing", "--config", str(cfg_path), "--out", out,
                             "--model", os.path.join(out, "sensor.ckpt")]) == 0
        assert cli_dispatch(["train-agent", "--config", str(cfg_path), "--out", out,
                             "--variant", "ddqn-soft", "--uavs", "1"]) == 0
        assert cli_dispatch(["simulate", "--config", str(cfg_path), "--out", out]) == 0
        assert cli_dispatch(["report", "--out", out,
                             os.path.join(out, "training_ddqn-soft_1uav.csv")]) == 0

    trees = []
    for name in ("first", "second"):
        out = str(tmp_path / name)
        run_all(out)
        tree = {}
        for dirpath, _dirs, files in os.walk(out):
            for fname in files:
                p = os.path.join(dirpath, fname)
                with open(p, "rb") as f:
                    tree[os.path.relpath(p, out)] = f.read()
        trees.append(tree)
    assert sorted(trees[0]) == sorted(trees[1])
    diff = [name for name in trees[0] if trees[0][name] != trees[1][name]]
    assert not diff, diff
    report("criterion 9 (determinism)",
           f"{len(trees[0])} output files byte-identical across reruns "
           f"of all six subcommands")


def test_criterion_10_sizing_check():
    states, actions = sch.table_shape(16)
    assert (states, actions) == (65537, 17)
    with pytest.raises(sch.TabularComplexityError):
        sch.QTable(num_subchannels=16)
    report("criterion 10 (sizing check)",
           f"state space {states}, action space {actions}, "
           f"tabular construction at M=16 refused")


def test_criterion_11_convergence_ordering_report(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({
        "seed": 1111,
        "radio": {"num_subchannels": 4, "num_uavs": 1},
        "link": {"sensing_sinr_db": [10.0],
                 "access_sinr_db": [[20.0, 12.0, 6.0, 0.0]]},
        "fusion_n": 1,
        "episodes": 120,
        "slots_per_episode": 100,
    }))
    out = str(tmp_path / "curves")
    logs = []
    for variant in ("dqn", "ddqn", "ddqn-soft"):
        assert cli_dispatch(["train-agent", "--config", str(cfg_path),
                             "--out", out, "--variant", variant]) == 0
        logs.append(os.path.join(out, f"training_{variant}_1uav.csv"))
    assert cli_dispatch(["report", "--out", out] + logs) == 0

    with open(os.path.join(out, "comparison.csv")) as f:
        lines = f.read().splitlines()
    sources = {line.split(",")[0] for line in lines[1:]}
    assert sources == {"training_dqn_1uav", "training_ddqn_1uav",
                       "training_ddqn-soft_1uav"}
    assert len(lines) == 1 + 3 * 120
    # report-only: no ordering threshold is asserted
    report("criterion 11 (convergence-ordering report)",
           f"overlaid curves for 3 variants x 120 episodes in comparison.csv")
