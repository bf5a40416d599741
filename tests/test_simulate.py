import argparse
import dataclasses
import json

import numpy as np
import pytest

import exact
from test_iqsynth import bits, reference_energy_draws, reference_spectra
from uavdsa import iqsynth, nnet, sensing, simulate
from uavdsa import scheduler as sch
from uavdsa.channel import TransitionMatrix, db_to_linear, sample_occupancy
from uavdsa.config import validate_config
from uavdsa.core import slot_utility, throughput
from uavdsa.seeds import derive_rng

GRID = (-10.0, 0.0, 10.0, 20.0)  # an SINR grid: the config's default dataset.sinr_grid_db


def config_dict(**overrides):
    base = {
        "seed": 11,
        "radio": {"num_subchannels": 4, "num_uavs": 3},
        "dataset": {"fft_size": 256, "count_per_sinr": 20},
        "sensing": {"kind": "perfect"},
        "agent": {"variant": "random"},
        "episodes": 2,
        "slots_per_episode": 40,
    }
    base.update(overrides)
    return base


class TestRunSlot:
    def test_no_requests_still_charges_sensing(self):
        cfg = validate_config(config_dict(request_probability=0.0, episodes=1,
                                          slots_per_episode=10))
        report = simulate.run_simulation(cfg)
        assert report.transmissions == 0
        assert report.mean_utility == 0.0
        for led in report.ledgers:
            assert not led.assignment.pairs
            assert led.energy_efficiency == 0.0  # defined: sensing was charged

    def test_slot_without_energy_records_nan_ee(self, tmp_path):
        cfg = validate_config(config_dict(request_probability=0.0, episodes=1,
                                          slots_per_episode=10,
                                          timing={"t_s": 0.0}))
        report = simulate.run_simulation(cfg)
        assert all(np.isnan(led.energy_efficiency) for led in report.ledgers)
        simulate.save_report(report, cfg, str(tmp_path))  # the audit accepts NaN

    def test_ledger_utility_recomputes_from_own_fields(self):
        cfg = validate_config(config_dict())
        report = simulate.run_simulation(cfg)
        bits = [[throughput(cfg.timing, cfg.radio, db_to_linear(sinr)) for sinr in row]
                for row in cfg.link.access_sinr_db]
        for led in report.ledgers:
            pairs = [(led.collision[uav, ch], bits[uav][ch - 1])
                     for uav, ch in sorted(led.collision)]
            assert slot_utility(pairs) == led.utility

    def test_holes_fields_consistent(self):
        cfg = validate_config(config_dict())
        report = simulate.run_simulation(cfg)
        m = cfg.radio.num_subchannels
        assert len(report.ledgers) == report.slots == 80
        for led in report.ledgers:
            assert 0 <= led.holes_detected <= m
            assert 0 <= led.holes_true <= m
            # perfect sensing with majority fusion recovers the truth
            assert led.holes_detected == led.holes_true

    def test_zero_collisions_on_static_vacant_channels(self, tmp_path):
        # train an agent quickly, then simulate on always-vacant channels
        env = sch.SchedulingEnv(
            [sch.TransitionMatrix(0.0, 1.0) for _ in range(2)], [[1.0, 0.5]])
        agent = sch.DqnAgent(num_subchannels=2, variant="ddqn-soft",
                             hidden=(16,), seed=0)
        sch.train_agent(agent, env, episodes=30, slots_per_episode=40, seed=2)
        ckpt = str(tmp_path / "agent.ckpt")
        sch.save_agent(agent, ckpt)

        cfg = validate_config(config_dict(
            radio={"num_subchannels": 2, "num_uavs": 2},
            channels={"p01": 0.0, "p10": 1.0},
            agent={"variant": "ddqn-soft", "checkpoint": ckpt},
            episodes=3, slots_per_episode=50))
        report = simulate.run_simulation(cfg)
        assert report.transmissions > 0
        assert report.collisions == 0
        assert report.collision_rate == 0.0


class TestRunSimulation:
    def test_deterministic_reports(self):
        cfg = validate_config(config_dict())
        r1 = simulate.run_simulation(cfg)
        r2 = simulate.run_simulation(cfg)
        assert r1.mean_utility == r2.mean_utility
        assert r1.collision_rate == r2.collision_rate
        assert r1.sensing_counts == r2.sensing_counts

    def test_zero_episodes_yields_valid_empty_report(self, tmp_path):
        cfg = validate_config(config_dict(episodes=0))
        report = simulate.run_simulation(cfg)
        assert report.slots == 0
        simulate.save_report(report, cfg, str(tmp_path))
        with open(tmp_path / "report.json") as f:
            payload = json.load(f)
        assert payload["slots"] == 0
        assert payload["mean_ee"] is None

    def test_trained_beats_random_allocator(self, tmp_path):
        env = exact.preset_scheduling_env(4)
        agent = sch.DqnAgent(num_subchannels=4, variant="ddqn-soft", seed=0)
        sch.train_agent(agent, env, episodes=120, slots_per_episode=100, seed=4)
        ckpt = str(tmp_path / "m4.ckpt")
        sch.save_agent(agent, ckpt)

        base = dict(
            radio={"num_subchannels": 4, "num_uavs": 1},
            link={"sensing_sinr_db": [10.0],
                  "access_sinr_db": [[20.0, 12.0, 6.0, 0.0]]},
            fusion_n=1,
            sensing={"kind": "perfect"},
            episodes=200, slots_per_episode=50)
        trained_cfg = validate_config(config_dict(
            agent={"variant": "ddqn-soft", "checkpoint": ckpt}, **base))
        random_cfg = validate_config(config_dict(agent={"variant": "random"}, **base))
        trained = simulate.run_simulation(trained_cfg)
        randomized = simulate.run_simulation(random_cfg)
        assert trained.mean_utility >= 1.5 * randomized.mean_utility


class TestSaveReport:
    def test_outputs_exist_and_audit_passes(self, tmp_path):
        cfg = validate_config(config_dict())
        report = simulate.run_simulation(cfg)
        simulate.save_report(report, cfg, str(tmp_path))
        for name in ("ledgers.csv", "report.json", "sensing_metrics.csv"):
            assert (tmp_path / name).exists()
        with open(tmp_path / "report.json") as f:
            payload = json.load(f)
        assert payload["slots"] == report.slots
        assert set(payload["sensing"]) == {"uav_0", "uav_1", "uav_2", "fused"}

    def test_audit_catches_tampering(self, tmp_path):
        cfg = validate_config(config_dict())
        report = simulate.run_simulation(cfg)
        report.mean_utility += 1.0
        with pytest.raises(RuntimeError, match="audit|match"):
            simulate.save_report(report, cfg, str(tmp_path))

    @pytest.mark.parametrize("score", ["utility", "energy_efficiency"])
    def test_audit_rescores_every_slot(self, score, tmp_path):
        cfg = validate_config(config_dict())
        report = simulate.run_simulation(cfg)
        slot = next(led.slot for led in report.ledgers if led.collision)
        getattr(report, score)[slot] += 1.0  # the ledger columns, which views read
        with pytest.raises(RuntimeError, match=f"slot {slot}: "):
            simulate.save_report(report, cfg, str(tmp_path))
        assert not (tmp_path / "ledgers.csv").exists()

    @pytest.mark.parametrize("score,change", [("utility", 1.0), ("energy_efficiency", 1.0),
                                              ("energy_efficiency", np.nan)],
                             ids=["utility", "ee", "ee-nan"])
    def test_audit_checks_every_slot_of_a_pattern(self, score, change, tmp_path):
        """A slot whose (channels, collision) rows repeat an earlier slot's is
        checked too, not only the first slot of its pattern."""
        cfg = validate_config(config_dict())
        report = simulate.run_simulation(cfg)
        slots = {}
        for slot, (channels, collision) in enumerate(zip(report.channels.tolist(),
                                                          report.collision.tolist())):
            if any(channels):
                slots.setdefault((tuple(channels), tuple(collision)), []).append(slot)
        repeated = max(slots.values(), key=len)
        assert len(repeated) > 2
        getattr(report, score)[repeated[-1]] += change
        with pytest.raises(RuntimeError, match=f"slot {repeated[-1]}: "):
            simulate.save_report(report, cfg, str(tmp_path))
        assert not (tmp_path / "ledgers.csv").exists()

    def test_audit_refuses_a_number_for_an_undefined_ee(self, tmp_path):
        cfg = validate_config(config_dict(request_probability=0.0, episodes=1,
                                          slots_per_episode=10, timing={"t_s": 0.0}))
        report = simulate.run_simulation(cfg)
        report.energy_efficiency[-1] = 0.0  # every slot has the one pattern: no pairs
        with pytest.raises(RuntimeError, match="slot 9: "):
            simulate.save_report(report, cfg, str(tmp_path))

    def test_ledger_csv_formats_every_float_as_its_repr(self, tmp_path):
        """A report built by hand, audited: utilities 0.0, -0.0 (equal to the
        0.0 its slot scores), repeated and distinct values; EEs NaN (no
        energy spent), a negative NaN, 0.0 and -0.0. Each cell is the
        repr of its own value."""
        cfg = validate_config(config_dict(
            radio={"num_subchannels": 2, "num_uavs": 1}, timing={"t_s": 0.0},
            link={"sensing_sinr_db": [10.0], "access_sinr_db": [[20.0, 5.0]]}))
        table, ac, _ = simulate.score_table(cfg)
        bits = table[0].tolist()
        # (channel, collision indicator, recorded utility, recorded EE) per slot
        slots = [(0, 0, 0.0, np.nan), (1, 1, bits[0], bits[0] / ac), (0, 0, -0.0, -np.nan),
                 (2, -1, -bits[1], -bits[1] / ac), (1, 0, 0.0, 0.0), (1, 0, -0.0, -0.0),
                 (1, 1, bits[0], bits[0] / ac), (2, 1, bits[1], bits[1] / ac),
                 (0, 0, 0.0, np.nan)]
        channels, collision, utility, ee = (np.array(column) for column in zip(*slots))
        channels, collision = channels[:, None], collision[:, None].astype(np.int8)
        holes = np.arange(len(slots)) % 3
        report = simulate.RunReport(
            channels, collision, utility, ee, holes, 2 - holes,
            *simulate.recompute_aggregates(channels, collision, utility, ee),
            sensing_counts={"uav_0": (0, 0, 0, 0), "fused": (0, 0, 0, 0)}, seed=cfg.seed)
        simulate.save_report(report, cfg, str(tmp_path))
        want = "slot,utility,ee,collisions,holes_detected,holes_true\n" + "".join(
            f"{slot},{u!r},{e!r},{int(r == -1)},{h},{2 - h}\n"
            for slot, ((_, r, u, e), h) in enumerate(zip(slots, holes.tolist())))
        assert (tmp_path / "ledgers.csv").read_bytes() == want.encode()

    def test_ledger_csv_row_count(self, tmp_path):
        cfg = validate_config(config_dict(episodes=2, slots_per_episode=15))
        report = simulate.run_simulation(cfg)
        simulate.save_report(report, cfg, str(tmp_path))
        lines = (tmp_path / "ledgers.csv").read_text().strip().splitlines()
        assert len(lines) == 1 + 30


class TestSensingKindsInSimulation:
    def test_energy_threshold_path(self):
        cfg = validate_config(config_dict(
            sensing={"kind": "energy-threshold",
                     "thresholds": [10.0, 10.0, 10.0, 10.0]},
            episodes=1, slots_per_episode=20))
        report = simulate.run_simulation(cfg)
        counts = report.sensing_counts["uav_0"]
        assert sum(counts) == 20 * 4

    def test_fused_at_least_tallied(self):
        cfg = validate_config(config_dict(episodes=1, slots_per_episode=10))
        report = simulate.run_simulation(cfg)
        assert sum(report.sensing_counts["fused"]) == 10 * 4


@pytest.mark.parametrize("m,n", [(4, 256), (5, 64)])
def test_sense_matches_per_capture_reports(m, n):
    """A block sensing pass reports, and draws, exactly what the documented
    block order gives: the energy detectors' band energies of every label,
    drawn from their exact law on the chi-square and normal streams, then
    one spectra draw per label on the spectra stream, each classifier
    seeing the inverse transform of its own row."""
    synth = iqsynth.SynthConfig(seed=3, num_subchannels=m, samples_per_observation=n,
                                subcarriers_per_subchannel=n // m, sinr_grid_db=GRID)
    network = nnet.build_network([m, 8, m], ["relu", "sigmoid"], seed=5)
    energy = sensing.SensingModel(kind="energy-threshold", num_subchannels=m,
                                  thresholds=np.full(m, 1.2 * n / m))
    classifier = sensing.SensingModel(kind="dense-classifier", num_subchannels=m,
                                      network=network, input_mode="band-energy")
    models = [energy, None, classifier, energy, classifier]
    sinrs = [0.0, 20.0, -3.0, 5.0, 10.0]
    energy_rows = [k for k, model in enumerate(models) if model is energy]
    classifier_rows = [k for k, model in enumerate(models) if model is classifier]
    streams = simulate.sensing_streams(9, simulate.SIMULATE_KEY)
    ref_central, ref_shift, ref_spectra = simulate.sensing_streams(9, simulate.SIMULATE_KEY)
    labels_rng = derive_rng(9)
    seen = set()
    for size in (1, 5, 17, 1, 3):
        labels = [tuple(int(b) for b in labels_rng.random(m) < 0.5) for _ in range(size)]
        got = simulate.sense(models, labels, sinrs, synth, streams)
        assert got.shape == (size, len(models), m)
        for label, reports in zip(labels, got.tolist()):
            want = [list(label)] * len(models)
            energies = reference_energy_draws(label, [sinrs[k] for k in energy_rows],
                                              synth, ref_central, ref_shift)
            for k, row in zip(energy_rows, energies):
                want[k] = [int(e >= t) for e, t in zip(row, energy.thresholds)]
            spectra = reference_spectra(label, [sinrs[k] for k in classifier_rows], synth,
                                        ref_spectra)
            for k, spectrum in zip(classifier_rows, spectra):
                want[k] = sensing.detect(models[k], np.fft.ifft(spectrum, norm="ortho")).tolist()
            assert reports == want
            seen.update(tuple(want[k]) for k in energy_rows + classifier_rows)
        for stream, ref_stream in zip(streams, (ref_central, ref_shift, ref_spectra)):
            assert stream.bit_generator.state == ref_stream.bit_generator.state
    assert len(seen) > 2  # the detectors did not all report one constant vector



# (M, N, layer widths, input mode): the benchmark's sensor-pipeline
# classifier and the CLI goldens' band-energy classifier
SHARED_NETWORKS = [(16, 1024, [2048, 128, 128, 16], "iq"),
                   (4, 256, [4, 16, 16, 4], "band-energy")]


@pytest.mark.parametrize("m,n,dims,mode", SHARED_NETWORKS, ids=["iq", "band-energy"])
def test_classifiers_sharing_a_network_run_one_forward(m, n, dims, mode, monkeypatch):
    """Three UAVs sharing one network report, bit for bit, what a detect
    call per UAV on its own column of the block's captures reports, each
    against its own decision threshold, from one forward pass over the
    T x G rows; its outputs equal those of one forward per UAV. An energy
    detector between them keeps its own draws. An empty block reports
    nothing and draws nothing."""
    synth = iqsynth.SynthConfig(seed=3, num_subchannels=m, samples_per_observation=n,
                                subcarriers_per_subchannel=n // m, sinr_grid_db=GRID)
    network = nnet.build_network(dims, ["relu"] * (len(dims) - 2) + ["sigmoid"], seed=5)
    shared = [sensing.SensingModel(kind="dense-classifier", num_subchannels=m,
                                   network=network, input_mode=mode,
                                   decision_threshold=threshold)
              for threshold in (0.45, 0.5, 0.55)]
    energy = sensing.SensingModel(kind="energy-threshold", num_subchannels=m,
                                  thresholds=np.full(m, 1.2 * n / m))
    models = [shared[0], energy, shared[1], shared[2]]
    sinrs = [0.0, 5.0, 10.0, -3.0]
    labels = sample_occupancy([TransitionMatrix(0.3, 0.3)] * m, 10, derive_rng(4))
    streams = simulate.sensing_streams(9, simulate.SIMULATE_KEY)
    _, _, ref_spectra = simulate.sensing_streams(9, simulate.SIMULATE_KEY)
    forwards, forward = [], nnet.forward
    monkeypatch.setattr(nnet, "forward",
                        lambda net, x: forwards.append(x.shape) or forward(net, x))
    got = simulate.sense(models, labels, sinrs, synth, streams)
    assert forwards == [(10 * 3, dims[0])]
    captures = np.fft.ifft(iqsynth.synthesize_block(
        labels, [sinrs[k] for k in (0, 2, 3)], synth, [ref_spectra] * 10), norm="ortho")
    outputs = sensing.classify(shared[0], captures)
    for j, k in enumerate((0, 2, 3)):
        assert np.array_equal(got[:, k], sensing.detect(models[k], captures[:, j]))
        assert np.array_equal(bits(outputs[:, j]),
                              bits(sensing.classify(models[k], captures[:, j])))
    assert not np.array_equal(got[:, 0], got[:, 3])  # the thresholds told them apart
    assert streams[2].bit_generator.state == ref_spectra.bit_generator.state

    states = [stream.bit_generator.state for stream in streams]
    empty = simulate.sense(models, np.zeros((0, m), np.int8), sinrs, synth, streams)
    assert empty.shape == (0, 4, m)
    assert [stream.bit_generator.state for stream in streams] == states


def test_each_model_path_is_loaded_once(tmp_path, monkeypatch):
    """A simulation loads each distinct classifier path once, and the UAVs
    that name it share its network."""
    net = nnet.build_network([4, 8, 4], ["relu", "sigmoid"], seed=1)
    paths = [str(tmp_path / name) for name in ("a.ckpt", "b.ckpt")]
    for path in paths:
        nnet.save_checkpoint(net, path)
    loads = []
    load = nnet.load_checkpoint
    monkeypatch.setattr(nnet, "load_checkpoint", lambda path: loads.append(path) or load(path))
    cfg = validate_config(config_dict(
        sensing=[{"kind": "dense-classifier", "input_mode": "band-energy", "model_path": path,
                  "decision_threshold": threshold}
                 for path, threshold in ((paths[0], 0.5), (paths[1], 0.5), (paths[0], 0.3))],
        episodes=1, slots_per_episode=5))
    sim = simulate.Simulation(cfg)
    assert loads == paths
    assert sim.models[0].network is sim.models[2].network is not sim.models[1].network
    assert [model.decision_threshold for model in sim.models] == [0.5, 0.5, 0.3]

def golden_like_config(tmp_path):
    """The CLI goldens' pipeline geometry, all three sensor kinds, with a
    classifier trained briefly on a small dataset, and an energy detector
    at 0 dB whose threshold lies between the vacant and busy mean band
    energies (64 and 128), so that its reports depend on every draw."""
    from uavdsa.channel import TransitionMatrix, stationary_sampler
    synth = iqsynth.SynthConfig(seed=7, num_subchannels=4, samples_per_observation=256,
                                subcarriers_per_subchannel=64, sinr_grid_db=(-5.0, 5.0, 15.0))
    data = iqsynth.generate_dataset(
        synth, stationary_sampler([TransitionMatrix(0.2, 0.3)] * 4), 30)
    model = sensing.train_classifier(data, sensing.SensingSpec(
        hidden=(16,), epochs=3, input_mode="band-energy"), 7)
    ckpt = str(tmp_path / "sensor.ckpt")
    nnet.save_checkpoint(model.network, ckpt)
    return validate_config(config_dict(
        dataset={"fft_size": 256, "sinr_grid_db": [-5, 5, 15], "eval_count": 23},
        link={"sensing_sinr_db": [5.0, 0.0, 10.0]},
        sensing=[{"kind": "dense-classifier", "input_mode": "band-energy",
                  "model_path": ckpt, "hidden": [16]},
                 {"kind": "energy-threshold", "thresholds": [96.0] * 4},
                 {"kind": "perfect"}],
        agent={"variant": "random"}, request_probability=0.6,
        episodes=3, slots_per_episode=30))


def test_outputs_do_not_depend_on_the_block_size(tmp_path, monkeypatch):
    """simulate and eval-sensing write the same bytes whether a block holds
    one slot, seven, or what the default budget gives, with the random
    agent's block draw and with a q-table checkpoint's memoized choices."""
    from uavdsa.cli import cmd_eval_sensing
    cfg = golden_like_config(tmp_path)
    table = sch.QTable(num_subchannels=4)
    sch.train_agent(table, exact.preset_scheduling_env(4), episodes=3, slots_per_episode=50,
                    seed=1)
    sch.save_agent(table, str(tmp_path / "agent.qtb"))
    trained = dataclasses.replace(cfg, agent=dataclasses.replace(
        cfg.agent, variant="qtable", checkpoint=str(tmp_path / "agent.qtb")))
    per_slot = cfg.radio.num_uavs * cfg.synth.samples_per_observation  # a classifier senses
    outputs = []
    for slots in (1, 7, None):
        if slots is not None:
            monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", slots * per_slot)
        else:
            monkeypatch.undo()
        models = [simulate.build_sensing_model(spec, cfg, "", {}) for spec in cfg.sensing]
        assert simulate.block_slots(models, cfg.synth) == (
            slots or simulate.BLOCK_ELEMENTS // per_slot)
        out = tmp_path / f"run_{slots}"
        for name, run_cfg in (("simulate", cfg), ("qtable", trained)):
            simulate.save_report(simulate.run_simulation(run_cfg), run_cfg, str(out / name))
        eval_cfg = dataclasses.replace(cfg, out_dir=str(out / "eval"))
        assert cmd_eval_sensing(eval_cfg, argparse.Namespace(model=None)) == 0
        outputs.append({name: (out / name).read_bytes() for name in (
            "simulate/ledgers.csv", "simulate/report.json", "simulate/sensing_metrics.csv",
            "qtable/ledgers.csv", "qtable/report.json", "eval/sensing_metrics.csv")})
    assert outputs[0] == outputs[1] == outputs[2]
    assert outputs[0]["simulate/ledgers.csv"] != outputs[0]["qtable/ledgers.csv"]


@pytest.mark.parametrize("slots", [1, 7, None])
def test_episode_trajectory_is_stepped_chain(slots, monkeypatch):
    """Each episode's true occupancy is one sample_occupancy walk on the
    TRUTH stream, a stationary draw and its successors, whatever the block
    size."""
    if slots is not None:
        monkeypatch.setattr(simulate, "BLOCK_ELEMENTS", slots * 3 * 4)
    cfg = validate_config(config_dict(channels={"p01": 0.3, "p10": 0.2},
                                      episodes=3, slots_per_episode=25))
    sim = simulate.Simulation(cfg)
    rng = derive_rng(cfg.seed, simulate.SIMULATE_KEY, simulate.TRUTH)
    for _ in range(cfg.episodes):
        want = sample_occupancy(cfg.matrices, cfg.slots_per_episode, rng)
        got = np.concatenate([truths for truths, _, _ in sim.episode()])
        assert got.dtype == np.int8 and np.array_equal(got, want)
    assert sim.truth_rng.bit_generator.state == rng.bit_generator.state


def test_energy_model_without_thresholds_is_refused_on_both_paths():
    """A sensing model is complete when built, so neither detect nor the
    slot's sensing pass can be handed one that cannot detect."""
    for thresholds in (None, np.full(3, 1.0)):
        with pytest.raises(ValueError, match="has no thresholds for its 4"):
            sensing.SensingModel(kind="energy-threshold", num_subchannels=4,
                                 thresholds=thresholds)
    for network in (None, nnet.build_network([8, 3], ["sigmoid"], seed=0)):
        with pytest.raises(ValueError, match="has no network with 4 outputs"):
            sensing.SensingModel(kind="dense-classifier", num_subchannels=4,
                                 network=network)


# every agent hyperparameter, away from its default
NON_DEFAULT_AGENT = {"gamma": 0.5, "epsilon0": 0.8, "epsilon_min": 0.1, "epsilon_decay": 0.9,
                     "alpha": 0.5, "alpha_power": 0.6, "hidden": [8, 4],
                     "replay_capacity": 500, "batch_size": 16, "target_update_period": 7,
                     "tau": 0.2, "learning_rate": 0.002}
TABULAR_ONLY = {"alpha", "alpha_power"}
SHARED = {"gamma", "epsilon0", "epsilon_min", "epsilon_decay"}


@pytest.mark.parametrize("variant", ["qtable", "dqn", "ddqn", "ddqn-soft"])
def test_new_agent_takes_every_value_of_its_spec(variant):
    from uavdsa.config import AgentSpec
    names = SHARED | TABULAR_ONLY if variant == "qtable" else set(NON_DEFAULT_AGENT) - TABULAR_ONLY
    assert set(NON_DEFAULT_AGENT) == {f.name for f in dataclasses.fields(AgentSpec)} - {
        "variant", "uavs", "checkpoint"}
    cfg = validate_config(config_dict(agent={"variant": variant, **NON_DEFAULT_AGENT}))
    agent = simulate.new_agent(cfg, variant)
    assert type(agent) is (sch.QTable if variant == "qtable" else sch.DqnAgent)
    for name in names:
        assert getattr(agent, name) == getattr(cfg.agent, name) != getattr(AgentSpec(), name)
    if variant != "qtable":
        assert (agent.variant, agent.seed) == (variant, cfg.seed)
        assert [layer.w.shape for layer in agent.primary.layers] == [(4, 8), (8, 4), (4, 5)]
        assert agent.optimizer.learning_rate == 0.002
