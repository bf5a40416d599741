import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavdsa.config import ConfigError, load_config, validate_config


def minimal(**overrides):
    cfg = {"seed": 7}
    cfg.update(overrides)
    return cfg


class TestDefaults:
    def test_minimal_config_fills_defaults(self):
        cfg = validate_config(minimal())
        assert cfg.seed == 7
        assert cfg.radio.num_subchannels == 4
        assert cfg.radio.num_uavs == 3
        assert cfg.fusion_n == 2
        assert len(cfg.matrices) == 4
        assert len(cfg.sensing) == 3
        assert cfg.synth.samples_per_observation == 1024
        assert cfg.link.sensing_sinr_db == (10.0, 10.0, 0.0)

    def test_seed_required(self):
        with pytest.raises(ConfigError, match="seed"):
            validate_config({})

    def test_seed_override_wins(self):
        cfg = validate_config(minimal(), seed_override=99)
        assert cfg.seed == 99

    def test_out_override(self):
        cfg = validate_config(minimal(out_dir="a"), out_override="b")
        assert cfg.out_dir == "b"


class TestValidation:
    def test_unknown_keys_rejected_everywhere(self):
        raw = minimal(radio={"num_subchannels": 4, "typo_key": 1}, bogus=2)
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        text = str(exc.value)
        assert "radio.typo_key: unknown key" in text
        assert "config.bogus: unknown key" in text

    def test_all_problems_reported_together(self):
        raw = minimal(
            radio={"num_subchannels": 0},
            fusion_n=9,
            request_probability=2.0,
        )
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert len(exc.value.problems) >= 3

    def test_channel_count_must_match_m(self):
        raw = minimal(radio={"num_subchannels": 3},
                      channels=[{"p01": 0.1, "p10": 0.2}] * 2)
        with pytest.raises(ConfigError, match="channels: expected 3"):
            validate_config(raw)

    def test_access_table_dimensions(self):
        raw = minimal(link={"access_sinr_db": [[1.0, 2.0]]})
        with pytest.raises(ConfigError, match="access_sinr_db"):
            validate_config(raw)

    def test_energy_threshold_requires_thresholds(self):
        raw = minimal(sensing={"kind": "energy-threshold"})
        with pytest.raises(ConfigError, match="thresholds: required"):
            validate_config(raw)
        with pytest.raises(ConfigError) as exc:  # null is as good as absent
            validate_config(minimal(sensing={"kind": "energy-threshold", "thresholds": None}))
        assert exc.value.problems == [f"sensing[{i}].thresholds: required for energy-threshold"
                                      for i in range(3)]

    def test_classifier_requires_model_path(self):
        raw = minimal(sensing={"kind": "dense-classifier"})
        with pytest.raises(ConfigError, match="model_path: required"):
            validate_config(raw)

    def test_qtable_refused_for_large_m(self):
        raw = minimal(radio={"num_subchannels": 16},
                      agent={"variant": "qtable"},
                      dataset={"fft_size": 1024})
        with pytest.raises(ConfigError, match="qtable"):
            validate_config(raw)

    def test_batch_larger_than_replay_rejected(self):
        raw = minimal(agent={"variant": "dqn", "replay_capacity": 16, "batch_size": 32})
        with pytest.raises(ConfigError, match="agent.batch_size"):
            validate_config(raw)
        cfg = validate_config(minimal(agent={"replay_capacity": 32, "batch_size": 32}))
        assert cfg.agent.batch_size == cfg.agent.replay_capacity

    def test_random_agent_refuses_a_checkpoint(self):
        raw = minimal(agent={"variant": "random", "checkpoint": "/no/such.ckpt"})
        with pytest.raises(ConfigError, match="agent.checkpoint"):
            validate_config(raw)
        assert validate_config(minimal(agent={"variant": "random"})).agent.checkpoint is None

    def test_access_rows_use_the_number_list_check(self):
        rows = [[1.0, 2.0, 3.0, 4.0], [1.0, "x", 3.0, 4.0], [1.0, 2.0]]
        with pytest.raises(ConfigError) as exc:
            validate_config(minimal(link={"access_sinr_db": rows}))
        assert exc.value.problems == [
            "link.access_sinr_db[1]: expected a list of numbers",
            "link.access_sinr_db[2]: expected 4 entries, got 2"]

    def test_link_defaults_are_the_preset(self):
        from uavdsa.channel import default_link_model
        for k in (1, 2, 3, 5):
            cfg = validate_config(minimal(radio={"num_uavs": k}, fusion_n=1))
            assert cfg.link == default_link_model(k, 4)

    def test_uniform_channel_shorthand(self):
        cfg = validate_config(minimal(channels={"p01": 0.4, "p10": 0.4}))
        assert all(m.p01 == 0.4 for m in cfg.matrices)

    def test_per_uav_sensing_list(self):
        specs = [{"kind": "perfect"}, {"kind": "perfect"},
                 {"kind": "energy-threshold", "thresholds": [1, 1, 1, 1]}]
        cfg = validate_config(minimal(sensing=specs))
        assert cfg.sensing[2].kind == "energy-threshold"

    def test_dataset_blocks_must_fit(self):
        raw = minimal(dataset={"fft_size": 64, "subcarriers_per_subchannel": 32})
        with pytest.raises(ConfigError) as exc:
            validate_config(raw)
        assert exc.value.problems == ["dataset.subcarriers_per_subchannel: 4 blocks of 32 "
                                      "bins exceed the 64-bin transform"]


# (field path in the problem, config overrides): each used to validate and
# then fail at run time, or be silently changed
OUT_OF_BOUNDS = [
    ("sensing[0].decision_threshold", {"sensing": {"decision_threshold": 0}}),
    ("sensing[0].decision_threshold", {"sensing": {"decision_threshold": 1.0}}),
    ("agent.gamma", {"agent": {"gamma": 1.0}}),
    ("agent.gamma", {"agent": {"gamma": 1.5}}),
    ("agent.learning_rate", {"agent": {"learning_rate": 0}}),
    ("agent.learning_rate", {"agent": {"learning_rate": -0.001}}),
    ("sensing[0].learning_rate", {"sensing": {"learning_rate": 0.0}}),
    ("config.seed", {"seed": 2 ** 64}),
    ("agent.hidden", {"agent": {"hidden": [64.5]}}),
    ("sensing[0].hidden", {"sensing": {"hidden": [128, 16.5]}}),
    ("radio.num_subchannels", {"radio": {"num_subchannels": 1025},
                               "agent": {"variant": "random"}}),
    ("radio.num_uavs", {"radio": {"num_uavs": 257}}),
    ("dataset.fft_size", {"dataset": {"fft_size": 2 ** 17}}),
    ("radio.num_subchannels", {"radio": {"num_subchannels": 17},
                               "agent": {"variant": "dqn"}}),
    ("channels[0]", {"channels": {"p01": 0.0, "p10": 0.0}}),
    ("agent.hidden", {"agent": {"hidden": [64, 1025]}}),
    ("sensing[0].hidden", {"sensing": {"hidden": [1025]}}),
    ("agent.replay_capacity", {"agent": {"replay_capacity": 10 ** 6 + 1}}),
    ("dataset.fft_size", {"dataset": {"fft_size": 1000}}),
    ("radio.v_cc", {"radio": {"v_cc": 0}}),
    ("radio.p_tx", {"radio": {"p_tx": -0.5}}),
    ("radio.subchannel_bandwidth", {"radio": {"subchannel_bandwidth": 0.0}}),
    ("radio.system_bandwidth", {"radio": {"system_bandwidth": 1e6}}),
    ("timing.t_req", {"timing": {"t_req": -1}}),
    ("timing", {"timing": {"t_req": 0, "t_s": 0, "t_b": 0, "t_a": 0}}),
    ("channels[0].p01", {"channels": {"p01": 1.2}}),
    ("link.sensing_sinr_db", {"link": {"sensing_sinr_db": [10.0, 0.0]}}),
    ("link.access_sinr_db[0]", {"link": {"access_sinr_db": [[10.0] * 3] * 3}}),
    ("agent.hidden", {"agent": {"hidden": [1024] * 400}}),
    ("sensing[0].hidden", {"sensing": {"hidden": [8] * 17}}),
]


@pytest.mark.parametrize("field,overrides", OUT_OF_BOUNDS,
                         ids=[f"{f}-{i}" for i, (f, _) in enumerate(OUT_OF_BOUNDS)])
def test_out_of_bounds_values_are_config_errors(field, overrides):
    with pytest.raises(ConfigError) as exc:
        validate_config(minimal(**overrides))
    assert any(p.startswith(f"{field}: ") for p in exc.value.problems)


# (config overrides, the one problem): each refusal is reported once,
# under its key
REPORTED_ONCE = [
    ({"dataset": {"fft_size": 1000}}, "dataset.fft_size: must be a power of two"),
    ({"radio": {"v_cc": 0}}, "radio.v_cc: must be > 0.0"),
    ({"radio": {"system_bandwidth": 1e6}},
     "radio.system_bandwidth: 4 sub-channels of 540000.0 Hz exceed 1000000.0 Hz"),
    ({"timing": {"t_req": 0, "t_s": 0, "t_b": 0, "t_a": 0}},
     "timing: t_req + t_s + t_b + t_a must be > 0"),
    ({"agent": {"hidden": [1024] * 400}}, "agent.hidden: expected at most 16 entries, got 400"),
]


@pytest.mark.parametrize("overrides,problem", REPORTED_ONCE,
                         ids=[p.split(":")[0] for _, p in REPORTED_ONCE])
def test_refusal_is_reported_once_under_its_key(overrides, problem):
    with pytest.raises(ConfigError) as exc:
        validate_config(minimal(**overrides))
    assert exc.value.problems == [problem]


def test_bounds_admit_their_edges():
    cfg = validate_config(minimal(
        seed=2 ** 64 - 1, agent={"gamma": 0.0, "hidden": [64.0, 8]},
        sensing={"decision_threshold": 0.999, "learning_rate": 1e-9}))
    assert cfg.seed == 2 ** 64 - 1
    assert cfg.agent.hidden == (64, 8)
    cfg = validate_config(minimal(radio={"num_subchannels": 16, "num_uavs": 256},
                                  agent={"variant": "ddqn-soft"}, fusion_n=1,
                                  dataset={"fft_size": 2 ** 16},
                                  channels={"p01": 0.0, "p10": 1.0}))
    assert cfg.radio.num_subchannels == 16
    assert cfg.synth.samples_per_observation == 2 ** 16
    cfg = validate_config(minimal(radio={"num_subchannels": 1024},
                                  agent={"variant": "random"}))
    assert cfg.radio.num_subchannels == 1024
    cfg = validate_config(minimal(agent={"hidden": [1024], "replay_capacity": 10 ** 6},
                                  sensing={"hidden": [1024, 1024]}))
    assert cfg.agent.hidden == (1024,) and cfg.agent.replay_capacity == 10 ** 6
    assert cfg.sensing[0].hidden == (1024, 1024)
    cfg = validate_config(minimal(agent={"hidden": [1024] * 16}, sensing={"hidden": [8] * 16}))
    assert cfg.agent.hidden == (1024,) * 16 and cfg.sensing[0].hidden == (8,) * 16
    cfg = validate_config(minimal(radio={"system_bandwidth": 4 * 540e3},
                                  timing={"t_req": 0, "t_s": 0, "t_b": 0, "t_a": 1e-9}))
    assert cfg.radio.system_bandwidth == 4 * 540e3 and cfg.timing.t_a == 1e-9
    for decay, alpha in ((0.0, 1.0), (1.0, 1e-9)):
        cfg = validate_config(minimal(agent={"epsilon_decay": decay, "alpha": alpha}))
        assert (cfg.agent.epsilon_decay, cfg.agent.alpha) == (decay, alpha)


class TestLoadConfig:
    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config("/nonexistent/cfg.json")

    def test_invalid_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(p))

    def test_roundtrip(self, tmp_path):
        p = tmp_path / "ok.json"
        p.write_text(json.dumps(minimal(episodes=3)))
        cfg = load_config(str(p))
        assert cfg.episodes == 3


# The documented keys of every section, so that generated configs reach
# the checks behind the key checks.
SCHEMA = {
    "seed": None, "out_dir": None, "fusion_n": None, "request_probability": None,
    "episodes": None, "slots_per_episode": None,
    "radio": ("v_cc", "p_tx", "subchannel_bandwidth", "num_subchannels",
              "num_uavs", "system_bandwidth"),
    "timing": ("t_req", "t_s", "t_b", "t_a"),
    "channels": ("p01", "p10"),
    "link": ("sensing_sinr_db", "access_sinr_db"),
    "sensing": ("kind", "decision_threshold", "input_mode", "thresholds",
                "model_path", "hidden", "epochs", "batch_size", "learning_rate"),
    "agent": ("variant", "uavs", "gamma", "hidden", "replay_capacity", "batch_size",
              "target_update_period", "tau", "learning_rate", "epsilon0",
              "epsilon_min", "epsilon_decay", "alpha", "alpha_power", "checkpoint"),
    "dataset": ("fft_size", "subcarriers_per_subchannel", "sinr_grid_db",
                "count_per_sinr", "eval_count", "interference_gains_db"),
}
# per-entry sections also take a list of objects
PER_ENTRY = ("channels", "sensing")

# zeros, edges and integers too large for an index, a float or any table
EDGE_INTS = st.sampled_from([0, 1, 2, 3, 16, 17, 2 ** 16, 2 ** 63, 2 ** 64,
                             10 ** 30, 10 ** 400, -1, -(10 ** 30)])
SCALARS = st.one_of(
    EDGE_INTS, st.integers(), st.floats(), st.none(), st.booleans(),
    st.sampled_from(["perfect", "energy-threshold", "dense-classifier", "random",
                     "qtable", "dqn", "ddqn-soft", "iq", "band-energy", ""]),
)
JUNK = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=3), inner, max_size=2)),
    max_leaves=6)
VALUES = st.one_of(EDGE_INTS, SCALARS, st.lists(SCALARS, max_size=5), JUNK)


@st.composite
def raw_configs(draw):
    """A seed, then any of the documented sections: mostly objects over
    their own keys (lists of them where the schema allows), sometimes junk."""
    raw = {"seed": draw(st.one_of(st.integers(0, 2 ** 64 - 1), VALUES))}
    for key in draw(st.lists(st.sampled_from(sorted(SCHEMA)), unique=True)):
        keys = SCHEMA[key]
        if keys is None:
            raw[key] = draw(VALUES)
            continue
        obj = st.fixed_dictionaries({}, optional={k: VALUES for k in keys})
        shapes = [obj, st.lists(obj, max_size=4)] if key in PER_ENTRY else [obj]
        raw[key] = draw(st.one_of(*shapes, JUNK))
    return raw


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(raw_configs())
def test_any_json_config_validates_or_raises_config_error(raw):
    """Whatever a JSON object holds under the documented keys, including
    huge integers, zeros, wrong types and nested junk, validate_config
    returns a config or raises ConfigError, never another exception."""
    try:
        validate_config(raw)
    except ConfigError as exc:
        assert exc.problems


def test_module_docstring_names_every_declared_key_with_its_default():
    """The docstring schema documents each declared key as `key (default`,
    the default written as JSON, inside the entry of its section (a line
    indented by four spaces and the lines indented below it)."""
    import dataclasses
    from uavdsa import config
    from uavdsa.channel import TransitionMatrix
    from uavdsa.core import RadioParams, SlotTiming
    from uavdsa.sensing import SensingSpec

    schema = config.__doc__.split("Schema")[1]
    entries, name = {}, None
    for line in schema.splitlines():
        if line.startswith("    ") and not line.startswith("     "):
            name = line.split()[0].rstrip(":")
            entries[name] = ""
        if name is not None:
            entries[name] += line + "\n"
    sections = {"radio": RadioParams, "timing": SlotTiming, "channels": TransitionMatrix,
                "sensing": SensingSpec, "agent": config.AgentSpec,
                "dataset": config.DatasetSpec, None: config.SimConfig}
    missing = []
    for section, cls in sections.items():
        for f in dataclasses.fields(cls):
            if f.default is dataclasses.MISSING:
                continue
            text = entries.get(f.name if section is None else section, "")
            if f"{f.name} ({json.dumps(f.default)}" not in text:
                missing.append(f"{section or 'config'}.{f.name} ({json.dumps(f.default)}")
    assert missing == []
