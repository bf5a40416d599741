"""Run configuration: JSON schema, exhaustive validation, presets.

A config file is a single JSON object. Every section is optional and falls
back to the documented defaults below, except `seed`, which must come from
the file or the --seed flag. Unknown keys anywhere are errors, as are
NaN and infinite numbers, which JSON parsing admits; all problems are
reported together with their field paths before any work starts.

Schema (defaults in parentheses):

    seed                  u64, required (--seed overrides it, same range)
    out_dir               str ("out")
    radio: {v_cc (1.0), p_tx (0.5), subchannel_bandwidth (540000.0),
            num_subchannels (4, <= 1024; <= 16 for the DQN family),
            num_uavs (3, <= 256), system_bandwidth (null)}
    timing: {t_req (0.001), t_s (0.005), t_b (0.002), t_a (0.042)}
    channels              list of {p01, p10}, one per sub-channel, or a
                          single object applied to all ({p01: 0.2, p10: 0.3});
                          p01 = p10 = 0 is refused (no stationary distribution)
    link: {sensing_sinr_db  list[K] (strong preset, last UAV 10 dB weaker),
           access_sinr_db   K x M table (10 dB everywhere)}
    fusion_n              int in [1, K] (2, clamped to K)
    sensing               object or list[K] of objects:
        {kind ("perfect" | "energy-threshold" | "dense-classifier"),
         decision_threshold (0.5, in (0, 1)), input_mode ("iq" | "band-energy"),
         thresholds (null; list[M], required for energy-threshold),
         model_path (null; required for dense-classifier),
         hidden ([128, 128], whole numbers <= 1024), epochs (30), batch_size (32),
         learning_rate (0.001, > 0)}
    agent: {variant ("ddqn-soft" | "ddqn" | "dqn" | "qtable" | "random"),
            uavs (1), gamma (0.9, in [0, 1)), hidden ([64, 64], whole numbers <= 1024),
            replay_capacity (10000, <= 10^6), batch_size (32, <= replay_capacity),
            target_update_period (100), tau (0.01), learning_rate (0.001, > 0),
            epsilon0 (1.0), epsilon_min (0.05), epsilon_decay (null, in [0, 1]),
            alpha (null, in (0, 1]), alpha_power (0.7),
            checkpoint (null; refused for "random")}
    dataset: {fft_size (1024, <= 65536), subcarriers_per_subchannel (null -> fft/M),
              sinr_grid_db ([-10, 0, 10, 20]), count_per_sinr (600),
              eval_count (150), interference_gains_db ([]; gen-dataset only)}
    request_probability   float in [0, 1] (1.0)
    episodes              int >= 0 (5)
    slots_per_episode     int >= 1 (100)
"""

import json
import math
from dataclasses import dataclass

from .channel import LinkModel, TransitionMatrix, default_link_model
from .core import RadioParams, SlotTiming
from .fusion import FusionRule
from .iqsynth import SynthConfig
from .scheduler import DQN_MAX_SUBCHANNELS, DQN_VARIANTS, TABULAR_MAX_SUBCHANNELS
from .sensing import INPUT_MODES

SEED_MAX = 2 ** 64 - 1
# Sizes that tables, captures and networks are allocated from; larger values
# stop at validation instead of overflowing or exhausting memory at run time.
MAX_SUBCHANNELS = 1024
MAX_UAVS = 256
MAX_FFT_SIZE = 2 ** 16
MAX_HIDDEN_WIDTH = 1024
MAX_REPLAY_CAPACITY = 10 ** 6
SENSING_KINDS = ("perfect", "energy-threshold", "dense-classifier")
AGENT_VARIANTS = (*DQN_VARIANTS, "qtable", "random")


class ConfigError(ValueError):
    """Carries every validation problem found, with field paths."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("\n".join(problems))


@dataclass(frozen=True)
class SensingSpec:
    kind: str = "perfect"
    decision_threshold: float = 0.5
    input_mode: str = "iq"
    thresholds: tuple[float, ...] | None = None
    model_path: str | None = None
    hidden: tuple[int, ...] = (128, 128)
    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 1e-3


@dataclass(frozen=True)
class AgentSpec:
    variant: str = "ddqn-soft"
    uavs: int = 1
    gamma: float = 0.9
    hidden: tuple[int, ...] = (64, 64)
    replay_capacity: int = 10_000
    batch_size: int = 32
    target_update_period: int = 100
    tau: float = 0.01
    learning_rate: float = 1e-3
    epsilon0: float = 1.0
    epsilon_min: float = 0.05
    epsilon_decay: float | None = None
    alpha: float | None = None
    alpha_power: float = 0.7
    checkpoint: str | None = None


@dataclass(frozen=True)
class SimConfig:
    seed: int
    radio: RadioParams
    timing: SlotTiming
    matrices: tuple[TransitionMatrix, ...]
    link: LinkModel
    fusion: FusionRule
    sensing: tuple[SensingSpec, ...]  # one per UAV
    agent: AgentSpec
    synth: SynthConfig
    count_per_sinr: int
    eval_count: int
    request_probability: float
    episodes: int
    slots_per_episode: int
    out_dir: str


class _Section:
    """One nested object: tracks its path, collects problems, flags typos."""

    def __init__(self, data, path: str, problems: list[str]):
        self.data = data if isinstance(data, dict) else {}
        self.path = path
        self.problems = problems
        if not isinstance(data, dict):
            problems.append(f"{path}: expected an object")

    def check_keys(self, allowed) -> None:
        for key in self.data:
            if key not in allowed:
                self.problems.append(f"{self.path}.{key}: unknown key")

    def value(self, key, default, kind, low=None, high=None, nullable=False,
              above=None, below=None):
        """low/high are inclusive bounds, above/below exclusive ones."""
        if key not in self.data:
            return default
        v = self.data[key]
        path = f"{self.path}.{key}"
        if v is None:
            if nullable:
                return None
            self.problems.append(f"{path}: may not be null")
            return default
        if kind is float and isinstance(v, int) and not isinstance(v, bool):
            v = _as_float(v)
        if not isinstance(v, kind) or isinstance(v, bool):
            self.problems.append(f"{path}: expected {kind.__name__}")
            return default
        if kind is float and not math.isfinite(v):
            self.problems.append(f"{path}: must be a finite number")
            return default
        if low is not None and v < low:
            self.problems.append(f"{path}: must be >= {low}")
            return default
        if high is not None and v > high:
            self.problems.append(f"{path}: must be <= {high}")
            return default
        if above is not None and v <= above:
            self.problems.append(f"{path}: must be > {above}")
            return default
        if below is not None and v >= below:
            self.problems.append(f"{path}: must be < {below}")
            return default
        return v

    def choice(self, key, default, options):
        v = self.value(key, default, str)
        if v not in options:
            self.problems.append(
                f"{self.path}.{key}: unknown value {v!r}; options: {', '.join(options)}")
            return default
        return v

    def number_list(self, key, default, length=None, item_low=None, whole=False):
        if key not in self.data:
            return default
        return _number_list(self.data[key], f"{self.path}.{key}", self.problems,
                            default, length, item_low, whole)


def _as_float(x) -> float:
    """float(x), except that an integer too large for a float, on which
    float() raises OverflowError, becomes inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _number_list(v, path, problems, default, length=None, item_low=None, whole=False):
    """A JSON list of numbers as a tuple of floats; on any problem the
    default comes back and the problem is recorded under `path`."""
    if not isinstance(v, list) or any(
            not isinstance(x, (int, float)) or isinstance(x, bool) for x in v):
        problems.append(f"{path}: expected a list of numbers")
        return default
    values = tuple(_as_float(x) for x in v)
    if not all(math.isfinite(x) for x in values):
        problems.append(f"{path}: must be a finite number")
        return default
    if length is not None and len(v) != length:
        problems.append(f"{path}: expected {length} entries, got {len(v)}")
        return default
    if item_low is not None and any(x < item_low for x in values):
        problems.append(f"{path}: entries must be >= {item_low}")
        return default
    if whole and not all(x.is_integer() for x in values):
        problems.append(f"{path}: entries must be whole numbers")
        return default
    return values


def _per_entry(raw: dict, key: str, count: int, problems: list[str]) -> list:
    """`raw[key]` as `count` entries: one object (an absent key is `{}`)
    stands for all of them, and a list must hold exactly `count`. A list
    of another length is a problem; it comes back cut or padded with `{}`
    to `count`, so that its entries are still checked."""
    v = raw.get(key, {})
    if isinstance(v, dict):
        return [v] * count
    if not isinstance(v, list):
        problems.append(f"{key}: expected an object or a list of objects")
        return [{}] * count
    if len(v) != count:
        problems.append(f"{key}: expected {count} entries, got {len(v)}")
    return (v + [{}] * count)[:count]


def validate_config(raw: dict, seed_override: int | None = None,
                    out_override: str | None = None) -> SimConfig:
    """Parse and cross-check a raw config dict; raises ConfigError listing
    every problem found."""
    problems: list[str] = []
    top = _Section(raw, "config", problems)
    top.check_keys({"seed", "out_dir", "radio", "timing", "channels", "link",
                    "fusion_n", "sensing", "agent", "dataset",
                    "request_probability", "episodes", "slots_per_episode"})

    if seed_override is not None:
        seed = seed_override
        if not 0 <= seed <= SEED_MAX:
            problems.append(f"--seed: must lie in [0, {SEED_MAX}]")
    elif "seed" in top.data:
        seed = top.value("seed", 0, int, low=0, high=SEED_MAX)
    else:
        problems.append("config.seed: required (or pass --seed)")
        seed = 0
    out_dir = out_override if out_override is not None else top.value("out_dir", "out", str)

    radio_sec = _Section(raw.get("radio", {}), "radio", problems)
    radio_sec.check_keys({"v_cc", "p_tx", "subchannel_bandwidth",
                          "num_subchannels", "num_uavs", "system_bandwidth"})
    m = radio_sec.value("num_subchannels", 4, int, low=1, high=MAX_SUBCHANNELS)
    k = radio_sec.value("num_uavs", 3, int, low=1, high=MAX_UAVS)
    radio_kw = dict(
        v_cc=radio_sec.value("v_cc", 1.0, float),
        p_tx=radio_sec.value("p_tx", 0.5, float),
        subchannel_bandwidth=radio_sec.value("subchannel_bandwidth", 540e3, float),
        num_subchannels=m,
        num_uavs=k,
        system_bandwidth=radio_sec.value("system_bandwidth", None, float, nullable=True),
    )

    timing_sec = _Section(raw.get("timing", {}), "timing", problems)
    timing_sec.check_keys({"t_req", "t_s", "t_b", "t_a"})
    timing_kw = dict(
        t_req=timing_sec.value("t_req", 0.001, float, low=0.0),
        t_s=timing_sec.value("t_s", 0.005, float, low=0.0),
        t_b=timing_sec.value("t_b", 0.002, float, low=0.0),
        t_a=timing_sec.value("t_a", 0.042, float, low=0.0),
    )

    matrices = []
    for i, entry in enumerate(_per_entry(raw, "channels", m, problems)):
        sec = _Section(entry, f"channels[{i}]", problems)
        sec.check_keys({"p01", "p10"})
        p01 = sec.value("p01", 0.2, float, low=0.0, high=1.0)
        p10 = sec.value("p10", 0.3, float, low=0.0, high=1.0)
        if p01 == p10 == 0.0:
            problems.append(f"channels[{i}]: p01 = p10 = 0 never changes state, "
                            f"so it has no stationary distribution to start from")
        matrices.append(TransitionMatrix(p01=p01, p10=p10))

    link_sec = _Section(raw.get("link", {}), "link", problems)
    link_sec.check_keys({"sensing_sinr_db", "access_sinr_db"})
    preset = default_link_model(k, m)
    sensing_sinr = link_sec.number_list("sensing_sinr_db", preset.sensing_sinr_db, length=k)
    access = preset.access_sinr_db
    raw_access = link_sec.data.get("access_sinr_db")
    if isinstance(raw_access, list) and len(raw_access) == k:
        access = tuple(_number_list(row, f"link.access_sinr_db[{i}]", problems,
                                    preset.access_sinr_db[i], length=m)
                       for i, row in enumerate(raw_access))
    elif raw_access is not None:
        problems.append(f"link.access_sinr_db: expected {k} rows")

    fusion_n = top.value("fusion_n", min(2, k), int, low=1, high=k)

    sensing_specs = []
    for i, entry in enumerate(_per_entry(raw, "sensing", k, problems)):
        sec = _Section(entry, f"sensing[{i}]", problems)
        sec.check_keys({"kind", "decision_threshold", "input_mode", "thresholds",
                        "model_path", "hidden", "epochs", "batch_size",
                        "learning_rate"})
        kind = sec.choice("kind", "perfect", SENSING_KINDS)
        thresholds = None  # absent or null; a refused list is reported once, by number_list
        if sec.data.get("thresholds") is not None:
            thresholds = sec.number_list("thresholds", None, length=m, item_low=0.0)
        elif kind == "energy-threshold":
            problems.append(f"sensing[{i}].thresholds: required for energy-threshold")
        model_path = sec.value("model_path", None, str, nullable=True)
        if kind == "dense-classifier" and model_path is None:
            problems.append(f"sensing[{i}].model_path: required for dense-classifier")
        hidden = sec.number_list("hidden", (128.0, 128.0), item_low=1, whole=True)
        if any(h > MAX_HIDDEN_WIDTH for h in hidden):
            problems.append(f"sensing[{i}].hidden: entries must be <= {MAX_HIDDEN_WIDTH}")
        sensing_specs.append(SensingSpec(
            kind=kind,
            decision_threshold=sec.value("decision_threshold", 0.5, float,
                                         above=0.0, below=1.0),
            input_mode=sec.choice("input_mode", "iq", INPUT_MODES),
            thresholds=thresholds,
            model_path=model_path,
            hidden=tuple(int(h) for h in hidden),
            epochs=sec.value("epochs", 30, int, low=1),
            batch_size=sec.value("batch_size", 32, int, low=1),
            learning_rate=sec.value("learning_rate", 1e-3, float, above=0.0),
        ))

    agent_sec = _Section(raw.get("agent", {}), "agent", problems)
    agent_sec.check_keys({"variant", "uavs", "gamma", "hidden", "replay_capacity",
                          "batch_size", "target_update_period", "tau",
                          "learning_rate", "epsilon0", "epsilon_min",
                          "epsilon_decay", "alpha", "alpha_power", "checkpoint"})
    variant = agent_sec.choice("variant", "ddqn-soft", AGENT_VARIANTS)
    if variant == "qtable" and m > TABULAR_MAX_SUBCHANNELS:
        problems.append(
            f"agent.variant: qtable is limited to M <= {TABULAR_MAX_SUBCHANNELS} "
            f"sub-channels (got M={m})")
    if variant in DQN_VARIANTS and m > DQN_MAX_SUBCHANNELS:
        problems.append(
            f"radio.num_subchannels: {variant} is limited to M <= {DQN_MAX_SUBCHANNELS} "
            f"sub-channels, since its state feature table has 2^M + 1 rows (got M={m})")
    agent_hidden = agent_sec.number_list("hidden", (64.0, 64.0), item_low=1, whole=True)
    if any(h > MAX_HIDDEN_WIDTH for h in agent_hidden):
        problems.append(f"agent.hidden: entries must be <= {MAX_HIDDEN_WIDTH}")
    agent = AgentSpec(
        variant=variant,
        uavs=agent_sec.value("uavs", 1, int, low=1, high=k),
        gamma=agent_sec.value("gamma", 0.9, float, low=0.0, below=1.0),
        hidden=tuple(int(h) for h in agent_hidden),
        replay_capacity=agent_sec.value("replay_capacity", 10_000, int, low=1,
                                        high=MAX_REPLAY_CAPACITY),
        batch_size=agent_sec.value("batch_size", 32, int, low=1),
        target_update_period=agent_sec.value("target_update_period", 100, int, low=1),
        tau=agent_sec.value("tau", 0.01, float, low=0.0, high=1.0),
        learning_rate=agent_sec.value("learning_rate", 1e-3, float, above=0.0),
        epsilon0=agent_sec.value("epsilon0", 1.0, float, low=0.0, high=1.0),
        epsilon_min=agent_sec.value("epsilon_min", 0.05, float, low=0.0, high=1.0),
        epsilon_decay=agent_sec.value("epsilon_decay", None, float, low=0.0, high=1.0,
                                      nullable=True),
        alpha=agent_sec.value("alpha", None, float, above=0.0, high=1.0, nullable=True),
        alpha_power=agent_sec.value("alpha_power", 0.7, float, low=0.0, high=1.0),
        checkpoint=agent_sec.value("checkpoint", None, str, nullable=True),
    )
    if variant == "random" and agent.checkpoint is not None:
        problems.append("agent.checkpoint: the random agent has no checkpoint "
                        "to load; remove it or choose a trained variant")
    if agent.batch_size > agent.replay_capacity:
        problems.append(
            f"agent.batch_size: {agent.batch_size} exceeds agent.replay_capacity "
            f"{agent.replay_capacity}, so replay could never fill a batch")

    ds_sec = _Section(raw.get("dataset", {}), "dataset", problems)
    ds_sec.check_keys({"fft_size", "subcarriers_per_subchannel", "sinr_grid_db",
                       "count_per_sinr", "eval_count", "interference_gains_db"})
    fft_size = ds_sec.value("fft_size", 1024, int, low=1, high=MAX_FFT_SIZE)
    subcarriers = ds_sec.value("subcarriers_per_subchannel", None, int, low=1, nullable=True)
    if subcarriers is None:
        subcarriers = max(1, fft_size // m)
    grid = ds_sec.number_list("sinr_grid_db", (-10.0, 0.0, 10.0, 20.0))
    gains = ds_sec.number_list("interference_gains_db", ())
    count_per_sinr = ds_sec.value("count_per_sinr", 600, int, low=1)
    eval_count = ds_sec.value("eval_count", 150, int, low=1)

    request_probability = top.value("request_probability", 1.0, float, low=0.0, high=1.0)
    episodes = top.value("episodes", 5, int, low=0)
    slots_per_episode = top.value("slots_per_episode", 100, int, low=1)

    # constructor invariants become config problems instead of tracebacks
    built = {}
    for name, builder in (
        ("radio", lambda: RadioParams(**radio_kw)),
        ("timing", lambda: SlotTiming(**timing_kw)),
        ("link", lambda: LinkModel(sensing_sinr_db=tuple(sensing_sinr),
                                   access_sinr_db=access)),
        ("fusion_n", lambda: FusionRule(n=fusion_n, num_uavs=k)),
        ("dataset", lambda: SynthConfig(
            seed=seed, num_subchannels=m, samples_per_observation=fft_size,
            subcarriers_per_subchannel=subcarriers, sinr_grid_db=grid,
            interference_gains_db=gains)),
    ):
        try:
            built[name] = builder()
        except ValueError as exc:
            problems.append(f"{name}: {exc}")

    if problems:
        raise ConfigError(problems)

    return SimConfig(
        seed=seed, radio=built["radio"], timing=built["timing"],
        matrices=tuple(matrices), link=built["link"], fusion=built["fusion_n"],
        sensing=tuple(sensing_specs), agent=agent, synth=built["dataset"],
        count_per_sinr=count_per_sinr, eval_count=eval_count,
        request_probability=request_probability, episodes=episodes,
        slots_per_episode=slots_per_episode, out_dir=out_dir)


def load_config(path: str, seed_override: int | None = None,
                out_override: str | None = None) -> SimConfig:
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as exc:
        raise ConfigError([f"config: cannot read {path}: {exc}"])
    except json.JSONDecodeError as exc:
        raise ConfigError([f"config: {path} is not valid JSON: {exc}"])
    if not isinstance(raw, dict):
        raise ConfigError([f"config: {path} must contain a JSON object"])
    return validate_config(raw, seed_override, out_override)
