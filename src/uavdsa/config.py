"""Run configuration: JSON schema, exhaustive validation, presets.

A config file is a single JSON object. Every section is optional and falls
back to the documented defaults below, except `seed`, which must come from
the file or the --seed flag. Unknown keys anywhere are errors, as are
NaN and infinite numbers, which JSON parsing admits; all problems are
reported together with their field paths before any work starts.

Every key but seed, fusion_n and link's is declared once, as a field of
the dataclass it configures: the field's annotation is the key's kind, its
default the key's default and its metadata the key's bounds (see
_Section.value). validate_config reads the sections through those fields,
then makes the checks that span fields. It is the one place a configured
value is checked, each refusal under its key: the dataclasses it builds do
not check their fields again, except SynthConfig, which a dataset header
also builds (its refusals read dataset.<field>). A loaded checkpoint's
network shape wins over a configured hidden.

Schema (defaults first in parentheses):

    seed                  u64, required (--seed overrides it, same range)
    out_dir ("out")
    radio: {v_cc (1.0, > 0), p_tx (0.5, > 0), subchannel_bandwidth (540000.0, > 0),
            num_subchannels (4, in [1, 1024]; <= 16 for the DQN family, <= 12 for qtable),
            num_uavs (3, in [1, 256]),
            system_bandwidth (null; at least num_subchannels x subchannel_bandwidth)}
    timing: {t_req (0.001, >= 0), t_s (0.005, >= 0), t_b (0.002, >= 0),
             t_a (0.042, >= 0); their sum > 0}
    channels: {p01 (0.2, in [0, 1]), p10 (0.3, in [0, 1])}, one object for every
              sub-channel or a list of M; p01 = p10 = 0 is refused (no
              stationary distribution)
    link: {sensing_sinr_db  list[K] (strong preset, last UAV 10 dB weaker),
           access_sinr_db   K x M table (10 dB everywhere)}
    fusion_n (2, clamped to K; in [1, K])
    sensing: one object for every UAV or a list of K:
        {kind ("perfect" | "energy-threshold" | "dense-classifier"),
         decision_threshold (0.5, in (0, 1)), input_mode ("iq" | "band-energy"),
         thresholds (null; list[M] of entries >= 0, required for energy-threshold),
         model_path (null; required for dense-classifier),
         hidden ([128, 128], at most 16 whole numbers in [1, 1024]), epochs (30, >= 1),
         batch_size (32, >= 1), learning_rate (0.001, > 0)}
    agent: {variant ("ddqn-soft" | "dqn" | "ddqn" | "qtable" | "random"),
            uavs (1, in [1, K]), gamma (0.9, in [0, 1)), epsilon0 (1.0, in [0, 1]),
            epsilon_min (0.05, in [0, epsilon0]), epsilon_decay (null, in [0, 1]),
            alpha (null, in (0, 1]), alpha_power (0.7, in [0, 1]),
            hidden ([64, 64], at most 16 whole numbers in [1, 1024]),
            replay_capacity (10000, in [1, 10^6]),
            batch_size (32, in [1, replay_capacity]), target_update_period (100, >= 1),
            tau (0.01, in [0, 1]), learning_rate (0.001, > 0),
            checkpoint (null; refused for "random")}
    dataset: {fft_size (1024, a power of two <= 65536),
              subcarriers_per_subchannel (null -> fft_size / M, >= 1),
              sinr_grid_db ([-10.0, 0.0, 10.0, 20.0], no value repeated),
              count_per_sinr (600, >= 1; grid length x count_per_sinr x fft_size
                              <= 2^28 samples),
              eval_count (150, >= 1), interference_gains_db ([]; gen-dataset only)}
    request_probability (1.0, in [0, 1])
    episodes (5, >= 0)
    slots_per_episode (100, in [1, 10^6])
"""

import json
import math
import types
import typing
from dataclasses import MISSING, dataclass, field, fields

from .channel import LinkModel, TransitionMatrix, default_link_model
from .core import RadioParams, SlotTiming
from .iqsynth import SynthConfig
from .scheduler import (DQN_MAX_SUBCHANNELS, DQN_VARIANTS, TABULAR_MAX_SUBCHANNELS,
                        DqnAgent, DqnSpec, QTableSpec)
from .sensing import SensingSpec

SEED_MAX = 2 ** 64 - 1
# Sizes that captures and runs are allocated from; larger values stop at
# validation instead of exhausting memory at run time.
MAX_FFT_SIZE = 2 ** 16
MAX_DATASET_SAMPLES = 2 ** 28  # the complex samples gen-dataset holds at once
MAX_SLOTS_PER_EPISODE = 10 ** 6
AGENT_VARIANTS = (*DQN_VARIANTS, "qtable", "random")
SECTIONS = ("radio", "timing", "channels", "link", "sensing", "agent", "dataset")


class ConfigError(ValueError):
    """Carries every validation problem found, with field paths."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("\n".join(problems))


@dataclass
class AgentSpec(DqnSpec, QTableSpec):
    """The agent section: the variant, the UAVs train-agent trains, a
    checkpoint to load, and every learner's hyperparameters (declared on
    the learners' spec classes)."""

    variant: str = field(default=DqnAgent.variant, metadata={"options": AGENT_VARIANTS})
    uavs: int = field(default=1, metadata={"low": 1})  # and <= K
    checkpoint: str | None = None


@dataclass(frozen=True)
class DatasetSpec:
    """The dataset section: the capture geometry of its SynthConfig and the
    observations per SINR of gen-dataset and of eval-sensing."""

    fft_size: int = field(default=1024, metadata={"low": 1, "high": MAX_FFT_SIZE})
    subcarriers_per_subchannel: int | None = field(default=None, metadata={"low": 1})
    sinr_grid_db: tuple[float, ...] = (-10.0, 0.0, 10.0, 20.0)
    count_per_sinr: int = field(default=600, metadata={"low": 1})
    eval_count: int = field(default=150, metadata={"low": 1})
    interference_gains_db: tuple[float, ...] = ()


@dataclass(frozen=True)
class SimConfig:
    seed: int
    radio: RadioParams
    timing: SlotTiming
    matrices: tuple[TransitionMatrix, ...]
    link: LinkModel
    fusion_n: int
    sensing: tuple[SensingSpec, ...]  # one per UAV
    agent: AgentSpec
    synth: SynthConfig
    dataset: DatasetSpec
    # the top-level scalars that have a default
    out_dir: str = "out"
    request_probability: float = field(default=1.0, metadata={"low": 0.0, "high": 1.0})
    episodes: int = field(default=5, metadata={"low": 0})
    slots_per_episode: int = field(default=100, metadata={
        "low": 1, "high": MAX_SLOTS_PER_EPISODE})


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

    def parse(self, cls, others=(), **limits) -> dict:
        """Every field of dataclass `cls` that has a default, read as a key
        of this section by value(): the field's annotation is the kind, its
        default the default and its metadata the bounds, to which `limits`
        adds, per field name, bounds known only at parse time. A key that is
        neither such a field nor in `others` is unknown."""
        declared = [f for f in fields(cls) if f.default is not MISSING]
        self.check_keys({f.name for f in declared}.union(others))
        return {f.name: self.value(f.name, f.default, f.type, **f.metadata,
                                   **limits.get(f.name, {}))
                if f.name in self.data else f.default for f in declared}

    def value(self, key, default, kind, low=None, high=None, above=None, below=None,
              options=None, length=None, max_length=None, item_low=None, item_high=None):
        """The value of `key`; the default when it is absent, or refused (the
        problem recorded). `kind` is a type annotation: `T | None` admits null,
        and `tuple[T, ...]` is a list of numbers (whole ones for int) that
        _number_list checks against length, max_length, item_low and item_high.
        low/high are inclusive bounds, above/below exclusive ones; options
        are the strings admitted."""
        if key not in self.data:
            return default
        v = self.data[key]
        path = f"{self.path}.{key}"
        nullable = isinstance(kind, types.UnionType)
        if nullable:
            kind = typing.get_args(kind)[0]
        if v is None and nullable:
            return None
        if typing.get_origin(kind) is tuple:
            return _number_list(v, path, self.problems, default, length, max_length, item_low,
                                item_high, whole=typing.get_args(kind)[0] is int)
        if v is None:
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
        if options is not None and v not in options:
            self.problems.append(
                f"{path}: unknown value {v!r}; options: {', '.join(options)}")
            return default
        return v


def _as_float(x) -> float:
    """float(x), except that an integer too large for a float, on which
    float() raises OverflowError, becomes inf."""
    try:
        return float(x)
    except OverflowError:
        return math.inf


def _number_list(v, path, problems, default, length=None, max_length=None, item_low=None,
                 item_high=None, whole=False):
    """A JSON list of numbers as a tuple of floats, or of ints if `whole`;
    on any problem the default comes back and the problem is recorded
    under `path`."""
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
    if max_length is not None and len(v) > max_length:
        problems.append(f"{path}: expected at most {max_length} entries, got {len(v)}")
        return default
    if item_low is not None and any(x < item_low for x in values):
        problems.append(f"{path}: entries must be >= {item_low}")
        return default
    if whole and not all(x.is_integer() for x in values):
        problems.append(f"{path}: entries must be whole numbers")
        return default
    if item_high is not None and any(x > item_high for x in values):
        problems.append(f"{path}: entries must be <= {item_high}")
        return default
    return tuple(int(x) for x in values) if whole else values


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


def _epsilon_floor_problems(epsilon0: float, epsilon_min: float, path: str) -> list[str]:
    """The problem, under section `path`, of a floor above the start."""
    if epsilon_min <= epsilon0:
        return []
    return [f"{path}.epsilon_min: {epsilon_min} exceeds {path}.epsilon0 {epsilon0}, "
            f"so epsilon would rise to its floor, not decay to it"]


def header_problems(header: dict, spec) -> list[str]:
    """What validate_config would refuse in an agent checkpoint's header
    `header`, whose keys are fields of the learner spec class `spec`: each
    value is read as an agent section's would be, under the path "header"."""
    problems: list[str] = []
    kw = _Section(header, "header", problems).parse(spec)
    return problems + _epsilon_floor_problems(kw["epsilon0"], kw["epsilon_min"], "header")


def validate_config(raw: dict, seed_override: int | None = None,
                    out_override: str | None = None) -> SimConfig:
    """Parse and cross-check a raw config dict; raises ConfigError listing
    every problem found."""
    problems: list[str] = []
    top = _Section(raw, "config", problems)
    scalars = top.parse(SimConfig, others=("seed", "fusion_n", *SECTIONS))
    if out_override is not None:
        scalars["out_dir"] = out_override
    if seed_override is not None:
        seed = seed_override
        if not 0 <= seed <= SEED_MAX:
            problems.append(f"--seed: must lie in [0, {SEED_MAX}]")
    elif "seed" in top.data:
        seed = top.value("seed", 0, int, low=0, high=SEED_MAX)
    else:
        problems.append("config.seed: required (or pass --seed)")
        seed = 0

    radio_kw = _Section(raw.get("radio", {}), "radio", problems).parse(RadioParams)
    m, k = radio_kw["num_subchannels"], radio_kw["num_uavs"]
    needed, declared = m * radio_kw["subchannel_bandwidth"], radio_kw["system_bandwidth"]
    if declared is not None and needed > declared:
        problems.append(f"radio.system_bandwidth: {m} sub-channels of "
                        f"{radio_kw['subchannel_bandwidth']} Hz exceed {declared} Hz")
    timing_kw = _Section(raw.get("timing", {}), "timing", problems).parse(SlotTiming)
    if sum(timing_kw.values()) <= 0:
        problems.append("timing: t_req + t_s + t_b + t_a must be > 0")

    matrices = []
    for i, entry in enumerate(_per_entry(raw, "channels", m, problems)):
        chain = TransitionMatrix(
            **_Section(entry, f"channels[{i}]", problems).parse(TransitionMatrix))
        if chain.p01 == chain.p10 == 0.0:
            problems.append(f"channels[{i}]: p01 = p10 = 0 never changes state, "
                            f"so it has no stationary distribution to start from")
        matrices.append(chain)

    link_sec = _Section(raw.get("link", {}), "link", problems)
    link_sec.check_keys({"sensing_sinr_db", "access_sinr_db"})
    preset = default_link_model(k, m)
    sensing_sinr = link_sec.value("sensing_sinr_db", preset.sensing_sinr_db,
                                  tuple[float, ...], length=k)
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
        spec = SensingSpec(**sec.parse(SensingSpec, thresholds={"length": m}))
        # a refused thresholds list is reported once, by its own check
        if spec.kind == "energy-threshold" and sec.data.get("thresholds") is None:
            problems.append(f"sensing[{i}].thresholds: required for energy-threshold")
        if spec.kind == "dense-classifier" and spec.model_path is None:
            problems.append(f"sensing[{i}].model_path: required for dense-classifier")
        sensing_specs.append(spec)

    agent = AgentSpec(**_Section(raw.get("agent", {}), "agent", problems).parse(
        AgentSpec, uavs={"high": k}))
    if agent.variant == "qtable" and m > TABULAR_MAX_SUBCHANNELS:
        problems.append(
            f"agent.variant: qtable is limited to M <= {TABULAR_MAX_SUBCHANNELS} "
            f"sub-channels (got M={m})")
    if agent.variant in DQN_VARIANTS and m > DQN_MAX_SUBCHANNELS:
        problems.append(
            f"radio.num_subchannels: {agent.variant} is limited to M <= "
            f"{DQN_MAX_SUBCHANNELS} sub-channels, since its state feature table has "
            f"2^M + 1 rows (got M={m})")
    if agent.variant == "random" and agent.checkpoint is not None:
        problems.append("agent.checkpoint: the random agent has no checkpoint "
                        "to load; remove it or choose a trained variant")
    if agent.batch_size > agent.replay_capacity:
        problems.append(
            f"agent.batch_size: {agent.batch_size} exceeds agent.replay_capacity "
            f"{agent.replay_capacity}, so replay could never fill a batch")
    problems += _epsilon_floor_problems(agent.epsilon0, agent.epsilon_min, "agent")

    dataset = DatasetSpec(**_Section(raw.get("dataset", {}), "dataset", problems).parse(
        DatasetSpec))
    grid, fft_size = dataset.sinr_grid_db, dataset.fft_size
    if len(grid) * dataset.count_per_sinr * fft_size > MAX_DATASET_SAMPLES:
        problems.append(
            f"dataset.count_per_sinr: {dataset.count_per_sinr} observations at each "
            f"of {len(grid)} SINRs, of {fft_size} samples each, exceed the "
            f"{MAX_DATASET_SAMPLES} samples a dataset may hold")
    if fft_size & (fft_size - 1):
        problems.append("dataset.fft_size: must be a power of two")
        fft_size = DatasetSpec.fft_size  # so that SynthConfig does not refuse it again

    try:
        synth = SynthConfig(
            seed=seed, num_subchannels=m, samples_per_observation=fft_size,
            subcarriers_per_subchannel=dataset.subcarriers_per_subchannel
            or max(1, fft_size // m),
            sinr_grid_db=grid, interference_gains_db=dataset.interference_gains_db)
    except ValueError as exc:  # SynthConfig checks what a dataset header holds too
        problems.append(f"dataset.{exc}")

    if problems:
        raise ConfigError(problems)

    return SimConfig(
        seed=seed, radio=RadioParams(**radio_kw), timing=SlotTiming(**timing_kw),
        matrices=tuple(matrices), link=LinkModel(sensing_sinr, access), fusion_n=fusion_n,
        sensing=tuple(sensing_specs), agent=agent, synth=synth, dataset=dataset, **scalars)


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
