"""Spectrum-allocation agents over the fused-occupancy MDP.

State: the code (core.occupancy_codes) of the previous slot's fused
occupancy vector, or INITIAL, code 2^M, before the first fused report of
an episode. Actions: 0 = idle, m in 1..M = transmit on sub-channel m next
slot. A state's code is its Q-table row and feature-table row, so the
state space has 2^M + 1 entries (the extra one is INITIAL) and the action
space M + 1.

Agents only ever execute actions that map to feasible assignments for the
state they observed (idle is always feasible; a sub-channel action
requires its predicted bit to be vacant), which keeps the scheduling
constraints satisfied by construction; check_actions holds every slot of
training and simulation to that, a training episode or a simulated block
of slots at a time.
"""

import csv
import math
import struct
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import nnet
from .channel import TransitionMatrix, sample_occupancy
from .core import code_bits, collision_indicator, occupancy_codes, slot_utility
from .seeds import derive_rng

TABULAR_MAX_SUBCHANNELS = 12
# feature_table(M) holds (2^M + 1) x M floats: 8.4 MB at M = 16, 168 MB at M = 20
DQN_MAX_SUBCHANNELS = 16
Q_DIVERGENCE_LIMIT = 1e6
MAX_REPLAY_CAPACITY = 10 ** 6
# DqnAgent variants; an agent checkpoint stores a variant as its index here
DQN_VARIANTS = ("dqn", "ddqn", "ddqn-soft")


class TabularComplexityError(ValueError):
    """Raised when a dense Q-table would be infeasibly large."""


class InsufficientSamplesError(RuntimeError):
    """Raised when a replay buffer cannot fill a batch yet."""


def table_shape(num_subchannels: int) -> tuple[int, int]:
    """(states, actions) sizing of the tabular formulation."""
    return 2 ** num_subchannels + 1, num_subchannels + 1


def state_features(state: int, num_subchannels: int) -> np.ndarray:
    """Network input of a state code: its M bits as reals; INITIAL becomes
    an all-0.5 vector."""
    if state == 2 ** num_subchannels:
        return np.full(num_subchannels, 0.5)
    return code_bits(state, num_subchannels).astype(float)


def feature_table(num_subchannels: int) -> np.ndarray:
    """state_features of every state, as a (2^M + 1) x M matrix indexed
    by state code."""
    n = 2 ** num_subchannels
    table = np.empty((n + 1, num_subchannels))
    table[:n] = code_bits(np.arange(n), num_subchannels)
    table[n] = 0.5
    return table


def valid_actions(state: int, num_subchannels: int) -> tuple[int, ...]:
    """Idle plus every sub-channel that a state code predicts vacant;
    INITIAL allows idle only (no holes have been detected yet)."""
    if state == 2 ** num_subchannels:
        return (0,)
    return (0, *(np.flatnonzero(code_bits(state, num_subchannels) == 0) + 1).tolist())


def masked_actions(q_values: Sequence[float], valid: Sequence[int], k: int,
                   epsilon: float, rng: np.random.Generator) -> tuple[int, ...]:
    """k actions restricted to the valid set: uniform (without replacement)
    with probability epsilon, else the top-k by Q. Idle pads when fewer
    than k valid actions exist; several agents may idle at once."""
    if rng.random() < epsilon:
        take = min(k, len(valid))
        picks = [int(valid[i]) for i in rng.choice(len(valid), size=take, replace=False)]
    else:
        order = sorted(valid, key=lambda a: (-q_values[a], a))
        picks = [int(a) for a in order[:k]]
    while len(picks) < k:
        picks.append(0)
    return tuple(picks)


@dataclass
class ReplayRing:
    """Preallocated FIFO replay memory of (state code, action, reward,
    next-state code) transitions; at capacity the oldest is overwritten."""

    capacity: int
    insertions: int = 0
    states: np.ndarray = field(init=False, repr=False)
    actions: np.ndarray = field(init=False, repr=False)
    rewards: np.ndarray = field(init=False, repr=False)
    next_states: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.states = np.zeros(self.capacity, dtype=np.intp)
        self.actions = np.zeros(self.capacity, dtype=np.intp)
        self.rewards = np.zeros(self.capacity)
        self.next_states = np.zeros(self.capacity, dtype=np.intp)

    def __len__(self) -> int:
        return min(self.insertions, self.capacity)


def replay_push(ring: ReplayRing, s: int, a: int, r: float, s_next: int) -> None:
    """Store one transition, its states given as codes."""
    if not math.isfinite(r):
        raise ValueError("reward must be finite")
    pos = ring.insertions % ring.capacity
    ring.states[pos] = s
    ring.actions[pos] = a
    ring.rewards[pos] = r
    ring.next_states[pos] = s_next
    ring.insertions += 1


def replay_sample(ring: ReplayRing, batch_size: int,
                  rng: np.random.Generator) -> np.ndarray:
    """Ring positions of a uniform sample without replacement within one
    batch. The draw numbers the stored transitions oldest-first, as a FIFO
    queue would."""
    size = len(ring)
    if size < batch_size:
        raise InsufficientSamplesError(
            f"buffer holds {size} < batch size {batch_size}")
    idx = rng.choice(size, size=batch_size, replace=False)
    if ring.insertions > ring.capacity:  # the oldest sits at the write position
        idx += ring.insertions
        idx %= ring.capacity
    return idx


# ---------------------------------------------------------------------------
# Learner hyperparameters, each declared once: its name is the key in the
# config's `agent` section, its default the default there, and its metadata
# the bounds that config validation checks (config._Section.value), in the
# config and in a checkpoint's header (load_agent)


@dataclass(kw_only=True)
class LearnerSpec:
    """The hyperparameters of every learning agent."""

    gamma: float = field(default=0.9, metadata={"low": 0.0, "below": 1.0})
    epsilon0: float = field(default=1.0, metadata={"low": 0.0, "high": 1.0})
    epsilon_min: float = field(default=0.05, metadata={"low": 0.0, "high": 1.0})
    epsilon_decay: float | None = field(default=None, metadata={"low": 0.0, "high": 1.0})

    def epsilon_at(self, episode: int, episodes: int) -> float:
        """Exponential decay reaching epsilon_min over the first 60% of
        episodes unless an explicit epsilon_decay is given; non-increasing,
        floored."""
        eps0, eps_min, decay = self.epsilon0, self.epsilon_min, self.epsilon_decay
        if decay is None:
            horizon = max(1.0, 0.6 * episodes)
            decay = (eps_min / eps0) ** (1.0 / horizon) if eps0 > 0 else 1.0
        return max(eps_min, eps0 * decay ** episode)


@dataclass(kw_only=True)
class QTableSpec(LearnerSpec):
    """The tabular learner's step-size schedule (see QTable)."""

    alpha: float | None = field(default=None, metadata={"above": 0.0, "high": 1.0})
    alpha_power: float = field(default=0.7, metadata={"low": 0.0, "high": 1.0})


@dataclass(kw_only=True)
class DqnSpec(LearnerSpec):
    """The DQN family's network, replay and target-update settings."""

    hidden: tuple[int, ...] = field(default=(64, 64), metadata={
        "max_length": nnet.MAX_HIDDEN_DEPTH, "item_low": 1, "item_high": nnet.MAX_HIDDEN_WIDTH})
    replay_capacity: int = field(default=10_000, metadata={
        "low": 1, "high": MAX_REPLAY_CAPACITY})
    batch_size: int = field(default=32, metadata={"low": 1})
    target_update_period: int = field(default=100, metadata={"low": 1})
    tau: float = field(default=0.01, metadata={"low": 0.0, "high": 1.0})
    learning_rate: float = field(default=1e-3, metadata={"above": 0.0})


# ---------------------------------------------------------------------------
# Tabular agent


@dataclass
class QTable(QTableSpec):
    """Dense (2^M + 1) x (M + 1) Q-table.

    alpha=None decays the step size per (state, action) as
    visits^(-alpha_power). The default power 0.7 keeps the bootstrap bias
    negligible at desk-scale slot counts; the harmonic schedule
    (alpha_power=1.0) needs astronomically many visits at gamma=0.9.
    """

    num_subchannels: int
    table: np.ndarray = None
    visits: np.ndarray = None

    def __post_init__(self):
        if self.num_subchannels > TABULAR_MAX_SUBCHANNELS:
            states, actions = table_shape(self.num_subchannels)
            raise TabularComplexityError(
                f"a dense Q-table for M={self.num_subchannels} would need "
                f"{states} x {actions} entries; tabular mode is limited to "
                f"M <= {TABULAR_MAX_SUBCHANNELS}")
        shape = table_shape(self.num_subchannels)
        if self.table is None:
            self.table = np.zeros(shape)
        if self.visits is None:
            self.visits = np.zeros(shape, dtype=int)

    def q_row(self, state: int) -> np.ndarray:
        return self.table[state]

    def select(self, state: int, valid, epsilon, rng, k=1):
        row = self.q_row(state)
        return masked_actions(row, valid, k, epsilon, rng), row

    def observe(self, si: int, a: int, r: float, sj: int, rng=None) -> None:
        """One Q-learning backup from state code si to sj:
        Q(s,a) += alpha * (r + gamma max_a' Q(s',a') - Q(s,a))."""
        self.visits[si, a] += 1
        alpha = (self.alpha if self.alpha is not None
                 else float(self.visits[si, a]) ** -self.alpha_power)
        target = r + self.gamma * self.table[sj].max()
        self.table[si, a] += alpha * (target - self.table[si, a])


# ---------------------------------------------------------------------------
# DQN family


@dataclass
class DqnAgent(DqnSpec):
    """Primary/target networks over the M-bit state, with experience replay.

    variant, one of DQN_VARIANTS, selects the bootstrap and target-update
    style: "dqn" is the
    vanilla max-over-target bootstrap with hard copies, "ddqn" decouples
    selection from evaluation, "ddqn-soft" additionally replaces the hard
    copy with polyak averaging.

    The replay ring, the feature table (padded to a multiple of 4 rows),
    the batch's row indices and `networks`, a nnet.NetworkStack of
    (primary, target), are allocated by the first observe, so agents that
    only act never pay for them. The stack moves both networks' parameters
    into the rows of one (2, P) buffer, so a network assigned to `primary`
    or `target` after that is not in it, just as it is not in the Adam
    blocks that the first gradient step builds over the primary's.
    """

    num_subchannels: int
    variant: str = "ddqn-soft"
    seed: int = 0
    primary: nnet.Network = None
    target: nnet.Network = None
    replay: ReplayRing = field(default=None, init=False)
    features: np.ndarray = field(default=None, init=False, repr=False)
    batch_rows: np.ndarray = field(default=None, init=False, repr=False)
    networks: nnet.NetworkStack = field(default=None, init=False, repr=False)
    optimizer: nnet.OptimizerState = field(default=None, init=False)
    train_steps: int = 0

    def __post_init__(self):
        dims = [self.num_subchannels, *self.hidden, self.num_subchannels + 1]
        acts = ["relu"] * len(self.hidden) + ["identity"]
        if self.primary is None:
            self.primary = nnet.build_network(dims, acts, seed=self.seed)
        if self.target is None:
            self.target = nnet.clone_weights(self.primary)
        if self.primary.input_dim != self.num_subchannels:
            raise ValueError("input width must be M")
        if self.primary.output_dim != self.num_subchannels + 1:
            raise ValueError("output width must be M + 1")
        self.optimizer = nnet.OptimizerState(learning_rate=self.learning_rate)

    def q_row(self, state: int) -> np.ndarray:
        return nnet.forward(self.primary, state_features(state, self.num_subchannels))

    def select(self, state: int, valid, epsilon, rng, k=1):
        row = self.q_row(state)
        return masked_actions(row, valid, k, epsilon, rng), row

    def observe(self, si: int, a: int, r: float, sj: int,
                rng: np.random.Generator) -> None:
        """Store the transition from state code si to sj and, once the
        buffer can fill a batch, run one regression step plus the target
        update."""
        if self.replay is None:
            self.replay = ReplayRing(self.replay_capacity)
            # zero rows pad the table to a multiple of 4 rows: OpenBLAS's
            # x86-64 dgemm rounds a trailing group of 1 to 3 rows differently
            # when a product has 2 or 3 columns (the Q head at M <= 2), so
            # table rows equal the same states' rows of any pass of 4k rows;
            # at M <= 2 a batch size that is not a multiple of 4 thus rounds
            # its Q rows unlike the two passes of the other branch
            table = feature_table(self.num_subchannels)
            self.features = np.pad(table, ((0, -len(table) % 4), (0, 0)))
            self.batch_rows = np.arange(self.batch_size)
            self.networks = nnet.NetworkStack([self.primary, self.target])
        ring = self.replay
        replay_push(ring, si, a, r, sj)
        n = self.batch_size
        if len(ring) < n:
            return
        idx = replay_sample(ring, n, rng)
        rows, next_rows = ring.states[idx], ring.next_states[idx]
        if len(self.features) <= 2 * n:
            # one pass of both networks (stack row 0 the primary, 1 the
            # target) over the feature table, each row computed independently,
            # bit for bit; the batch's rows are gathered from it
            x = self.features
            pre, post = nnet.forward_trace(self.networks, x)
            q_next = post[-1].take(next_rows, axis=1)
            q_target, q_primary = q_next[1], q_next[0]
            trace = ([z[0].take(rows, axis=0) for z in pre],
                     [x.take(rows, axis=0), *(a[0].take(rows, axis=0) for a in post[1:])])
        else:  # the table outgrows [batch; next states]: pass over those rows,
            # the primary over all of them and the target over the next states
            x = self.features.take(np.concatenate((rows, next_rows)), axis=0)
            pre, post = nnet.forward_trace(self.primary, x)
            q_target, q_primary = nnet.forward(self.target, x[n:]), post[-1][n:]
            trace = [z[:n] for z in pre], [a[:n] for a in post]
        targets_y = ddqn_targets(self, ring.rewards[idx], q_target, q_primary)
        target_mat = trace[1][-1].copy()
        target_mat[self.batch_rows, ring.actions[idx]] = targets_y
        nnet.backward(self.primary, trace[1][0], target_mat, nnet.MSE, trace)
        nnet.optimizer_step(self.primary, self.optimizer)
        self.train_steps += 1
        if self.variant == "ddqn-soft":
            soft_update(self.target, self.primary, self.tau)
        elif self.train_steps % self.target_update_period == 0:
            np.copyto(self.target.params, self.primary.params)


def ddqn_targets(agent: DqnAgent, rewards: np.ndarray, q_target_next: np.ndarray,
                 q_primary_next: np.ndarray) -> np.ndarray:
    """Per-example regression targets y_i from a batch's rewards and the
    target and primary networks' Q rows of its next states.

    Double mode evaluates the primary network's argmax action under the
    target network; vanilla mode takes the target network's max and
    ignores the primary rows. The task is continuing, so there is no
    terminal masking.
    """
    if agent.variant == "dqn":
        boot = q_target_next.max(axis=1)
    else:
        boot = q_target_next[np.arange(len(rewards)), q_primary_next.argmax(axis=1)]
    return rewards + agent.gamma * boot


def soft_update(target: nnet.Network, primary: nnet.Network, tau: float) -> nnet.Network:
    """Polyak averaging in place: theta' <- tau * theta + (1 - tau) * theta'."""
    target.params *= 1.0 - tau
    target.params += tau * primary.params
    return target


@dataclass
class RandomAgent:
    """Uniform over valid actions; no learning. Baseline policy, whose picks
    block_actions draws itself."""

    num_subchannels: int


# ---------------------------------------------------------------------------
# Training environment (perfectly observed occupancy)


def normalized_reward_table(access_sinr_db) -> np.ndarray:
    """Per-(uav, sub-channel) throughput scaled by the best link in the
    table, so a successful transmission earns at most 1."""
    lin = 10.0 ** (np.asarray(access_sinr_db, dtype=float) / 10.0)
    rates = np.log2(1.0 + lin)
    peak = rates.max()
    if peak <= 0:
        raise ValueError("at least one link must have positive capacity")
    return rates / peak


class SchedulingEnv:
    """Slot-level allocation MDP with perfect sensing: the K x M reward
    table of normalized link rates over the M occupancy chains. train_agent
    walks the chains; an action's reward is its collision indicator times
    its table entry."""

    def __init__(self, matrices: list[TransitionMatrix], reward_table):
        self.matrices = list(matrices)
        self.reward_table = np.asarray(reward_table, dtype=float)


# ---------------------------------------------------------------------------
# Training loop


TRAINING_COLUMNS = ("episode", "cumulative_utility", "collisions", "epsilon",
                    "mean_q", "wall_ms")


def train_agent(agent, env: SchedulingEnv, episodes: int, slots_per_episode: int,
                seed: int) -> list[tuple]:
    """Run the slot loop of the allocation MDP and return per-episode rows
    matching TRAINING_COLUMNS. Reproducible per seed."""
    num_subchannels, num_uavs = len(env.matrices), len(env.reward_table)
    rng_env = derive_rng(seed, 0xE17)
    rng_agent = derive_rng(seed, 0xA9E)
    log = []
    for episode in range(episodes):
        epsilon = agent.epsilon_at(episode, episodes)
        t0 = time.perf_counter()
        # walk[t + 1] is slot t's occupancy and codes[t] its code; slot t
        # plays from slot t - 1's state (INITIAL before the first), so
        # walk[0], the unseen stationary start, becomes INITIAL's all-busy
        # row for check_actions
        walk = sample_occupancy(env.matrices, slots_per_episode + 1, rng_env)
        walk[0] = 1
        codes = occupancy_codes(walk[1:]).tolist()
        state = 2 ** num_subchannels
        cum_utility = 0.0
        collisions = 0
        q_sum = 0.0
        chosen = []  # each slot's actions, checked in one call per episode
        for bits, code in zip(walk[1:], codes):
            valid = valid_actions(state, num_subchannels)
            actions, q_row = agent.select(state, valid, epsilon, rng_agent, k=num_uavs)
            if np.abs(q_row).max() > Q_DIVERGENCE_LIMIT:
                raise RuntimeError(f"Q-values diverged beyond {Q_DIVERGENCE_LIMIT:g}")
            chosen.append(actions)
            outcomes = [(collision_indicator(bits[a - 1], 0), env.reward_table[uav, a - 1])
                        if a else (0, 0.0) for uav, a in enumerate(actions)]
            for action, (r, gain) in zip(actions, outcomes):
                agent.observe(state, action, r * gain, code, rng_agent)
            cum_utility += slot_utility(outcomes)
            collisions += sum(r == -1 for r, _ in outcomes)
            q_sum += max(q_row[a] for a in valid)
            state = code
        check_actions(chosen, walk[:-1])
        wall_ms = (time.perf_counter() - t0) * 1e3
        log.append((episode, cum_utility, collisions, epsilon,
                    q_sum / slots_per_episode, wall_ms))
    return log


def check_actions(actions, states) -> None:
    """Raise RuntimeError unless every slot's actions are feasible for the
    state they were chosen from: (T, K) actions, one per UAV (0 = idle),
    against (T, M) predicted occupancy vectors. Each non-idle action names a
    sub-channel in 1..M that its state predicts vacant, and none is chosen
    twice in a slot; callers pass INITIAL as an all-busy row, since no hole
    is detected before the first fused report. With one action per UAV, no
    UAV gets two sub-channels, and the hole budget |pairs| <= M - (# busy)
    follows."""
    actions, states = np.asarray(actions), np.asarray(states)
    m = states.shape[1]
    takers = (actions[:, :, None] == np.arange(1, m + 1)).sum(axis=1)  # (T, M)
    bad = (takers > (states == 0)).any(axis=1) | ((actions < 0) | (actions > m)).any(axis=1)
    if bad.any():
        t = int(bad.argmax())
        raise RuntimeError(f"agent chose infeasible actions {tuple(actions[t].tolist())} "
                           f"from state {tuple(states[t].tolist())}")


def block_actions(agent, states: np.ndarray, requests: np.ndarray,
                  rng: np.random.Generator, memo: dict) -> np.ndarray:
    """(T, K) actions of T slots: slot t's j-th requesting UAV (requests
    (T, K), in UAV order) takes its j-th pick from the holes of states[t],
    and the other UAVs idle (0). A RandomAgent's picks sort the slot's valid
    actions by its row of one rng.random((T, M + 1)) draw of keys (busy ones
    masked, idle padding): a uniform ordering. Another agent's picks for k
    requesters are its greedy select(state, valid, 0.0, rng, k), made once
    per (state, k) and kept in memo, which only a non-learning agent may
    share across calls."""
    t, m = states.shape
    k = requests.shape[1]
    if isinstance(agent, RandomAgent):
        keys = rng.random((t, m + 1))
        keys[:, 1:][states != 0] = 2.0  # after every valid action's key
        order = np.argsort(keys, axis=1, kind="stable")
        valid = m + 1 - states.sum(axis=1, dtype=np.int64)
        order[np.arange(m + 1) >= valid[:, None]] = 0
        picks = np.zeros((t, max(k, m + 1)), dtype=np.int64)
        picks[:, :m + 1] = order
    else:
        counts = requests.sum(axis=1)
        keys = occupancy_codes(states) * (k + 1) + counts
        uniques, inverse = np.unique(keys, return_inverse=True)
        for key in uniques.tolist():
            if key not in memo:
                state, n = divmod(key, k + 1)
                chosen = agent.select(state, valid_actions(state, m), 0.0, rng, k=n)[0] if n else ()
                memo[key] = (list(chosen) + [0] * k)[:k]
        picks = np.array([memo[key] for key in uniques.tolist()],
                         dtype=np.int64).reshape(-1, k)[inverse]
    ranks = np.maximum(np.cumsum(requests, axis=1) - 1, 0)
    return np.where(requests, np.take_along_axis(picks, ranks, axis=1), 0)


def write_training_csv(path: str, rows) -> None:
    """Persist a training log.

    The wall_ms column is zeroed on disk so that identical (config, seed)
    runs produce byte-identical files; measured timings stay in the
    in-memory rows, and the CLI reports only the total training time on
    stderr.
    """
    with open(path, "w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(TRAINING_COLUMNS)
        for row in rows:
            writer.writerow([row[0], repr(float(row[1])), row[2],
                             repr(float(row[3])), repr(float(row[4])), 0])


# ---------------------------------------------------------------------------
# Agent checkpoints


AGENT_MAGIC, QTABLE_MAGIC = b"UAGC", b"UQTB"
AGENT_VERSION = 1  # of both formats
# magic -> (header layout, the kind's name in messages)
AGENT_HEADERS = {AGENT_MAGIC: ("<4sIIIdddddIId", "agent"),
                 QTABLE_MAGIC: ("<4sIIddd", "q-table")}


def save_agent(agent: DqnAgent | QTable, path: str) -> None:
    """Write a learning agent. A DqnAgent is UAGC: its hyperparameter
    header, then the primary network block (the target network is rebuilt
    as a copy on load; the replay buffer is not persisted). A QTable is
    UQTB: its header, then the table as <f8 and the visit counts as <i8,
    both row-major."""
    if isinstance(agent, QTable):
        alpha = float("nan") if agent.alpha is None else agent.alpha
        magic, fields = QTABLE_MAGIC, (agent.gamma, alpha, agent.alpha_power)
        body = agent.table.astype("<f8").tobytes() + agent.visits.astype("<i8").tobytes()
    else:
        decay = -1.0 if agent.epsilon_decay is None else agent.epsilon_decay
        magic, fields = AGENT_MAGIC, (
            DQN_VARIANTS.index(agent.variant), agent.gamma, agent.epsilon0, agent.epsilon_min,
            decay, agent.tau, agent.batch_size, agent.target_update_period,
            agent.learning_rate)
        body = nnet.network_to_bytes(agent.primary)
    header = struct.pack(AGENT_HEADERS[magic][0], magic, AGENT_VERSION,
                         agent.num_subchannels, *fields)
    with open(path, "wb") as f:
        f.write(header + body)


def _checked_header(path: str, spec, **header) -> dict:
    """`header`, the learner settings of `spec`'s fields that a checkpoint
    stores, if validate_config would accept them; otherwise a ValueError
    that names `path` and every refused field."""
    from .config import header_problems  # config imports this module
    if problems := header_problems(header, spec):
        raise ValueError(f"{path}: " + "; ".join(problems))
    return header


def load_agent(path: str) -> DqnAgent | QTable:
    """Read an agent checkpoint of either kind, told apart by its magic. A
    malformed file, a header value that config would refuse, or a network
    the agent's constructor refuses raises a ValueError that names it."""
    with open(path, "rb") as f:
        data = f.read()
    if data[:4] not in AGENT_HEADERS:
        raise ValueError(f"{path}: not an agent checkpoint")
    fmt, kind = AGENT_HEADERS[data[:4]]
    offset = struct.calcsize(fmt)
    if len(data) < offset:
        raise ValueError(f"{path}: truncated {kind} header")
    _, version, m, *fields = struct.unpack_from(fmt, data)
    if version != AGENT_VERSION:
        raise ValueError(f"{path}: unsupported {kind} version {version}")
    if kind == "agent":
        code, gamma, eps0, eps_min, decay, tau, batch, period, lr = fields
        if code >= len(DQN_VARIANTS):
            raise ValueError(f"{path}: unknown agent variant code {code}")
        header = _checked_header(
            path, DqnSpec, gamma=gamma, epsilon0=eps0, epsilon_min=eps_min,
            epsilon_decay=None if decay < 0 else decay, tau=tau,
            batch_size=batch, target_update_period=period, learning_rate=lr)
        primary = nnet.network_from_bytes(data, offset=offset, source=path)
        cls, kwargs = DqnAgent, dict(
            variant=DQN_VARIANTS[code],
            hidden=tuple(l.w.shape[0] for l in primary.layers[1:]),
            primary=primary, target=nnet.clone_weights(primary), **header)
    else:
        gamma, alpha, alpha_power = fields
        header = _checked_header(path, QTableSpec, gamma=gamma, alpha_power=alpha_power,
                                 alpha=None if np.isnan(alpha) else alpha)
        if m > TABULAR_MAX_SUBCHANNELS:
            raise ValueError(f"{path}: q-table for M={m} exceeds the tabular limit "
                             f"M <= {TABULAR_MAX_SUBCHANNELS}")
        shape = table_shape(m)
        n = shape[0] * shape[1]
        expected = offset + 16 * n
        if len(data) != expected:
            raise ValueError(f"{path}: {len(data)} bytes where a q-table for M={m} needs "
                             f"{expected}: " + ("truncated" if len(data) < expected
                                                else "trailing bytes"))
        values = np.frombuffer(data, dtype="<f8", count=n, offset=offset)
        visits = np.frombuffer(data, dtype="<i8", count=n, offset=offset + 8 * n)
        cls, kwargs = QTable, dict(table=values.reshape(shape).copy(),
                                   visits=visits.reshape(shape).astype(int).copy(), **header)
    try:
        return cls(num_subchannels=m, **kwargs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
