import itertools
import re
import struct

import numpy as np
import pytest

from uavdsa import nnet
from uavdsa import scheduler as sch
from uavdsa import simulate
from uavdsa.channel import TransitionMatrix
from uavdsa.config import validate_config
from uavdsa.core import mask_occupancy
from uavdsa.seeds import derive_rng

CHI2_99 = {1: 6.63, 2: 9.21, 3: 11.34, 4: 13.28, 16: 32.0}


class TestStateEncoding:
    def test_sizing_for_16_subchannels(self):
        assert sch.table_shape(16) == (65537, 17)

    def test_all_vacant_is_index_zero(self):
        assert sch.state_index((0, 0, 0, 0), 4) == 0

    def test_convention_arithmetic(self):
        assert sch.state_index((1, 0), 2) == 1
        assert sch.state_index(None, 2) == 4

    def test_roundtrip(self):
        for idx in range(2 ** 3):
            assert sch.state_index(mask_occupancy(idx, 3), 3) == idx

    def test_state_of_another_length_is_refused(self):
        # (1,) read as M=2 would index the row of (1, 0)
        with pytest.raises(ValueError, match="state length does not match M"):
            sch.state_index((1,), 2)

    def test_network_features(self):
        assert np.array_equal(sch.state_features((1, 0, 1), 3), [1.0, 0.0, 1.0])
        assert np.array_equal(sch.state_features(None, 3), [0.5, 0.5, 0.5])


class TestEpsilonGreedy:
    # greedy single-action selection, every action valid
    def test_greedy_argmax(self):
        assert sch.masked_actions([1.0, 3.0, 2.0], (0, 1, 2), 1, 0.0,
                                  derive_rng(0)) == (1,)


class TestTopK:
    # greedy top-k selection with k = 1, every action valid
    def test_k1_is_argmax(self):
        assert sch.masked_actions([0.0, 9.0, 7.0, 8.0], (0, 1, 2, 3), 1, 0.0,
                                  derive_rng(0)) == (1,)


class TestValidAndMasked:
    def test_initial_allows_idle_only(self):
        assert sch.valid_actions(None, 4) == (0,)

    def test_vacant_channels_plus_idle(self):
        assert sch.valid_actions((0, 1, 0, 1), 4) == (0, 1, 3)

    def test_masked_greedy_respects_validity(self):
        q = [0.0, 9.0, 8.0, 7.0, 6.0]
        actions = sch.masked_actions(q, (0, 2, 4), 2, 0.0, derive_rng(0))
        assert actions == (2, 4)

    def test_masked_pads_with_idle(self):
        actions = sch.masked_actions([0.0, 1.0], (0,), 2, 0.0, derive_rng(0))
        assert actions == (0, 0)

    # every action valid: plain greedy / top-k / uniform selection
    def test_masked_tie_break_lowest_index(self):
        assert sch.masked_actions([5.0, 5.0, 1.0], (0, 1, 2), 1, 0.0,
                                  derive_rng(0)) == (0,)

    def test_masked_descending_with_ties(self):
        assert sch.masked_actions([0.0, 9.0, 7.0, 8.0], (0, 1, 2, 3), 2, 0.0,
                                  derive_rng(0)) == (1, 3)
        assert sch.masked_actions([5.0, 5.0, 5.0], (0, 1, 2), 2, 0.0,
                                  derive_rng(0)) == (0, 1)

    def test_masked_uniform_at_epsilon_one(self):
        rng = derive_rng(1)
        counts = np.zeros(3)
        draws = 10 ** 4
        for _ in range(draws):
            (a,) = sch.masked_actions([9.0, 0.0, -9.0], (0, 1, 2), 1, 1.0, rng)
            counts[a] += 1
        expected = draws / 3
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= CHI2_99[2]

    def test_masked_exploration_stays_valid(self):
        rng = derive_rng(3)
        valid = (0, 2, 3)
        for _ in range(500):
            for a in sch.masked_actions([0.0, 5.0, 1.0, 2.0], valid, 2, 1.0, rng):
                assert a in valid


class TestQUpdate:
    def test_alpha_one_gamma_zero_writes_reward(self):
        t = sch.QTable(num_subchannels=2, gamma=0.0, alpha=1.0)
        t.observe(0, 1, 5.0, 3)  # from (0, 0) to (1, 1)
        assert t.q_row((0, 0))[1] == 5.0

    def test_hand_arithmetic(self):
        t = sch.QTable(num_subchannels=2, gamma=0.9, alpha=0.5)
        t.table[sch.state_index((1, 1), 2)] = [2.0, 0.0, 0.0]
        t.observe(0, 1, 1.0, 3)
        assert t.q_row((0, 0))[1] == pytest.approx(1.4)

    def test_geometric_fixed_point(self):
        # single recurrent state, r=1, gamma=0.5 -> Q -> 1/(1-gamma) = 2
        t = sch.QTable(num_subchannels=0, gamma=0.5, alpha=0.5)
        for _ in range(200):
            t.observe(0, 0, 1.0, 0)
        assert t.q_row(())[0] == pytest.approx(2.0, rel=1e-4)

    def test_tabular_refuses_m16(self):
        with pytest.raises(sch.TabularComplexityError, match="65537 x 17"):
            sch.QTable(num_subchannels=16)


class TestDdqnTargets:
    # two next states, gamma 0.9: the primary prefers action 1 in both rows
    Q_TARGET = np.array([[0.3, 0.2], [0.1, 0.4]])
    Q_PRIMARY = np.array([[0.1, 0.5], [0.0, 0.6]])

    def _agent(self, variant, gamma=0.9):
        return sch.DqnAgent(num_subchannels=1, variant=variant, gamma=gamma, seed=0)

    def test_gamma_zero_returns_rewards(self):
        y = sch.ddqn_targets(self._agent("ddqn", gamma=0.0), np.array([1.0, -2.0]),
                             self.Q_TARGET, self.Q_PRIMARY)
        assert np.array_equal(y, [1.0, -2.0])

    def test_double_decouples_selection_from_evaluation(self):
        y = sch.ddqn_targets(self._agent("ddqn"), np.array([1.0, 1.0]),
                             self.Q_TARGET, self.Q_PRIMARY)
        assert y == pytest.approx([1.18, 1.36])  # 1 + 0.9 * target[argmax primary]

    def test_vanilla_uses_target_max(self):
        y = sch.ddqn_targets(self._agent("dqn"), np.array([1.0, 1.0]),
                             self.Q_TARGET, self.Q_PRIMARY)
        assert y == pytest.approx([1.27, 1.36])  # 1 + 0.9 * max target


class TestDqnAgent:
    # (M, batch size, passes): the padded feature table has 8 rows at M = 2,
    # no more than [batch; next states] (8), so both networks run once over
    # it as a stack; at M = 3 it has 12, so the primary runs over those 8
    # rows and the target over the 4 next states
    PASSES = [(2, 4, [("stack", 8)], []),
              (3, 4, [("primary", 8), ("target", 4)], [("target", 4)])]

    @pytest.mark.parametrize("m,batch,traces,forwards", PASSES, ids=["table", "batch"])
    @pytest.mark.parametrize("variant", sch.DQN_VARIANTS)
    def test_gradient_step_makes_one_pass_per_network_or_stack(
            self, variant, m, batch, traces, forwards, monkeypatch):
        agent = sch.DqnAgent(num_subchannels=m, variant=variant, hidden=(4,),
                             batch_size=batch, seed=0)
        seen_traces, seen_forwards = [], []
        trace, forward = nnet.forward_trace, nnet.forward

        def role(net):
            return {id(agent.primary): "primary", id(agent.target): "target",
                    id(agent.networks): "stack"}[id(net)]

        def spy_trace(net, x):  # every pass, nnet.forward's included
            seen_traces.append((role(net), len(x)))
            return trace(net, x)

        def spy_forward(net, x):
            seen_forwards.append((role(net), len(x)))
            return forward(net, x)

        monkeypatch.setattr(nnet, "forward_trace", spy_trace)
        monkeypatch.setattr(nnet, "forward", spy_forward)
        rng = derive_rng(0)
        for _ in range(batch):  # the last fills the batch: one gradient step
            agent.observe(2, 1, 1.0, 1, rng)  # from (0, 1, ...) to (1, 0, ...)
        assert agent.train_steps == 1
        assert (seen_traces, seen_forwards) == (traces, forwards)
        seen_traces.clear()
        seen_forwards.clear()
        sch.ddqn_targets(agent, np.ones(3), np.zeros((3, 3)), np.zeros((3, 3)))
        assert seen_traces == seen_forwards == []

    # (M, batch size): the first two pass over the (padded) feature table,
    # the last two over [batch; next states]; each step must equal the
    # step below, which runs the networks apart, bit for bit (at M <= 2 only
    # for a batch size that is a multiple of 4: see the padding in observe)
    REFERENCE_CASES = [(2, 4), (4, 32), (5, 16), (6, 32)]

    @staticmethod
    def reference_step(agent, ring, features, rng):
        """One gradient step as a primary trace over [batch; next states],
        a target forward over the next states and backward on the first half."""
        n = agent.batch_size
        idx = sch.replay_sample(ring, n, rng)
        feats = features.take(np.concatenate((ring.states[idx], ring.next_states[idx])),
                              axis=0)
        pre, post = nnet.forward_trace(agent.primary, feats)
        y = sch.ddqn_targets(agent, ring.rewards[idx], nnet.forward(agent.target, feats[n:]),
                             post[-1][n:])
        target_mat = post[-1][:n].copy()
        target_mat[np.arange(n), ring.actions[idx]] = y
        nnet.backward(agent.primary, feats[:n], target_mat, nnet.MSE,
                      ([z[:n] for z in pre], [a[:n] for a in post]))
        nnet.optimizer_step(agent.primary, agent.optimizer)
        agent.train_steps += 1
        if agent.variant == "ddqn-soft":
            sch.soft_update(agent.target, agent.primary, agent.tau)
        elif agent.train_steps % agent.target_update_period == 0:
            np.copyto(agent.target.params, agent.primary.params)

    @pytest.mark.parametrize("m,batch", REFERENCE_CASES)
    @pytest.mark.parametrize("variant", sch.DQN_VARIANTS)
    def test_observe_equals_separate_passes_bit_for_bit(self, variant, m, batch):
        kwargs = dict(num_subchannels=m, variant=variant, batch_size=batch, seed=m,
                      replay_capacity=batch + 24, target_update_period=7, tau=0.3)
        agent, ref = sch.DqnAgent(**kwargs), sch.DqnAgent(**kwargs)
        ring, features = sch.ReplayRing(ref.replay_capacity), sch.feature_table(m)
        rng, ref_rng = derive_rng(m, 1), derive_rng(m, 1)
        codes = np.random.default_rng(m).integers(0, 2 ** m + 1, size=(batch + 60, 2))
        for si, sj in codes.tolist():  # 61 gradient steps; the ring wraps
            a, r = sj % (m + 1), (si - sj) / 7.0
            agent.observe(si, a, r, sj, rng)
            sch.replay_push(ring, si, a, r, sj)
            if len(ring) >= batch:
                self.reference_step(ref, ring, features, ref_rng)
        assert agent.replay.insertions > agent.replay.capacity
        assert agent.train_steps == ref.train_steps == 61
        assert agent.primary.params.tobytes() == ref.primary.params.tobytes()
        assert agent.target.params.tobytes() == ref.target.params.tobytes()
        assert [v.tobytes() for v in agent.optimizer.slots] == [
            v.tobytes() for v in ref.optimizer.slots]


class TestSoftUpdate:
    def _pair(self):
        primary = sch.DqnAgent(num_subchannels=2, seed=1).primary
        target = sch.DqnAgent(num_subchannels=2, seed=2).primary
        return target, primary

    def test_tau_one_copies(self):
        target, primary = self._pair()
        sch.soft_update(target, primary, 1.0)
        x = np.array([0.0, 1.0])
        assert np.allclose(
            np.asarray([l.w for l in target.layers][0]),
            np.asarray([l.w for l in primary.layers][0]))
        assert np.allclose(nnet.forward(target, x), nnet.forward(primary, x))

    def test_tau_zero_no_op(self):
        target, primary = self._pair()
        before = target.layers[0].w.copy()
        sch.soft_update(target, primary, 0.0)
        assert np.array_equal(target.layers[0].w, before)

    def test_halfway(self):
        target, primary = self._pair()
        target.layers[0].w[:] = 0.0
        primary.layers[0].w[:] = 2.0
        sch.soft_update(target, primary, 0.5)
        assert np.allclose(target.layers[0].w, 1.0)


class TestReplay:
    @staticmethod
    def _ring(capacity, rewards):
        ring = sch.ReplayRing(capacity=capacity)
        for r in rewards:
            sch.replay_push(ring, 0, 0, float(r), 0)
        return ring

    def test_fifo_eviction(self):
        ring = self._ring(3, range(4))
        assert len(ring) == 3 and ring.insertions == 4
        # draws number the stored transitions oldest-first: 1.0, 2.0, 3.0
        draws = derive_rng(0).choice(3, size=3, replace=False)
        batch = ring.rewards[sch.replay_sample(ring, 3, derive_rng(0))]
        assert list(batch) == [[1.0, 2.0, 3.0][i] for i in draws]

    def test_full_batch_is_permutation(self):
        ring = self._ring(5, range(5))
        batch = ring.rewards[sch.replay_sample(ring, 5, derive_rng(0))]
        assert sorted(batch) == [0.0, 1.0, 2.0, 3.0, 4.0]

    def test_insufficient_samples(self):
        ring = self._ring(5, [0.0])
        with pytest.raises(sch.InsufficientSamplesError):
            sch.replay_sample(ring, 2, derive_rng(0))

    def test_sampling_uniform(self):
        ring = self._ring(16, range(24))  # wrapped: holds rewards 8..23
        rng = derive_rng(5)
        counts = np.zeros(16)
        draws = 10 ** 4
        for _ in range(draws):
            for r in ring.rewards[sch.replay_sample(ring, 2, rng)]:
                counts[int(r) - 8] += 1
        expected = draws * 2 / 16
        chi2 = float(((counts - expected) ** 2 / expected).sum())
        assert chi2 <= 2 * CHI2_99[16]  # 15 dof, generous bound

    def test_experience_rejects_nonfinite_reward(self):
        ring = sch.ReplayRing(capacity=4)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError):
                sch.replay_push(ring, 0, 0, bad, 0)
        assert ring.insertions == 0
        agent = sch.DqnAgent(num_subchannels=1, hidden=(4,), seed=0)
        with pytest.raises(ValueError):
            agent.observe(0, 1, float("nan"), 0, derive_rng(0))

    def test_ring_allocated_by_first_observe(self):
        agent = sch.DqnAgent(num_subchannels=2, hidden=(4,), replay_capacity=8,
                             batch_size=2, seed=0)
        assert agent.replay is None
        rng = derive_rng(1)
        for r in range(10):
            agent.observe(2, 1, float(r), 4, rng)  # from (0, 1) to INITIAL
        assert agent.replay.capacity == 8 and agent.replay.insertions == 10
        assert sorted(agent.replay.rewards) == [float(r) for r in range(2, 10)]
        assert set(agent.replay.states) == {sch.state_index((0, 1), 2)}
        assert set(agent.replay.next_states) == {sch.state_index(None, 2)}
        assert agent.train_steps == 9

    def test_feature_table_rows_are_state_features(self):
        table = sch.feature_table(3)
        assert table.shape == (9, 3)
        for idx in range(9):
            state = mask_occupancy(idx, 3) if idx < 8 else None  # 8 is INITIAL
            assert np.array_equal(table[idx], sch.state_features(state, 3))


class TestValueIteration:
    def test_always_vacant_geometric_value(self):
        mats = [TransitionMatrix(0.0, 1.0)]
        v, policy = sch.value_iteration(mats, [1.0], 0.9)
        assert v[0] == pytest.approx(10.0, abs=1e-6)
        assert policy[0] == 1

    def test_gamma_zero_is_myopic(self):
        mats = [TransitionMatrix(0.1, 0.5), TransitionMatrix(0.4, 0.5)]
        rewards = [0.5, 1.0]
        _, policy = sch.value_iteration(mats, rewards, 0.0)
        for s in range(4):
            best, best_val = 0, 0.0
            for m in range(2):
                if (s >> m) & 1 == 0:
                    val = rewards[m] * (1 - 2 * mats[m].p01)
                    if val > best_val:
                        best, best_val = m + 1, val
            assert policy[s] == best

    def test_policy_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            mats = [TransitionMatrix(rng.uniform(0, 0.5), rng.uniform(0.1, 0.9))
                    for _ in range(2)]
            rewards = rng.uniform(0.2, 1.0, size=2)
            gamma = 0.9
            v, policy = sch.value_iteration(mats, rewards, gamma, tol=1e-12)
            p = sch._joint_transition(mats)
            r_exp = sch._expected_rewards(mats, rewards)
            best_value = -np.inf
            valid_sets = [[a for a in range(3) if np.isfinite(r_exp[s, a])]
                          for s in range(4)]
            for choice in itertools.product(*valid_sets):
                r_pi = np.array([r_exp[s, a] for s, a in enumerate(choice)])
                v_pi = np.linalg.solve(np.eye(4) - gamma * p, r_pi)
                best_value = max(best_value, v_pi.sum())
            v_star = np.linalg.solve(
                np.eye(4) - gamma * p,
                np.array([r_exp[s, policy[s]] for s in range(4)]))
            assert v_star.sum() == pytest.approx(best_value, abs=1e-8)
            assert np.allclose(v, v_star, atol=1e-6)

    def test_refuses_large_m(self):
        mats = [TransitionMatrix(0.2, 0.3)] * 11
        with pytest.raises(ValueError, match="M <= 10"):
            sch.value_iteration(mats, [1.0] * 11, 0.9)

    def test_expected_utility_of_idle_policy_is_zero(self):
        env = sch.preset_scheduling_env(2)
        policy = np.zeros(4, dtype=int)
        assert sch.policy_expected_utility(env.matrices, env.reward_table[0],
                                           policy) == 0.0

    # gamma = 1 would never converge, extra rewards would be ignored, and an
    # infeasible action would score -inf (or NaN where a state has no weight)
    @pytest.mark.parametrize("misuse,message", [
        (lambda mats: sch.value_iteration(mats, [1.0, 1.0], 1.0), "gamma"),
        (lambda mats: sch.value_iteration(mats, [1.0, 1.0, 1.0], 0.9), "one reward per"),
        (lambda mats: sch.policy_expected_utility(mats, [1.0, 1.0], np.full(4, 1)),
         "infeasible action"),
    ], ids=["gamma", "rewards", "policy"])
    def test_oracle_refuses_misuse(self, misuse, message):
        with pytest.raises(ValueError, match=message):
            misuse([TransitionMatrix(0.2, 0.3)] * 2)


class TestEpsilonSchedule:
    def test_non_increasing_and_floored(self):
        agent = sch.QTable(num_subchannels=2, epsilon0=1.0, epsilon_min=0.05)
        values = [agent.epsilon_at(e, 100) for e in range(100)]
        assert all(a >= b for a, b in zip(values, values[1:]))
        assert min(values) >= 0.05
        assert values[60] == pytest.approx(0.05, abs=0.01)


class TestTrainAgent:
    def test_gamma_zero_single_vacant_channel_learns_to_transmit(self):
        env = sch.SchedulingEnv([TransitionMatrix(0.0, 1.0)], [[1.0]])
        agent = sch.DqnAgent(num_subchannels=1, variant="dqn", gamma=0.0,
                             hidden=(16,), seed=0)
        sch.train_agent(agent, env, episodes=30, slots_per_episode=40, seed=1)
        for state in ((0,),):
            row = agent.q_row(state)
            assert row[1] > row[0]

    def test_same_seed_identical_log(self):
        env = sch.preset_scheduling_env(2)
        logs = []
        for _ in range(2):
            agent = sch.QTable(num_subchannels=2, gamma=0.9)
            logs.append(sch.train_agent(agent, env, episodes=5,
                                        slots_per_episode=50, seed=9))
        strip = lambda log: [row[:5] for row in log]  # wall_ms differs
        assert strip(logs[0]) == strip(logs[1])

    def test_every_action_feasible_for_its_state(self):
        env = sch.preset_scheduling_env(4, num_uavs=2)
        # epsilon stays 1.0: every pick is masked_actions' uniform branch
        agent = sch.QTable(num_subchannels=4, epsilon0=1.0, epsilon_min=1.0)
        # check_actions raises on any violation, so completion is the check
        log = sch.train_agent(agent, env, episodes=4, slots_per_episode=200, seed=3)
        assert len(log) == 4

    def test_divergence_guard(self):
        env = sch.preset_scheduling_env(2)
        agent = sch.QTable(num_subchannels=2, gamma=0.9, alpha=0.5)
        agent.table[:] = 2e6
        with pytest.raises(RuntimeError, match="diverged"):
            sch.train_agent(agent, env, episodes=1, slots_per_episode=10, seed=0)


# (case, actions one per UAV, state they were chosen from, feasible)
ACTION_CASES = [
    ("ok", (1, 2), (0, 0, 1, 1), True),
    ("hole-budget-implied-by-ok", (1, 0, 3), (0, 1, 0, 1), True),
    ("all-idle-always-ok", (0, 0, 0), (1, 1, 1), True),
    ("idle-from-initial", (0, 0), None, True),
    ("channel-assigned-twice", (1, 1), (0, 1, 1, 1), False),
    ("no-holes", (1,), (1, 1), False),
    ("predicted-busy", (0, 2, 3), (0, 0, 1), False),
    ("transmit-from-initial", (1,), None, False),
    ("out-of-range", (4,), (0, 0, 0), False),
    ("below-range", (0, -1), (0, 0, 0), False),
]


@pytest.mark.parametrize("actions,state,feasible", [c[1:] for c in ACTION_CASES],
                         ids=[c[0] for c in ACTION_CASES])
def test_check_actions(actions, state, feasible):
    # a one-slot block; INITIAL is passed as an all-busy row
    state = (1,) * 4 if state is None else state
    if not feasible:
        with pytest.raises(RuntimeError, match=re.escape(f"{actions} from state {state}")):
            sch.check_actions([actions], [state])
        return
    sch.check_actions([actions], [state])
    # the hole budget |pairs| <= M - (# busy) follows
    assert sum(a != 0 for a in actions) + sum(state) <= len(state)


def test_check_actions_names_the_first_infeasible_slot_of_a_block():
    states = [(0, 0, 1), (0, 1, 0), (1, 1, 0), (0, 0, 0)]
    actions = [(1, 2), (3, 0), (1, 0), (2, 2)]  # slot 2 takes a busy channel, slot 3 shares one
    with pytest.raises(RuntimeError, match=re.escape("(1, 0) from state (1, 1, 0)")):
        sch.check_actions(actions, states)
    sch.check_actions(actions[:2], states[:2])


def place(picks, requesting, k):
    """The per-slot rule: the j-th requesting UAV takes picks[j], idle past them."""
    row = [0] * k
    for j, uav in enumerate(u for u, r in enumerate(requesting) if r):
        row[uav] = picks[j] if j < len(picks) else 0
    return row


def test_random_block_actions_follow_the_per_slot_rule():
    """Slot t's keys are row t of one rng.random((T, M + 1)) draw, and its
    valid actions sorted by key are the requesting UAVs' actions; two
    blocks draw what one does. K > M + 1, so idle pads."""
    m, k, t = 4, 6, 300
    rng = derive_rng(5)
    states = (rng.random((t, m)) < 0.5).astype(np.int8)
    requests = rng.random((t, k)) < 0.6
    agent = sch.RandomAgent(num_subchannels=m)
    got = sch.block_actions(agent, states, requests, derive_rng(6), {})
    keys = derive_rng(6).random((t, m + 1))
    for row, state, requesting, key in zip(got.tolist(), states.tolist(), requests.tolist(),
                                           keys.tolist()):
        order = sorted(sch.valid_actions(tuple(state), m), key=lambda a: key[a])
        assert row == place(order, requesting, k)
    split = derive_rng(6)
    assert np.array_equal(got, np.concatenate([
        sch.block_actions(agent, states[:77], requests[:77], split, {}),
        sch.block_actions(agent, states[77:], requests[77:], split, {})]))


def test_learning_block_actions_are_memoized_greedy_selects():
    m, k, t = 3, 3, 200
    agent = sch.QTable(num_subchannels=m)
    agent.table[:] = derive_rng(1).normal(size=agent.table.shape)
    rng = derive_rng(2)
    states = (rng.random((t, m)) < 0.5).astype(np.int8)
    requests = rng.random((t, k)) < 0.5
    memo = {}
    got = sch.block_actions(agent, states, requests, derive_rng(3), memo)
    for row, state, requesting in zip(got.tolist(), states.tolist(), requests.tolist()):
        state = tuple(state)
        picks, _ = agent.select(state, sch.valid_actions(state, m), 0.0, derive_rng(0),
                                k=sum(requesting))
        assert row == place(picks, requesting, k)
    assert len(memo) == len({(tuple(s), sum(r))
                             for s, r in zip(states.tolist(), requests.tolist())})


class PlantedAgent:
    """Idles except where `plant(state, k)` returns an infeasible choice.
    Not a RandomAgent, whose block draw in simulate never calls select."""

    def __init__(self, num_subchannels, plant):
        self.num_subchannels = num_subchannels
        self.plant = plant

    def select(self, state, valid, epsilon, rng, k=1):
        actions = self.plant(state, k) or (0,) * k
        return actions, np.zeros(self.num_subchannels + 1)

    def observe(self, s, a, r, s_next, rng=None):
        pass

    def epsilon_at(self, episode, episodes):
        return 1.0


# each plant idles (returns a false value) until the state lets it break its rule
PLANTS = {
    "busy": lambda s, k: s and 1 in s and (s.index(1) + 1,) + (0,) * (k - 1),
    "shared": lambda s, k: s and 0 in s and (s.index(0) + 1,) * 2 + (0,) * (k - 2),
    "from-initial": lambda s, k: s is None and (1,) + (0,) * (k - 1),
}


@pytest.mark.parametrize("plant", sorted(PLANTS))
def test_train_agent_refuses_a_planted_violation(plant):
    env = sch.preset_scheduling_env(4, num_uavs=2)
    with pytest.raises(RuntimeError, match="infeasible actions"):
        sch.train_agent(PlantedAgent(4, PLANTS[plant]), env, episodes=1,
                        slots_per_episode=50, seed=3)


# simulate allocates only from a fused vector, never from INITIAL
@pytest.mark.parametrize("plant", ["busy", "shared"])
def test_run_simulation_refuses_a_planted_violation(plant, monkeypatch):
    cfg = validate_config({"seed": 5, "radio": {"num_subchannels": 4, "num_uavs": 3},
                           "dataset": {"fft_size": 256}, "sensing": {"kind": "perfect"},
                           "agent": {"variant": "random"}, "episodes": 1,
                           "slots_per_episode": 50})
    monkeypatch.setattr(simulate, "build_agent",
                        lambda config: PlantedAgent(4, PLANTS[plant]))
    with pytest.raises(RuntimeError, match="infeasible actions"):
        simulate.run_simulation(cfg)


class TestCheckpoints:
    def test_agent_roundtrip(self, tmp_path):
        agent = sch.DqnAgent(num_subchannels=4, variant="ddqn-soft", gamma=0.85,
                             tau=0.02, seed=5)
        path = str(tmp_path / "agent.ckpt")
        sch.save_agent(agent, path)
        loaded = sch.load_agent(path)
        assert isinstance(loaded, sch.DqnAgent) and loaded.variant == "ddqn-soft"
        assert loaded.gamma == 0.85
        assert loaded.tau == 0.02
        x = sch.state_features((0, 1, 0, 1), 4)
        from uavdsa import nnet
        assert np.allclose(nnet.forward(agent.primary, x),
                           nnet.forward(loaded.primary, x), atol=1e-5)

    def test_network_input_must_be_m(self, tmp_path):
        from uavdsa import nnet
        agent = sch.DqnAgent(num_subchannels=4, hidden=(3,), seed=0)
        agent.primary = nnet.build_network([3, 3, 5], ["relu", "identity"], seed=0)
        path = str(tmp_path / "agent.ckpt")
        sch.save_agent(agent, path)
        with pytest.raises(ValueError, match="input width must be M"):
            sch.load_agent(path)

    def test_qtable_roundtrip(self, tmp_path):
        t = sch.QTable(num_subchannels=3, gamma=0.8, alpha=None, alpha_power=0.6)
        t.table[2, 1] = 4.5
        t.visits[2, 1] = 7
        path = str(tmp_path / "table.ckpt")
        sch.save_agent(t, path)
        loaded = sch.load_agent(path)
        assert isinstance(loaded, sch.QTable)
        assert loaded.gamma == 0.8 and loaded.alpha is None
        assert loaded.alpha_power == 0.6
        assert loaded.table[2, 1] == 4.5 and loaded.visits[2, 1] == 7


def _patch_u32(data: bytes, offset: int, value: int) -> bytes:
    return data[:offset] + struct.pack("<I", value) + data[offset + 4:]


AGENT_HEADER = struct.calcsize("<4sIIIdddddIId")
QTABLE_HEADER = struct.calcsize("<4sIIddd")

# (file kind, defect, mutation of the valid file's bytes)
MALFORMED = [
    ("agent", "truncated header", lambda d: d[:AGENT_HEADER - 5]),
    ("agent", "truncated network", lambda d: d[:-3]),
    ("agent", "trailing bytes", lambda d: d + b"\0"),
    ("agent", "unknown variant", lambda d: _patch_u32(d, 12, 7)),
    ("agent", "unknown activation", lambda d: _patch_u32(d, AGENT_HEADER + 20, 9)),
    ("agent", "header M not the network's", lambda d: _patch_u32(d, 8, 3)),
    ("network", "truncated header", lambda d: d[:10]),
    ("network", "truncated weights", lambda d: d[:-1]),
    ("network", "trailing bytes", lambda d: d + b"\0\0\0\0"),
    ("network", "unknown activation", lambda d: _patch_u32(d, 20, 3)),
    ("qtable", "truncated header", lambda d: d[:QTABLE_HEADER - 1]),
    ("qtable", "truncated table", lambda d: d[:-8]),
    ("qtable", "trailing bytes", lambda d: d + b"\0"),
    ("qtable", "gamma out of range", lambda d: d[:12] + struct.pack("<d", 1.5) + d[20:]),
]


@pytest.mark.parametrize("kind,defect,mutate", MALFORMED,
                         ids=[f"{k}-{d}" for k, d, _ in MALFORMED])
def test_checkpoint_readers_reject_malformed_files(kind, defect, mutate, tmp_path):
    from uavdsa import nnet
    good, bad = str(tmp_path / "good.ckpt"), str(tmp_path / "bad.ckpt")
    if kind == "agent":
        sch.save_agent(sch.DqnAgent(num_subchannels=2, hidden=(3,), seed=0), good)
        load = sch.load_agent
    elif kind == "network":
        nnet.save_checkpoint(nnet.build_network([2, 3, 1], ["relu", "sigmoid"], seed=0), good)
        load = nnet.load_checkpoint
    else:
        sch.save_agent(sch.QTable(num_subchannels=2), good)
        load = sch.load_agent
    load(good)
    with open(good, "rb") as f:
        data = f.read()
    with open(bad, "wb") as f:
        f.write(mutate(data))
    with pytest.raises(ValueError, match=re.escape(bad)):
        load(bad)
