import numpy as np

import aoi_guard.simulate as simulate
from aoi_guard import AgentClassSpec, MarkovSource, SimConfig, identity_safety_map, loss_01
from aoi_guard.policies import top_ids, top_positive_ids, uniform_subset

from conftest import CHAIN_A_MATRIX


class TestMgfSelect:
    """MGF's selection: the kernel applied to each agent's looked-up gain."""

    def test_top_positive_gains(self):
        assert top_positive_ids(np.array([0.5, -0.1, 0.2]), 2).tolist() == [0, 2]

    def test_all_negative_selects_nobody(self):
        assert top_positive_ids(np.array([-0.5, -0.1, -0.2]), 5).tolist() == []

    def test_zero_gain_not_selected(self):
        assert top_positive_ids(np.array([0.0, 0.3]), 2).tolist() == [1]

    def test_ties_break_to_lower_id(self):
        assert top_positive_ids(np.array([0.3, 0.3, 0.3]), 2).tolist() == [0, 1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        gains = rng.normal(size=12)
        base = top_positive_ids(gains, 4)
        scaled = top_positive_ids(gains * 37.5, 4)
        assert (base == scaled).all()


class TestMafSelect:
    """MAF's selection: the kernel applied to the agents' ages."""

    def test_orders_by_age(self):
        assert top_ids(np.array([7, 3, 9]), 2).tolist() == [0, 2]

    def test_equal_ages_tie_break(self):
        assert top_ids(np.array([4, 4, 4]), 2).tolist() == [0, 1]

    def test_budget_covers_everyone(self):
        assert top_ids(np.array([1, 2, 3]), 7).tolist() == [0, 1, 2]


class TestRandomizedSelect:
    def test_selects_all_when_budget_equals_agents(self):
        assert uniform_subset(3, 3, np.random.default_rng(0)).tolist() == [0, 1, 2]

    def test_deterministic_under_seed(self):
        a = uniform_subset(20, 2, np.random.default_rng(9))
        b = uniform_subset(20, 2, np.random.default_rng(9))
        assert a.tolist() == b.tolist()

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(77)
        counts = np.zeros(4, dtype=int)
        for _ in range(1_000_000):
            counts[uniform_subset(4, 1, rng)[0]] += 1
        freqs = counts / counts.sum()
        assert np.abs(freqs - 0.25).max() < 0.002

    def test_subsets_uniform_over_pairs(self):
        rng = np.random.default_rng(78)
        counts = {}
        for _ in range(60_000):
            key = tuple(uniform_subset(4, 2, rng))
            counts[key] = counts.get(key, 0) + 1
        assert len(counts) == 6
        freqs = np.array(list(counts.values())) / 60_000
        assert np.abs(freqs - 1 / 6).max() < 0.01


def queue_ages_after(monkeypatch, agents: int, pulls: dict[int, list[int]], slot: int) -> list[float]:
    """Each agent's receiver age at slot + 1 under random_queue with scripted pulls.

    `pulls[t]` lists the agents the channel serves at slot t (at most one);
    channels never erase. With the accounting window cut to the last slot,
    the record's per-agent mean AoI is that slot's age, t + 1 - generation
    time of the packet delivered.
    """
    def scripted(count, budget, rng):
        scripted.t += 1
        return np.array(pulls.get(scripted.t, []), dtype=int)

    scripted.t = -1
    monkeypatch.setattr(simulate, "uniform_subset", scripted)
    src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), 1.0, agents)
    cfg = SimConfig((cls,), channels=1, slots=slot + 2, warmup=slot + 1, policy="random_queue", delta_bound=20)
    (rec,) = simulate.run_paired(cfg, ["random_queue"], simulate.solve_system(cfg), 0)
    return list(rec.agent_mean_aoi)


class TestQueuePolicyStep:
    """random_queue: enqueue a packet per slot, then serve the oldest one."""

    def test_oldest_packet_age_arithmetic(self, monkeypatch):
        # Served every slot up to 9, the queue holds generations 10..15 when
        # the agent is next served at t=15; packet 10 lands at 16 with age 6.
        pulls = {t: [0] for t in (*range(10), 15)}
        assert queue_ages_after(monkeypatch, 1, pulls, 15) == [6.0]

    def test_enqueues_before_dequeue(self, monkeypatch):
        # Served every slot, the agent always sends the packet of that slot.
        pulls = {t: [0] for t in range(5)}
        assert queue_ages_after(monkeypatch, 1, pulls, 4) == [1.0]

    def test_unselected_agents_keep_growing(self, monkeypatch):
        # Agent 1 queues a packet every slot while agent 0 takes the channel,
        # so its first service at t=10 sends generation 0.
        pulls = {t: [0] for t in range(10)} | {10: [1]}
        assert queue_ages_after(monkeypatch, 2, pulls, 10) == [2.0, 11.0]


class TestQueueCapacity:
    def test_capacity_evicts_oldest(self, monkeypatch):
        monkeypatch.setattr(simulate, "QUEUE_CAPACITY", 3)
        # Unserved for slots 0..4, the queue keeps generations 2, 3, 4.
        assert queue_ages_after(monkeypatch, 1, {4: [0]}, 4) == [3.0]

    def test_holds_last_thousand_when_never_served(self, monkeypatch):
        # After 2500 slots unserved the oldest queued generation is 1500.
        assert simulate.QUEUE_CAPACITY == 1000
        assert queue_ages_after(monkeypatch, 1, {2499: [0]}, 2499) == [1000.0]
