import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import aoi_guard.simulate as simulate
from aoi_guard import AgentClassSpec, MarkovSource, SimConfig, loss_01
from aoi_guard.bandit import GAIN_TIE_EPS
from aoi_guard.policies import gain_keys, top_ids, top_positive_ids, uniform_subset, unique_keys

from conftest import CHAIN_A_MATRIX, identity_safety_map, mgf_select, with_sentinels
from oracles import _top_ids, _top_positive_ids


def ids(mask: np.ndarray) -> list[int]:
    """The selected ids of a one-row mask."""
    (row,) = mask
    return np.flatnonzero(row).tolist()


class TestMgfSelect:
    """MGF's selection: `top_ids` on the agents' gain keys, passive keys masked out."""

    def test_top_positive_gains(self):
        assert ids(mgf_select([[0.5, -0.1, 0.2]], 2)) == [0, 2]

    def test_all_negative_selects_nobody(self):
        assert ids(mgf_select([[-0.5, -0.1, -0.2]], 5)) == []

    def test_zero_gain_not_selected(self):
        assert ids(mgf_select([[0.0, 0.3]], 2)) == [1]

    def test_ties_break_to_lower_id(self):
        assert ids(mgf_select([[0.3, 0.3, 0.3]], 2)) == [0, 1]

    def test_scale_invariance(self):
        rng = np.random.default_rng(5)
        gains = rng.normal(size=(1, 12))
        assert (mgf_select(gains, 4) == mgf_select(gains * 37.5, 4)).all()

    def test_rows_select_independently(self):
        # Each lane is its own selection: a batch equals its rows one by one,
        # though the rows' keys rank the gains of the whole table.
        rng = np.random.default_rng(6)
        gains = np.round(rng.normal(size=(7, 9)), 1)
        batch = mgf_select(gains, 3)
        assert all((batch[r] == mgf_select(gains[r : r + 1], 3)[0]).all() for r in range(7))

    def test_keys_rank_equal_gains_equally_and_mark_passive_cells(self):
        gains = np.array([[0.5, -0.0, 0.2], [0.0, 0.5, -0.3]])
        keys = gain_keys(gains, gains > 0.1)
        assert keys.tolist() == [[3, -1, 2], [-1, 3, -1]]

    @settings(max_examples=500, deadline=None)
    @given(st.data())
    def test_matches_the_float_sort_oracle(self, data):
        # Rounded gains and the values around the tie rule force equal keys;
        # budgets run past the population.
        values = st.one_of(st.sampled_from([0.0, -0.0, GAIN_TIE_EPS, -GAIN_TIE_EPS, 2 * GAIN_TIE_EPS]),
                           st.integers(-4, 4).map(lambda k: k / 4))
        count = data.draw(st.integers(1, 15))
        rows = data.draw(st.lists(st.lists(values, min_size=count, max_size=count), min_size=1, max_size=3))
        gains = np.array(rows)
        budget = data.draw(st.integers(1, count + 1))
        mask = mgf_select(gains, budget)
        for row, got in zip(gains, mask):
            expect = np.zeros(count, dtype=bool)
            expect[_top_positive_ids(row, budget)] = True
            assert (got == expect).all()


class TestTopPositiveIds:
    """MGF's partition threshold over M zero sentinel keys, against the sort oracles where eligibility binds.

    The kernel takes `unique_keys` followed by `budget` zeros and fills a
    caller's `out` mask of the agent columns, as the simulator calls it
    once per slot.
    """

    @staticmethod
    def oracle_mask(rows, budget, oracle) -> np.ndarray:
        mask = np.zeros(rows.shape, dtype=bool)
        for got, row in zip(mask, rows):
            got[oracle(row, budget)] = True
        return mask

    @staticmethod
    def draw_gains(data, rows: int, count: int, budget: int) -> np.ndarray:
        """Gain rows with at most `budget` cells above the tie rule each, often none."""
        gains = np.array(data.draw(st.lists(
            st.lists(st.sampled_from([0.0, -0.0, -0.25, GAIN_TIE_EPS]), min_size=count, max_size=count),
            min_size=rows, max_size=rows)))
        for row in gains:
            eligible = data.draw(st.integers(0, min(budget, count)))
            cells = data.draw(st.permutations(range(count)))[:eligible]
            row[cells] = data.draw(st.lists(st.sampled_from([0.25, 0.5, 2 * GAIN_TIE_EPS]),
                                            min_size=eligible, max_size=eligible))
        return gains

    @staticmethod
    def mgf_keys(gains: np.ndarray, budget: int) -> np.ndarray:
        return with_sentinels(unique_keys(gain_keys(gains, gains > GAIN_TIE_EPS)), budget)

    def test_all_passive_rows_select_nobody(self):
        for budget in range(1, 8):
            keys = with_sentinels(unique_keys(np.full((3, 6), -1)), budget)
            assert not top_positive_ids(keys, budget, np.ones((3, 6), dtype=bool)).any()
        gains = np.array([[0.0, -0.5, GAIN_TIE_EPS, -0.0, -1.0, 0.0]])
        assert (mgf_select(gains, 2) == self.oracle_mask(gains, 2, _top_positive_ids)).all()

    def test_all_passive_row_among_eligible_rows(self):
        # The sentinels raise only the all-passive row's threshold, to 0:
        # the budget-th largest of its keys and zeros is a zero, and every
        # row's is max(budget-th largest key, 0), so the eligible rows keep
        # their own thresholds. The keys and their sentinels are left as
        # they were.
        gains = np.array([[0.5, 0.25, -0.25, 0.5, 0.0, 0.25],
                          [0.0, -0.5, GAIN_TIE_EPS, -0.0, -1.0, 0.0],
                          [0.25, 0.5, 0.25, 0.5, 0.25, 0.5]])
        for budget in range(1, 6):
            keys = self.mgf_keys(gains, budget)
            before = keys.copy()
            got = top_positive_ids(keys, budget, np.empty(gains.shape, dtype=bool))
            assert (got == self.oracle_mask(gains, budget, _top_positive_ids)).all()
            thresholds = np.sort(keys, axis=1)[:, -budget]
            assert thresholds[1] == 0 and not got[1].any()
            assert (thresholds == np.maximum(np.sort(keys[:, :6], axis=1)[:, -budget], 0)).all()
            assert (keys == before).all()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_sentinel_kernel_matches_the_sort_oracle(self, data):
        # Rows with 0..N eligible cells, all-passive rows beside eligible
        # ones, budgets 1..N + 1, and one `out` with arbitrary contents
        # reused across calls, as the simulator reuses it every slot.
        count = data.draw(st.integers(1, 12))
        rows = data.draw(st.integers(1, 4))
        out = np.array(data.draw(st.lists(st.booleans(), min_size=rows * count, max_size=rows * count)))
        out = out.reshape(rows, count)
        for _ in range(2):
            budget = data.draw(st.integers(1, count + 1))
            gains = self.draw_gains(data, rows, count, count)
            passive = data.draw(st.lists(st.booleans(), min_size=rows, max_size=rows))
            gains[np.array(passive)] = -0.25
            keys = self.mgf_keys(gains, budget)
            before = keys.copy()
            assert top_positive_ids(keys, budget, out) is out
            assert (out == self.oracle_mask(gains, budget, _top_positive_ids)).all()
            assert (keys == before).all()

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_budget_of_every_agent_selects_every_eligible_agent(self, data):
        count = data.draw(st.integers(1, 12))
        budget = data.draw(st.integers(count, count + 3))
        gains = self.draw_gains(data, data.draw(st.integers(1, 3)), count, count)
        out = np.zeros(gains.shape, dtype=bool)
        assert top_positive_ids(self.mgf_keys(gains, budget), budget, out) is out
        assert (out == self.oracle_mask(gains, budget, _top_positive_ids)).all()
        assert (out == (gains > GAIN_TIE_EPS)).all()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_fewer_eligible_cells_than_the_budget(self, data):
        count = data.draw(st.integers(1, 12))
        budget = data.draw(st.integers(1, count + 1))
        gains = self.draw_gains(data, data.draw(st.integers(1, 3)), count, budget)
        assert (mgf_select(gains, budget) == self.oracle_mask(gains, budget, _top_positive_ids)).all()

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_mgf_keys_stacked_over_maf_ages(self, data):
        # The simulator's one selection call: MGF's keys on its lanes' rows
        # (none when MAF runs alone), MAF's age keys (ages >= 1) on the rest,
        # each row followed by the sentinels, into one `out` mask.
        mgf_lanes, lanes = data.draw(st.integers(0, 3)), data.draw(st.integers(1, 3))
        count = data.draw(st.integers(1, 12))
        budget = data.draw(st.integers(1, count + 1))
        gains = self.draw_gains(data, mgf_lanes, count, count).reshape(mgf_lanes, count)
        ages = np.array(data.draw(st.lists(st.lists(st.integers(1, 4), min_size=count, max_size=count),
                                           min_size=lanes, max_size=lanes)))
        stacked = np.concatenate([self.mgf_keys(gains, budget), with_sentinels(unique_keys(ages), budget)])
        mask = top_positive_ids(stacked, budget, np.empty((mgf_lanes + lanes, count), dtype=bool))
        assert (mask[:mgf_lanes] == self.oracle_mask(gains, budget, _top_positive_ids)).all()
        assert (mask[mgf_lanes:] == self.oracle_mask(ages, budget, _top_ids)).all()


class TestMafSelect:
    """MAF's selection: the kernel applied to the agents' ages."""

    def test_orders_by_age(self):
        assert ids(top_ids(np.array([[7, 3, 9]]), 2)) == [0, 2]

    def test_equal_ages_tie_break(self):
        assert ids(top_ids(np.array([[4, 4, 4]]), 2)) == [0, 1]

    def test_budget_covers_everyone(self):
        assert ids(top_ids(np.array([[1, 2, 3]]), 7)) == [0, 1, 2]

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_stable_sort_oracle(self, data):
        # Few distinct ages force ties; budgets run past the population.
        count = data.draw(st.integers(1, 12))
        rows = data.draw(st.lists(st.lists(st.integers(-2, 4), min_size=count, max_size=count),
                                  min_size=1, max_size=3))
        ages = np.array(rows, dtype=np.int64)
        budget = data.draw(st.integers(1, count + 1))
        mask = top_ids(ages, budget)
        for row, got in zip(ages, mask):
            expect = np.zeros(count, dtype=bool)
            expect[_top_ids(row, budget)] = True
            assert (got == expect).all()


class TestRandomizedSelect:
    """The uniform subset: one partial Fisher-Yates shuffle per row of uniforms."""

    def test_selects_all_when_budget_equals_agents(self):
        assert ids(uniform_subset(np.random.default_rng(0).random((1, 3)), 3)) == [0, 1, 2]

    def test_deterministic_under_seed(self):
        a = uniform_subset(np.random.default_rng(9).random((1, 2)), 20)
        b = uniform_subset(np.random.default_rng(9).random((1, 2)), 20)
        assert ids(a) == ids(b)

    def test_uniform_frequencies(self):
        rng = np.random.default_rng(77)
        counts = uniform_subset(rng.random((1_000_000, 1)), 4).sum(axis=0)
        freqs = counts / counts.sum()
        assert np.abs(freqs - 0.25).max() < 0.002

    def test_subsets_uniform_over_pairs(self):
        rng = np.random.default_rng(78)
        masks = uniform_subset(rng.random((60_000, 2)), 4)
        keys, counts = np.unique(masks, axis=0, return_counts=True)
        assert len(counts) == 6 and (keys.sum(axis=1) == 2).all()
        freqs = counts / 60_000
        assert np.abs(freqs - 1 / 6).max() < 0.01

    def test_rows_match_one_shuffle_per_slot(self):
        # A block of uniforms drawn up front is the stream of one draw per
        # slot, so the batch picks what slot-by-slot shuffles would.
        block = uniform_subset(np.random.default_rng(79).random((50, 3)), 8)
        rng = np.random.default_rng(79)
        assert all((block[t] == uniform_subset(rng.random((1, 3)), 8)[0]).all() for t in range(50))


def queue_ages_after(monkeypatch, agents: int, pulls: dict[int, list[int]], slot: int) -> list[float]:
    """Each agent's receiver age at slot + 1 under random_queue with scripted pulls.

    `pulls[t]` lists the agents the channel serves at slot t (at most one);
    channels never erase. With the accounting window cut to the last slot,
    the record's per-agent mean AoI is that slot's age, t + 1 - generation
    time of the packet delivered.
    """
    def scripted(u, count):
        # one lane, so the rows of u are consecutive slots
        masks = np.zeros((len(u), count), dtype=bool)
        for row in masks:
            scripted.t += 1
            row[pulls.get(scripted.t, [])] = True
        return masks

    scripted.t = -1
    monkeypatch.setattr(simulate, "uniform_subset", scripted)
    src = MarkovSource(CHAIN_A_MATRIX, name="chain_a")
    cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), 1.0, agents)
    cfg = SimConfig((cls,), channels=1, slots=slot + 2, warmup=slot + 1, delta_bound=20)
    (rec,) = simulate.run_paired(cfg, ["random_queue"], simulate.solve_system(cfg, with_gains=False), 0)
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
