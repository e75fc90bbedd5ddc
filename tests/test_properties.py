"""Cross-cutting contracts: parallel/serial equality, kernels, oracles."""

import numpy as np
import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st

import aoi_guard.simulate as simulate
from aoi_guard import (
    AgentClassSpec,
    ConvergenceError,
    LossMatrix,
    MarkovSource,
    SimConfig,
    dual_lower_bound,
    loss_01,
    run_paired,
    run_sweep,
    solve_system,
)
from aoi_guard.markov import build_grid_walk, cumulative_rows, stack_padded, successor_table
from aoi_guard.bandit import GAIN_TIE_EPS
from aoi_guard.policies import POLICY_KEYS, QUEUE_CAPACITY, gain_keys
from aoi_guard.simulate import resolve_workers

from conftest import identity_safety_map, make_grid_classes, mgf_select, select_keys, table_step
from oracles import ReferenceWorld, candidate_columns, random_queue_oracle, reference_records, step_candidates


class TestSweepParallelism:
    def test_parallel_and_serial_records_match(self, monkeypatch):
        classes = make_grid_classes((2, 2))
        cfg = SimConfig(classes, channels=1, slots=1500, seed=31, delta_bound=40)
        workers = []

        def recorded(tasks):
            workers.append(resolve_workers(tasks))
            return workers[-1]

        monkeypatch.setattr(simulate, "resolve_workers", recorded)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = run_sweep(cfg, "channels", [1, 2], policies=["maf", "randomized"], replications=2)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        parallel = run_sweep(cfg, "channels", [1, 2], policies=["maf", "randomized"], replications=2)
        assert workers == [1, 2]
        assert serial == parallel

    def test_workers_follow_the_affinity_mask(self, monkeypatch):
        # cpu_count counts the machine; a process pinned to fewer CPUs gets fewer workers.
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {2, 5}, raising=False)
        assert [resolve_workers(tasks) for tasks in (1, 2, 100)] == [1, 2, 2]
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        assert [resolve_workers(tasks) for tasks in (1, 5, 100)] == [1, 5, 8]


class TestPolicyKernelEquivalence:
    def test_mgf_wrapper_matches_kernel(self):
        # The simulator ranks MGF's gains once in one padded stack of every
        # class's table; the looked-up keys must select as the agents' own
        # gains would.
        rng = np.random.default_rng(13)
        tables = [np.vstack([np.zeros((1, w)), rng.normal(size=(9, w))]) for w in (1, 3)]
        stack = stack_padded(tables, 0.0)
        keys = gain_keys(stack, stack > GAIN_TIE_EPS)
        for _ in range(50):
            cls = rng.integers(0, 2, size=6)
            ages = rng.integers(1, 10, size=6)
            x = np.array([rng.integers(0, tables[c].shape[1]) for c in cls])
            gains = np.array([[tables[c][d, xi] for c, d, xi in zip(cls, ages, x)]])
            assert (select_keys(keys[cls, ages, x][None], 3) == mgf_select(gains, 3)).all()

    def test_budget_beyond_population_selects_all_positive(self):
        rng = np.random.default_rng(14)
        gains = rng.normal(size=(1, 10))
        assert (mgf_select(gains, 50) == (gains > 0)).all()


class TestQueueBookkeepingMatchesSim:
    def test_sim_queue_trace_replayable(self):
        # Replay the simulator's random_queue run with one bounded deque per
        # agent, driven by the same world and policy stream. 45 agents share
        # one channel, so every queue reaches QUEUE_CAPACITY and evicts; the
        # per-agent ages depend on every delivered generation stamp.
        src = MarkovSource([[0.9, 0.1], [0.2, 0.8]], name="pair")
        cls = AgentClassSpec(src, identity_safety_map(2), loss_01(2), 0.8, 45)
        cfg = SimConfig((cls,), channels=1, slots=3000, seed=9, delta_bound=30)
        (rec,) = run_paired(cfg, ["random_queue"], solve_system(cfg, with_gains=False), 9)

        ref = random_queue_oracle(ReferenceWorld(cfg, 9), cfg.channels, cfg.slots, cfg.warmup, QUEUE_CAPACITY)
        assert ref["peak_queue"] == QUEUE_CAPACITY
        assert rec.deliveries == ref["deliveries"]
        assert rec.agent_mean_aoi == ref["agent_mean_aoi"]


def chain(draw, states: int, kind: str) -> MarkovSource:
    """A random chain on `states` states; frozen, periodic or sparse."""
    if kind == "frozen":
        return MarkovSource(np.eye(states), name="frozen")
    if kind == "periodic":
        return MarkovSource(np.roll(np.eye(states), 1, axis=1), name="cycle")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    p = rng.dirichlet(np.ones(states), size=states) * (rng.random((states, states)) < 0.6)
    p[np.arange(states), rng.integers(0, states, size=states)] += 0.1  # no empty row
    return MarkovSource(p / p.sum(axis=1, keepdims=True))


@st.composite
def simulations(draw):
    """A small config with 1-3 classes of different state counts, and a run of it."""
    kinds = draw(st.lists(st.sampled_from(["sparse", "frozen", "periodic"]), min_size=1, max_size=3))
    sizes = draw(st.lists(st.integers(1, 5), min_size=len(kinds), max_size=len(kinds), unique=True))
    classes = []
    for i, (kind, states) in enumerate(zip(kinds, sizes)):
        src = chain(draw, states, kind)
        # real-valued losses, so that the order of the loss sums shows
        loss = LossMatrix(np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((states, states)))
        success = draw(st.one_of(st.just(1.0), st.floats(0.05, 1.0)))
        members = draw(st.integers(1, 4))
        classes.append(AgentClassSpec(src, identity_safety_map(states), loss, success, members, name=f"c{i}"))
    n = sum(c.member_count for c in classes)
    channels = draw(st.integers(1, n + 1))
    slots = draw(st.one_of(st.integers(2, 40), st.integers(257, 700)))
    warmup = draw(st.integers(0, slots - 1))
    cfg = SimConfig(tuple(classes), channels=channels, slots=slots, warmup=warmup, delta_bound=12)
    return cfg, draw(st.integers(0, 10_000)), draw(st.integers(1, 3)), draw(st.sampled_from([3, 40]))


def policy_subsets(min_size=1):
    """A subset of the policies, at least `min_size` of them, in a random order."""
    return st.permutations(POLICY_KEYS).flatmap(
        lambda order: st.integers(min_size, len(order)).map(lambda k: list(order[:k])))


def solved(cfg, policies):
    """The config's tables, and gains if MGF runs; MGF is dropped where they cannot be solved."""
    try:
        return solve_system(cfg, with_gains="mgf" in policies), policies
    except ConvergenceError:  # a frozen class may have no single average cost
        policies = [p for p in policies if p != "mgf"]
        assume(policies)
        return solve_system(cfg, with_gains=False), policies


class TestLanesMatchReference:
    """The lane-batched, streamed, policy-stacked simulator against the one-lane reference."""

    @settings(max_examples=40, deadline=None)
    @given(simulations(), policy_subsets())
    def test_records_equal_the_reference(self, case, policies):
        # Runs of 257-700 slots span two or three 256-slot chunks, and a queue
        # capacity of 3 or 40 makes random_queue's history window wrap. Any
        # subset of the policies in any order checks the rows' mapping onto
        # records and the one-policy paths.
        cfg, seed, replications, capacity = case
        system, policies = solved(cfg, policies)
        event(f"{len(policies)} policies, {-(-cfg.slots // simulate.CHUNK_SLOTS)} chunk(s)")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "QUEUE_CAPACITY", capacity)
            got = run_paired(cfg, policies, system, seed, replications=replications)
        want = [reference_records(cfg, policies, system, seed + lane, capacity) for lane in range(replications)]
        assert [tuple(vars(r).values()) for r in got] == [
            want[lane][k] for k in range(len(policies)) for lane in range(replications)
        ]

    @settings(max_examples=25, deadline=None)
    @given(simulations(), policy_subsets(min_size=2))
    def test_each_policy_runs_as_it_would_alone(self, case, policies):
        # Common random numbers: a policy's records do not depend on the
        # policies that share its slot loop.
        cfg, seed, replications, capacity = case
        system, policies = solved(cfg, policies)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "QUEUE_CAPACITY", capacity)
            mixed = run_paired(cfg, policies, system, seed, replications=replications)
            alone = [rec for p in policies for rec in run_paired(cfg, [p], system, seed, replications=replications)]
        assert mixed == alone


@st.composite
def bounded_systems(draw):
    """1-2 classes of 2-4 states with every transition entry >= 0.05; N <= 6, M <= min(2, N), D = 30."""
    classes = []
    class_count = draw(st.integers(1, 2))
    room = 6 - class_count  # agents beyond one per class
    for i in range(class_count):
        states = draw(st.integers(2, 4))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        p = 0.05 + (1.0 - 0.05 * states) * rng.dirichlet(np.ones(states), size=states)
        members = 1 + draw(st.integers(0, room))
        room -= members - 1
        classes.append(AgentClassSpec(MarkovSource(p), identity_safety_map(states), loss_01(states),
                                      draw(st.floats(0.5, 1.0)), members, name=f"c{i}"))
    n = sum(c.member_count for c in classes)
    return SimConfig(tuple(classes), channels=draw(st.integers(1, min(2, n))), slots=4_000,
                     seed=draw(st.integers(0, 10_000)), delta_bound=30)


class TestDualBound:
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(bounded_systems())
    def test_every_policy_pays_at_least_the_dual_bound(self, cfg):
        # Weak duality: no policy's long-run penalty per agent is below the
        # relaxed problem's dual bound / N. Each policy's mean over 32 lanes
        # must clear it less 4 standard errors; a few lanes give too rough an SE.
        system = solve_system(cfg, with_gains=True)
        bound = dual_lower_bound(list(system.solutions), list(cfg.classes), cfg.channels) / cfg.agent_count
        records = run_paired(cfg, POLICY_KEYS, system, cfg.seed, replications=32)
        for policy in POLICY_KEYS:
            v = np.array([r.normalized_penalty for r in records if r.policy == policy])
            se = v.std(ddof=1) / np.sqrt(v.size)
            assert v.mean() >= bound - 4 * se, (policy, v.mean(), se, bound)


def sparse_rows(rng, width: int) -> np.ndarray:
    """A random transition matrix with about half its entries zero; an emptied row keeps its mass on column 0."""
    p = rng.dirichlet(np.ones(width), size=width) * (rng.random((width, width)) < 0.5)
    p[:, 0] += p.sum(axis=1) == 0.0
    return p / p.sum(axis=1, keepdims=True)


def assert_world_steps_as_the_dense_count(world, cums, seed: int) -> None:
    """Run `world` to its horizon on motion draws from the CDF values, the floats next to them and 0.0.

    `cums` holds each class's CDF rows. Every slot's keys must be the dense
    count's successors of the slot before, and after each advance the
    history rows must hold the slots before the chunk.
    """
    values = np.unique(np.concatenate([cum[cum < 1.0] for cum in cums]))
    pool = np.concatenate([values, np.nextafter(values, 0.0), np.nextafter(values, 1.0), [0.0]])
    pool = np.minimum(pool, np.nextafter(1.0, 0.0))
    rng = np.random.default_rng(seed)

    def draw(out):
        out[...] = pool[rng.integers(0, pool.size, size=out.shape)]

    world.draws = [(draw, out) for _, out in world.draws]
    cum, cls, width, h = stack_padded(cums, 1.0), world.cls_idx, max(map(len, cums)), world.history
    key, seen = world.key.copy(), []
    while world.advance():
        for row, slot in enumerate(range(world.t0 - h, world.t0)):
            assert slot < 0 or (world.keys[row] == seen[slot]).all()
        u = world.uniforms[:, :, 0]
        for i in range(world.t1 - world.t0):
            if world.t0 + i > 0:
                key = cls * width + (u[:, :, i, None] > cum[cls, key - cls * width]).sum(axis=-1)
            assert (world.keys[h + i] == key).all()
            seen.append(key)
    assert len(seen) == world.slots


class TestSparseStep:
    """The successor-table step against the dense count over the whole CDF row."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sparse_step_equals_dense_count(self, data):
        # Classes of different widths share keys cls * width + x, as in the
        # world; `keys` and `u` come flat and as (lanes, N), the shape the
        # world steps. The replaced candidate-column step must agree too.
        widths = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
        shape = data.draw(st.sampled_from([(400,), (1, 400), (4, 100)]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cums = [cumulative_rows(sparse_rows(rng, w)) for w in widths]
        width = max(widths)
        cum = stack_padded(cums, 1.0).reshape(-1, width)
        cls = rng.integers(0, len(widths), size=400)
        keys = cls * width + (rng.random(400) * np.array(widths)[cls]).astype(int)
        u = rng.random(400)
        u[:100] = 0.0
        u[100:200] = cum[keys[100:200], rng.integers(0, width, size=100)]  # CDF values
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        dense = cls * width + (u[:, None] > cum[keys]).sum(axis=1)
        cols, bounds = candidate_columns(cum)
        assert (step_candidates(cols, bounds, keys, u) + cls * width == dense).all()
        assert (table_step(cums, keys.reshape(shape), u.reshape(shape)) == dense.reshape(shape)).all()

    @pytest.mark.parametrize("transitions, bound_rows", [
        # every row's CDF is 1 from column 0 on: one candidate, no bounds
        ([np.eye(5)[[0] * 5], np.ones((1, 1))], 0),
        # column 0 is always a candidate, so the deterministic 5-cycle has two
        ([np.roll(np.eye(5), 1, axis=1)], 1),
        # an interior grid cell stays or makes one of four moves, none to column 0
        ([build_grid_walk(5, 5, 0.2, 0.2, 0.2, 0.2).transition, np.eye(3)], 5),
        # grid400's walk, whose CDF reaches 0.6000000000000001, one ulp above 0.6
        ([build_grid_walk(20, 20, 0.2, 0.2, 0.2, 0.2).transition, np.ones((1, 1))], 5),
    ])
    def test_lane_shaped_step_at_the_candidate_extremes(self, transitions, bound_rows):
        width = max(len(p) for p in transitions)
        cums = [cumulative_rows(p) for p in transitions]
        cum = stack_padded(cums, 1.0).reshape(-1, width)
        _, bounds = candidate_columns(cum)
        assert bounds.shape == (bound_rows, len(cum))
        rng = np.random.default_rng(bound_rows)
        cls = rng.integers(0, len(transitions), size=(4, 200))
        keys = cls * width + (rng.random((4, 200)) * np.array([len(p) for p in transitions])[cls]).astype(int)
        values = np.unique(cum[cum < 1.0])
        u = rng.random((4, 200))
        u[0] = cum[keys[0], rng.integers(0, width, size=200)]  # CDF values of the agent's own row
        u[1, :50] = 0.0
        u[2] = values[rng.integers(0, values.size, size=200)] if values.size else 0.0  # any row's CDF values
        u[3] = np.nextafter(u[2], 1.0)  # one ulp above them
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        dense = cls * width + (u[..., None] > cum[keys]).sum(axis=2)
        assert (table_step(cums, keys, u) == dense).all()

    def test_levels_one_ulp_apart_stay_apart(self):
        # grid400's walk sums three moves of 0.2 to 0.6000000000000001, one
        # ulp above 0.6. Here one row's CDF reaches 0.6 and another's that
        # sum: two levels, and uniforms at and around them step every row as
        # the dense count does.
        p = np.array([[0.6, 0.0, 0.0, 0.4], [0.2, 0.2, 0.2, 0.4], [0.0, 0.6, 0.0, 0.4], [0.25] * 4])
        cum = cumulative_rows(p)
        (level,) = successor_table([cum], ["near"], 4)[3]
        above = 0.2 + 0.2 + 0.2
        assert above == np.nextafter(0.6, 1.0) and {0.6, above} <= set(level)
        rows = np.repeat(np.arange(4), 5)
        u = np.tile([np.nextafter(0.6, 0.0), 0.6, above, np.nextafter(above, 1.0), 0.0], 4)
        assert (table_step([cum], rows, u) == (u[:, None] > cum[rows]).sum(axis=1)).all()

    def test_world_steps_uniforms_on_the_levels_as_the_dense_count(self):
        # The simulator's own world over two chunks, its motion draws replaced
        # by CDF values, the floats next to them and 0.0, on four classes:
        # a grid walk, the one-ulp pair of levels above, a 5-cycle and one
        # state. Each slot's keys must be the dense count's successors.
        near = [[0.6, 0.0, 0.0, 0.4], [0.2, 0.2, 0.2, 0.4], [0.0, 0.6, 0.0, 0.4], [0.25] * 4]
        sources = [build_grid_walk(5, 5, 0.2, 0.2, 0.2, 0.2), MarkovSource(near),
                   MarkovSource(np.roll(np.eye(5), 1, axis=1)), MarkovSource([[1.0]])]
        classes = tuple(AgentClassSpec(src, identity_safety_map(src.state_count), loss_01(src.state_count),
                                       1.0, members, name=f"c{i}") for i, (src, members) in
                        enumerate(zip(sources, (3, 2, 2, 1))))
        world = simulate._WorldStream(SimConfig(classes, channels=1, slots=400, delta_bound=5), [3, 4], 1)
        assert_world_steps_as_the_dense_count(world, [cumulative_rows(src.transition) for src in sources], 5)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_world_steps_drawn_classes_as_the_dense_count(self, data):
        # The world's own rank pass and walk on the classes of
        # `test_sparse_step_equals_dense_count`, 1-3 agents each, in chunks
        # of 7 slots over a horizon that ends in a shorter chunk (or is one),
        # with a history window shorter or longer than a chunk.
        widths = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        sources = [MarkovSource(sparse_rows(rng, w)) for w in widths]
        classes = tuple(AgentClassSpec(src, identity_safety_map(src.state_count), loss_01(src.state_count),
                                       1.0, data.draw(st.integers(1, 3)), name=f"c{i}")
                        for i, src in enumerate(sources))
        slots = 7 * data.draw(st.integers(0, 3)) + data.draw(st.integers(1, 6))
        config = SimConfig(classes, channels=1, slots=slots, delta_bound=5)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(simulate, "CHUNK_SLOTS", 7)
            world = simulate._WorldStream(config, [0, 1], data.draw(st.integers(1, 10)))
            assert_world_steps_as_the_dense_count(world, [cumulative_rows(src.transition) for src in sources],
                                                  data.draw(st.integers(0, 2**32 - 1)))
