"""Cross-cutting contracts: parallel/serial equality, kernels, oracles."""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import aoi_guard.simulate as simulate
from aoi_guard import (
    AgentClassSpec,
    ConvergenceError,
    LossMatrix,
    MarkovSource,
    SimConfig,
    ValidationError,
    identity_safety_map,
    loss_01,
    run_paired,
    run_sweep,
    solve_system,
)
from aoi_guard.markov import candidate_columns, cumulative_rows, stack_padded, step_candidates
from aoi_guard.bandit import GAIN_TIE_EPS
from aoi_guard.policies import QUEUE_CAPACITY, gain_keys, top_positive_ids
from aoi_guard.simulate import resolve_workers

from conftest import make_grid_classes, mgf_select
from oracles import ReferenceWorld, random_queue_oracle, reference_records


class TestSweepParallelism:
    def test_parallel_and_serial_records_match(self, monkeypatch):
        classes = make_grid_classes((2, 2))
        cfg = SimConfig(classes, channels=1, slots=1500, seed=31, policy="maf", delta_bound=40)
        serial = run_sweep(cfg, "channels", [1, 2], policies=["maf", "randomized"], replications=2)
        monkeypatch.setenv("AOI_GUARD_THREADS", "0")
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 2)
        parallel = run_sweep(cfg, "channels", [1, 2], policies=["maf", "randomized"], replications=2)
        assert serial == parallel

    def test_env_var_caps_workers(self, monkeypatch):
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 8)
        monkeypatch.setenv("AOI_GUARD_THREADS", "3")
        assert resolve_workers(100) == 3
        monkeypatch.setenv("AOI_GUARD_THREADS", "0")
        assert resolve_workers(100) == 8
        assert resolve_workers(2) == 2
        monkeypatch.setenv("AOI_GUARD_THREADS", "many")
        with pytest.raises(ValidationError):
            resolve_workers(4)


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
            assert (top_positive_ids(keys[cls, ages, x][None], 3) == mgf_select(gains, 3)).all()

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
        cfg = SimConfig((cls,), channels=1, slots=3000, seed=9, policy="random_queue", delta_bound=30)
        (rec,) = run_paired(cfg, ["random_queue"], solve_system(cfg), 9)

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
    cfg = SimConfig(tuple(classes), channels=channels, slots=slots, warmup=warmup, policy="maf", delta_bound=12)
    return cfg, draw(st.integers(0, 10_000)), draw(st.integers(1, 3)), draw(st.sampled_from([3, 40]))


class TestLanesMatchReference:
    """The lane-batched, streamed simulator against the one-lane reference."""

    @settings(max_examples=40, deadline=None)
    @given(simulations())
    def test_records_equal_the_reference(self, case):
        # Runs of 257-700 slots span two or three 256-slot chunks, and a queue
        # capacity of 3 or 40 makes random_queue's history window wrap.
        cfg, seed, replications, capacity = case
        policies = ["mgf", "maf", "randomized", "random_queue"]
        try:
            system = solve_system(cfg, with_gains=True)
        except ConvergenceError:  # a frozen class may have no single average cost
            system, policies = solve_system(cfg, with_gains=False), policies[1:]
        event(f"{len(policies)} policies, {-(-cfg.slots // simulate.CHUNK_SLOTS)} chunk(s)")
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(simulate, "QUEUE_CAPACITY", capacity)
            got = run_paired(cfg, policies, system, seed, replications=replications)
        want = [rec for lane in range(replications)
                for rec in reference_records(cfg, policies, system, seed + lane, capacity)]
        key = lambda rec: (rec[0], rec[1])  # noqa: E731 - (policy, seed)
        assert sorted((tuple(vars(r).values()) for r in got), key=key) == sorted(want, key=key)


class TestSparseStep:
    """The candidate-column step against the dense count over the whole CDF row."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sparse_step_equals_dense_count(self, data):
        widths = data.draw(st.lists(st.integers(1, 7), min_size=1, max_size=3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        cums = []
        for w in widths:
            p = rng.dirichlet(np.ones(w), size=w) * (rng.random((w, w)) < 0.5)
            p[:, 0] += p.sum(axis=1) == 0.0  # an emptied row keeps all its mass on column 0
            cums.append(cumulative_rows(p / p.sum(axis=1, keepdims=True)))
        cum = stack_padded(cums, 1.0).reshape(-1, max(widths))
        cols, bounds = candidate_columns(cum)
        rows = rng.integers(0, len(cum), size=400)
        u = rng.random(400)
        u[:100] = 0.0
        u[100:200] = cum[rows[100:200], rng.integers(0, cum.shape[1], size=100)]  # CDF values
        u = np.minimum(u, np.nextafter(1.0, 0.0))
        assert (step_candidates(cols, bounds, rows, u) == (u[:, None] > cum[rows]).sum(axis=1)).all()
