"""Cross-cutting contracts: parallel/serial equality, kernels, oracles."""

import numpy as np
import pytest

import aoi_guard.simulate as simulate
from aoi_guard import (
    AgentClassSpec,
    MarkovSource,
    SimConfig,
    ValidationError,
    identity_safety_map,
    loss_01,
    run_paired,
    run_sweep,
    solve_system,
)
from aoi_guard.markov import stack_padded
from aoi_guard.policies import QUEUE_CAPACITY, top_positive_ids
from aoi_guard.simulate import _World, resolve_workers

from conftest import make_grid_classes
from oracles import random_queue_oracle


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
        # The simulator looks MGF's gains up in one padded stack of every
        # class's table; that must select as a per-agent lookup would.
        rng = np.random.default_rng(13)
        tables = [np.vstack([np.zeros((1, w)), rng.normal(size=(9, w))]) for w in (1, 3)]
        stack = stack_padded(tables, 0.0)
        for _ in range(50):
            cls = rng.integers(0, 2, size=6)
            ages = rng.integers(1, 10, size=6)
            x = np.array([rng.integers(0, tables[c].shape[1]) for c in cls])
            gains = np.array([tables[c][d, xi] for c, d, xi in zip(cls, ages, x)])
            want = top_positive_ids(gains, 3)
            assert top_positive_ids(stack[cls, ages, x], 3).tolist() == want.tolist()

    def test_budget_beyond_population_selects_all_positive(self):
        rng = np.random.default_rng(14)
        gains = rng.normal(size=10)
        picked = top_positive_ids(gains, 50)
        assert set(picked.tolist()) == set(np.flatnonzero(gains > 0).tolist())


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

        ref = random_queue_oracle(_World(cfg, 9), cfg.channels, cfg.slots, cfg.warmup, QUEUE_CAPACITY)
        assert ref["peak_queue"] == QUEUE_CAPACITY
        assert rec.deliveries == ref["deliveries"]
        assert rec.agent_mean_aoi == ref["agent_mean_aoi"]
