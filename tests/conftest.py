import numpy as np
import pytest

from aoi_guard import (
    AgentClassSpec,
    MarkovSource,
    SafetyMap,
    SimConfig,
    banded_safety_map,
    build_grid_walk,
    loss_01,
    loss_safety_example,
    solve_system,
)
from aoi_guard.bandit import GAIN_TIE_EPS
from aoi_guard.policies import gain_keys, top_positive_ids, unique_keys

CHAIN_A_MATRIX = [[0.9, 0.1], [0.2, 0.8]]


def identity_safety_map(state_count: int) -> SafetyMap:
    """Every state is its own label (|Y| = |X|)."""
    return SafetyMap(state_count, np.arange(state_count))


def select_keys(values, budget: int) -> np.ndarray:
    """`top_positive_ids` on the `unique_keys` of integer values, with fresh buffers."""
    keys = unique_keys(np.asarray(values))
    return top_positive_ids(keys, budget, np.empty(keys.shape, dtype=bool), np.empty_like(keys))


def mgf_select(gains, budget: int) -> np.ndarray:
    """MGF's mask on a float gain table: keys from the whole table, eligibility as `active_mask`."""
    gains = np.asarray(gains, dtype=float)
    return select_keys(gain_keys(gains, gains > GAIN_TIE_EPS), budget)


@pytest.fixture()
def chain_a():
    return MarkovSource(CHAIN_A_MATRIX, name="chain_a")


@pytest.fixture()
def chain_a_class(chain_a):
    return AgentClassSpec(chain_a, identity_safety_map(2), loss_01(2), success_prob=0.95, name="chain_a")


def make_grid_classes(member_counts=(10, 10)):
    safety = banded_safety_map(20, (6, 13))
    loss = loss_safety_example()
    fast = AgentClassSpec(
        build_grid_walk(20, 1, 0.3, 0.3, name="fast"),
        safety, loss, 0.95, member_counts[0], name="fast",
    )
    drift = AgentClassSpec(
        build_grid_walk(20, 1, 0.05, 0.05, name="drift"),
        safety, loss, 0.95, member_counts[1], name="drift",
    )
    return (fast, drift)


def random_primitive_source(rng, states):
    """Dirichlet rows with a positive floor, so the chain is primitive."""
    p = rng.dirichlet(np.ones(states), size=states)
    p = 0.95 * p + 0.05 / states
    p /= p.sum(axis=1, keepdims=True)
    return MarkovSource(p)


@pytest.fixture(scope="session")
def grid_config():
    return SimConfig(make_grid_classes(), channels=2, slots=100_000, seed=1)


@pytest.fixture(scope="session")
def grid_system(grid_config):
    return solve_system(grid_config, with_gains=True)
