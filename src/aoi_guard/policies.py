"""Selection kernels of the scheduling policies: who gets the channels this slot.

Maximum Gain First activates up to M agents with the largest strictly
positive gain indices; the baselines pick by age, uniformly at random, or
uniformly at random with a FIFO queue of stale updates (the simulator keeps
that queue as a per-agent backlog count of at most QUEUE_CAPACITY packets).
All ties break toward the lower agent id so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

from .bandit import GAIN_TIE_EPS

QUEUE_CAPACITY = 1000

POLICY_KEYS = ("mgf", "randomized", "random_queue", "maf")


def top_positive_ids(gains: np.ndarray, budget: int) -> np.ndarray:
    """Ids of up to `budget` largest strictly positive entries, id tie-break.

    Entries within solver resolution of zero count as zero, not positive.
    """
    order = np.argsort(-gains, kind="stable")[:budget]
    return np.sort(order[gains[order] > GAIN_TIE_EPS])


def top_ids(values: np.ndarray, budget: int) -> np.ndarray:
    """Ids of up to `budget` largest entries regardless of sign, id tie-break."""
    return np.sort(np.argsort(-values, kind="stable")[:budget])


def uniform_subset(count: int, budget: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform subset of `budget` ids out of `count` by partial Fisher-Yates."""
    budget = min(budget, count)
    idx = np.arange(count)
    u = rng.random(budget)
    for i in range(budget):
        j = i + int(u[i] * (count - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:budget])
