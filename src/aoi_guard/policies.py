"""Selection kernels of the scheduling policies: who gets the channels this slot.

Maximum Gain First is a priority policy on fixed gain tables: it activates
up to M agents with the highest-ranked gains among the states that the
relaxed policy activates (`BanditSolution.active_mask`, gain strictly
positive). `gain_keys` ranks every table cell once per run, equal gains
sharing a rank and passive cells keyed -1, so MGF and Maximum Age First
both select through one integer kernel, `top_ids`. The other baselines pick
uniformly at random, or uniformly at random with a FIFO queue of stale
updates (the simulator keeps that queue as a per-agent backlog count of at
most QUEUE_CAPACITY packets).

Every kernel works on a batch: one row per lane (or per lane and slot), one
column per agent, and returns a boolean mask of the same shape with True on
the selected agents. All ties break toward the lower agent id so runs are
reproducible.
"""

from __future__ import annotations

import numpy as np

QUEUE_CAPACITY = 1000

POLICY_KEYS = ("mgf", "randomized", "random_queue", "maf")


def gain_keys(gains: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Integer key of every gain cell: its rank among the distinct gains, -1 where `active` is False.

    Equal gains share a rank, so `top_ids` on the keys orders as a stable
    sort of the gains would.
    """
    ranks = np.unique(gains, return_inverse=True)[1].reshape(gains.shape)
    return np.where(active, ranks, -1)


def top_positive_ids(keys: np.ndarray, budget: int) -> np.ndarray:
    """Per row, a mask of up to `budget` largest nonnegative keys, id tie-break."""
    return top_ids(keys, budget) & (keys >= 0)


def top_ids(values: np.ndarray, budget: int) -> np.ndarray:
    """Per row, a mask of up to `budget` largest integer entries regardless of sign, id tie-break.

    With N columns, value * N + (N - 1 - id) is a unique key that orders by
    value and then by lower id, so one partition threshold per row picks the
    set without sorting it.
    """
    count = values.shape[1]
    if budget >= count:
        return np.ones(values.shape, dtype=bool)
    key = values * count
    key += np.arange(count - 1, -1, -1)
    kth = count - budget
    return key >= np.partition(key, kth, axis=1)[:, kth, None]


def uniform_subset(u: np.ndarray, count: int) -> np.ndarray:
    """Per row of uniforms, a mask of a uniform subset of ids out of `count`.

    Each row of `u` holds one uniform per pick (at most `count` of them) and
    drives a partial Fisher-Yates shuffle of 0..count-1: pick i swaps
    position i with i + floor(u[i] * (count - i)).
    """
    rows = np.arange(len(u))
    idx = np.tile(np.arange(count), (len(u), 1))
    picks = u.shape[1]
    for i in range(picks):
        j = i + (u[:, i] * (count - i)).astype(np.intp)
        idx[rows, i], idx[rows, j] = idx[rows, j], idx[rows, i]
    mask = np.zeros((len(u), count), dtype=bool)
    mask[rows[:, None], idx[:, :picks]] = True
    return mask
