"""Selection kernels of the scheduling policies: who gets the channels this slot.

Maximum Gain First is a priority policy on fixed gain tables: it activates
up to M agents with the highest-ranked gains among the states that the
relaxed policy activates (`BanditSolution.active_mask`, gain strictly
positive). `gain_keys` ranks every table cell once per run, equal gains
sharing a rank and passive cells keyed -1, so MGF and Maximum Age First
both select through one integer kernel: a unique key per agent and one
partition threshold per row (`top_ids`), which MGF's `top_positive_ids`
clamps at key 0 to leave passive agents out. The other baselines pick
uniformly at random, or uniformly at random with a FIFO queue of stale
updates (the simulator keeps each agent's queue of at most QUEUE_CAPACITY
packets as the stamp of its oldest packet).

Every kernel works on a batch: one row per lane (or per lane and slot), one
column per agent, and returns a boolean mask of the same shape with True on
the selected agents. All ties break toward the lower agent id so runs are
reproducible.
"""

from __future__ import annotations

from functools import cache

import numpy as np

QUEUE_CAPACITY = 1000

# Every policy, in the simulator's row order: the rows that select through
# `top_ids` come first, so MGF and MAF can select in one call on adjacent
# rows, and random_queue, the only row with the stamp rule, comes last.
POLICY_KEYS = ("mgf", "maf", "randomized", "random_queue")


def gain_keys(gains: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Integer key of every gain cell: its rank among the distinct gains, -1 where `active` is False.

    Equal gains share a rank, so `top_ids` on the keys orders as a stable
    sort of the gains would.
    """
    ranks = np.unique(gains, return_inverse=True)[1].reshape(gains.shape)
    return np.where(active, ranks, -1)


def top_positive_ids(keys: np.ndarray, budget: int) -> np.ndarray:
    """Per row, a mask of up to `budget` largest nonnegative keys, id tie-break.

    The `top_ids` threshold clamped at unique key 0: a key of -1 maps to a
    unique key below 0, so passive cells fall below the threshold and
    eligibility costs no mask of its own.
    """
    if budget >= keys.shape[1]:
        return keys >= 0
    key, kth_largest = _unique_keys(keys, budget)
    return key >= np.maximum(kth_largest, 0)


def top_ids(values: np.ndarray, budget: int) -> np.ndarray:
    """Per row, a mask of up to `budget` largest integer entries regardless of sign, id tie-break."""
    if budget >= values.shape[1]:
        return np.ones(values.shape, dtype=bool)
    key, kth_largest = _unique_keys(values, budget)
    return key >= kth_largest


def _unique_keys(values: np.ndarray, budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's unique key and each row's `budget`-th largest key, for budget < N.

    With N columns, value * N + (N - 1 - id) is a unique key that orders by
    value and then by lower id, so one partition threshold per row picks the
    set without sorting it.
    """
    count = values.shape[1]
    key = values * count
    key += _reversed_ids(count)
    kth = count - budget
    return key, np.partition(key, kth, axis=1)[:, kth, None]


@cache
def _reversed_ids(count: int) -> np.ndarray:
    """The tie term N - 1 - id of `top_ids`, built once per N."""
    ids = np.arange(count - 1, -1, -1)
    ids.flags.writeable = False
    return ids


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
