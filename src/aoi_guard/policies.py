"""Selection kernels of the scheduling policies: who gets the channels this slot.

Maximum Gain First is a priority policy on fixed gain tables: it activates
up to M agents with the highest-ranked gains among the states that the
relaxed policy activates (`BanditSolution.active_mask`, gain strictly
positive). `gain_keys` ranks every table cell once per run, equal gains
sharing a rank and passive cells keyed -1, so MGF and Maximum Age First
both select through the simulator's one kernel, `top_positive_ids`, on
`unique_keys` (value * N + N - 1 - id, so no two agents of a row tie):
one partition threshold per row, taken over the row's keys and M zero
sentinel keys, so it is never below 0 and passive agents (keys <= -1) stay
out (MAF's keys are positive and never meet it). The simulator builds the
keys itself, MGF's from its gain keys stored times N and MAF's as its pick
state, in rows that end in the sentinels, and calls the kernel once per
slot. The other baselines pick uniformly at random, or uniformly at random
with a FIFO queue of stale updates (the simulator keeps each agent's queue
of at most QUEUE_CAPACITY packets as the stamp of its oldest packet).

Every kernel works on a batch: one row per lane (or per lane and slot), one
column per agent, and returns (or, for `top_positive_ids`, fills) a boolean
mask of the same shape with True on the selected agents. All ties break
toward the lower agent id so runs are reproducible.
"""

from __future__ import annotations

import numpy as np

QUEUE_CAPACITY = 1000

# Every policy, in the simulator's row order: MGF and MAF first, selecting in
# one call on adjacent rows, then the rows whose picks never read the receiver
# state, drawn a chunk at a time, random_queue (the stamp rule) last.
POLICY_KEYS = ("mgf", "maf", "randomized", "random_queue")


def gain_keys(gains: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Integer key of every gain cell: its rank among the distinct gains, -1 where `active` is False.

    Equal gains share a rank, so `top_positive_ids` on their `unique_keys`
    orders as a stable sort of the gains would.
    """
    ranks = np.unique(gains, return_inverse=True)[1].reshape(gains.shape)
    return np.where(active, ranks, -1)


def unique_keys(values: np.ndarray) -> np.ndarray:
    """value * N + (N - 1 - id) for each entry of N columns: unique per row, ordered by value, then lower id."""
    count = values.shape[-1]
    return values * count + tie_ids(count)


def tie_ids(count: int) -> np.ndarray:
    """The tie term N - 1 - id of `unique_keys`."""
    return np.arange(count - 1, -1, -1)


def top_positive_ids(keys: np.ndarray, budget: int, out: np.ndarray) -> np.ndarray:
    """Per row of `unique_keys` and `budget` zeros after them, mark in `out` up to `budget` largest nonnegative keys.

    The zeros are sentinels: the budget-th largest of a row's N keys and
    the zeros is max(budget-th largest key, 0). One partition threshold per
    row thus picks the set without sorting it, and passive cells, keyed at
    most -1, fall below it without a mask of their own; a budget of N or
    more selects every nonnegative key the same way. `out` has the N
    agent columns.
    """
    kth = keys.shape[1] - budget
    part = keys.copy()
    part.partition(kth, axis=1)
    return np.greater_equal(keys[:, :kth], part[:, kth, None], out=out)


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
