"""Selection kernels of the scheduling policies: who gets the channels this slot.

Maximum Gain First is a priority policy on fixed gain tables: it activates
up to M agents with the highest-ranked gains among the states that the
relaxed policy activates (`BanditSolution.active_mask`, gain strictly
positive). `gain_keys` ranks every table cell once per run, equal gains
sharing a rank and passive cells keyed -1, so MGF and Maximum Age First
both select through the simulator's one kernel, `top_positive_ids`, on
`unique_keys` (value * N + N - 1 - id, so no two agents of a row tie):
one partition threshold per row, clamped at key 0 to leave passive agents
out (MAF's values, ages >= 1, never meet the clamp). The simulator builds
the keys itself, MGF's from its gain keys stored times N and MAF's as its
pick state, which steps by N a slot, and calls the kernel once per slot
with buffers it allocated once. `top_ids` is the threshold unclamped on
any integer values, kept for the tests and the tracer.
The other baselines pick uniformly at random, or uniformly at random with
a FIFO queue of stale updates (the simulator keeps each agent's queue of
at most QUEUE_CAPACITY packets as the stamp of its oldest packet).

Every kernel works on a batch: one row per lane (or per lane and slot), one
column per agent, and returns (or, for `top_positive_ids`, fills) a boolean
mask of the same shape with True on the selected agents. All ties break
toward the lower agent id so runs are reproducible.
"""

from __future__ import annotations

from functools import cache

import numpy as np

QUEUE_CAPACITY = 1000

# Every policy, in the simulator's row order: MGF and MAF first, selecting in
# one call on adjacent rows, then the rows whose picks never read the receiver
# state, drawn a chunk at a time, random_queue (the stamp rule) last.
POLICY_KEYS = ("mgf", "maf", "randomized", "random_queue")


def gain_keys(gains: np.ndarray, active: np.ndarray) -> np.ndarray:
    """Integer key of every gain cell: its rank among the distinct gains, -1 where `active` is False.

    Equal gains share a rank, so `top_ids` on the keys orders as a stable
    sort of the gains would.
    """
    ranks = np.unique(gains, return_inverse=True)[1].reshape(gains.shape)
    return np.where(active, ranks, -1)


def unique_keys(values: np.ndarray) -> np.ndarray:
    """value * N + (N - 1 - id) for each entry of N columns: unique per row, ordered by value, then lower id."""
    count = values.shape[-1]
    return values * count + tie_ids(count)


@cache
def tie_ids(count: int) -> np.ndarray:
    """The tie term N - 1 - id of `unique_keys`, built once per N."""
    ids = np.arange(count - 1, -1, -1)
    ids.flags.writeable = False
    return ids


def top_positive_ids(keys: np.ndarray, budget: int, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Per row of `unique_keys`, mark in `out` up to `budget` largest nonnegative keys.

    One partition threshold per row picks the set without sorting it, and
    the threshold is clamped at key 0: a value of -1 has a key below 0, so
    passive cells fall below the threshold and eligibility costs no mask of
    its own. The partition runs in `scratch`, an array of the keys' shape,
    so a call allocates nothing.
    """
    if budget >= keys.shape[1]:
        return np.greater_equal(keys, 0, out=out)
    kth = keys.shape[1] - budget
    np.copyto(scratch, keys)
    scratch.partition(kth, axis=1)
    threshold = scratch[:, kth, None]
    np.maximum(threshold, 0, out=threshold)
    return np.greater_equal(keys, threshold, out=out)


def top_ids(values: np.ndarray, budget: int) -> np.ndarray:
    """Per row, a mask of up to `budget` largest integer entries regardless of sign, id tie-break."""
    if budget >= values.shape[1]:
        return np.ones(values.shape, dtype=bool)
    keys = unique_keys(values)
    kth = values.shape[1] - budget
    return keys >= np.partition(keys, kth, axis=1)[:, kth, None]


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
