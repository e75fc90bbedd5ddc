"""Time-slotted Monte-Carlo simulator of the full monitoring system.

Each slot: every source takes a Markov step, the scheduler pulls at most M
agents based on receiver-side (age, last observation) states, each pulled
transmission survives its erasure channel independently, deliveries land one
slot later and reset that agent's age, and the receiver's tabulated estimate
is charged against the true safety label.

One `run_paired` call runs every seed of a run as a lane and every policy as
a row: the receiver state is one set of (P, lanes, N) arrays in one form
for every row, the stamp g of the true state the receiver holds and that
state's key, so the age at slot t is t - g. Each chunk first fills every
row's picks. Only MGF and MAF, whose picks read the receiver state, pick
slot by slot: one loop runs both on all lanes and carries only what the
pick reads (MGF's index into its priority table, MAF's age key), each in a
frame that moves one age a slot so that neither steps, with one selection
call for both per slot. randomized and random_queue pick a whole
chunk before any slot is stepped. One pass over every row then derives the
chunk's stamps, ages and observations with chunk-wide scans: g is a
running maximum of the stamps that landed, and random_queue's oldest
queued stamp is a running maximum too (see `_Lanes`). The world streams in
chunks of CHUNK_SLOTS slots that are stepped before the next chunk is
drawn; only the chunk and the last QUEUE_CAPACITY slots of true states
(random_queue's stamps reach that far back) are kept, with each policy's
ages, observations and picks of the chunk, so memory is O((CHUNK_SLOTS *
P + QUEUE_CAPACITY) * N * lanes) whatever the horizon.

Runs are reproducible bit for bit: all randomness of a lane derives from its
seed through fixed substreams (one for initial states, one for the random
policies, then a motion and a channel stream per agent), all held by the
world, so policies can be compared on common random numbers, and a lane's
record does not depend on the other lanes, the other policies of the call or
the chunk length.
"""

from __future__ import annotations

import os
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from .bandit import BanditSolution, DualTrace, dual_ascent
from .errors import ValidationError
from .markov import cumulative_rows, is_primitive, stack_padded, stationary_distribution, successor_table
from .policies import (
    POLICY_KEYS, QUEUE_CAPACITY, gain_keys, tie_ids, top_positive_ids, uniform_subset, unique_keys,
)
from .tables import AgentClassSpec, PenaltyTable, build_tables

# perfbench's tracer also wraps the selection kernel's former name, which
# the simulator never calls (ROADMAP item 7 deletes this alias).
top_ids = top_positive_ids


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: population, budget, horizon, seed, and the age bound `solve_system` builds tables for."""

    classes: tuple[AgentClassSpec, ...]
    channels: int
    slots: int
    warmup: int | None = None
    seed: int = 0
    delta_bound: int = 250

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes or self.agent_count < 1:
            raise ValidationError("need at least one agent")
        if self.channels < 1:
            raise ValidationError(f"channels must be >= 1, got {self.channels}")
        if self.delta_bound < 1:
            raise ValidationError(f"delta_bound must be >= 1, got {self.delta_bound}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.slots < 1:
            raise ValidationError(f"slots must be >= 1, got {self.slots}")
        warmup = self.slots // 10 if self.warmup is None else self.warmup
        object.__setattr__(self, "warmup", warmup)
        if not 0 <= warmup < self.slots:
            raise ValidationError(f"need slots > warmup >= 0, got slots={self.slots}, warmup={warmup}")
        if self.slots >= 2**31:  # the simulator keeps ages in int32
            raise ValidationError(f"slots must be below 2**31, got {self.slots}")

    @property
    def agent_count(self) -> int:
        return sum(c.member_count for c in self.classes)


@dataclass(frozen=True)
class SimRecord:
    """Aggregate outcome of one (policy, seed) run."""

    policy: str
    seed: int
    agents: int
    channels: int
    scale: int
    slots: int
    total_loss: float
    normalized_penalty: float
    activation_rate: float
    mean_aoi: float
    agent_mean_aoi: tuple[float, ...]
    deliveries: int


@dataclass(frozen=True)
class SolvedSystem:
    """Per-class penalty tables and estimate arrays (and, when needed, gain solutions) for one config."""

    penalties: tuple[PenaltyTable, ...]
    estimators: tuple[np.ndarray, ...]
    solutions: tuple[BanditSolution, ...] | None = None
    lambda_star: float | None = None
    trace: DualTrace | None = None


def solve_system(config: SimConfig, with_gains: bool) -> SolvedSystem:
    """Build estimation tables for every class; solve the gains too if asked (MGF needs them)."""
    built = [build_tables(c, config.delta_bound) for c in config.classes]
    penalties = tuple(b[0] for b in built)
    estimators = tuple(b[1] for b in built)
    if not with_gains:
        return SolvedSystem(penalties, estimators)
    lam, trace, sols = dual_ascent(list(config.classes), list(penalties), config.channels)
    return SolvedSystem(penalties, estimators, tuple(sols), lam, trace)


CHUNK_SLOTS = 256


class _WorldStream:
    """True states and channel outcomes of every lane, drawn one chunk at a time.

    Lane l is the world of seed `seeds[l]`. A state is kept as its key
    cls * S + x, with S the largest state count, which indexes the stacked
    per-class tables flattened to 2-D; `key` holds slot 0's keys. `keys`
    holds the `history` slots before the current chunk and then the chunk:
    row r is slot t0 - history + r. A motion step goes through the class's
    `markov.successor_table`: each chunk ranks all its motion uniforms at
    once and walks every agent's table cell from `cell`, the cell of the
    last slot drawn, and one take of `cell_key` writes the chunk's `keys`.
    `streams` holds every agent generator, lane by lane in spawn order
    (agent i's motion, then its channel), each drawing `random(chunk)` per
    chunk into its row of one (lanes, N, 2, chunk) buffer: the numbers one
    `random(slots)` call would give. `draws` binds each generator's `random`
    method to its full-chunk row once; a shorter last chunk reads only the
    first numbers of each row. `policy_rngs` are the lanes' policy generators.
    """

    def __init__(self, config: SimConfig, seeds: list[int], history: int):
        classes = config.classes
        self.cls_idx = np.concatenate([np.full(c.member_count, i) for i, c in enumerate(classes)])
        n, lanes = self.cls_idx.size, len(seeds)
        width = max(c.source.state_count for c in classes)
        self.slots, self.history = config.slots, history
        self.t0 = self.t1 = 0

        laws = [
            stationary_distribution(c.source) if is_primitive(c.source)
            else np.full(c.source.state_count, 1.0 / c.source.state_count)
            for c in classes
        ]
        ends = np.cumsum([c.member_count for c in classes])
        self.blocks = [slice(end - c.member_count, end) for c, end in zip(classes, ends)]
        x0 = np.empty((lanes, n), dtype=np.intp)
        self.streams, self.policy_rngs = [], []
        for lane, seed in enumerate(seeds):
            seq = np.random.SeedSequence(seed)
            init_seq, policy_seq = seq.spawn(2)
            self.streams += map(np.random.default_rng, seq.spawn(2 * n))
            self.policy_rngs.append(np.random.default_rng(policy_seq))
            rng_init = np.random.default_rng(init_seq)
            for c, block, law in zip(classes, self.blocks, laws):
                x0[lane, block] = rng_init.choice(c.source.state_count, size=c.member_count, p=law)
        self.key = x0 + self.cls_idx * width

        cums = [cumulative_rows(c.source.transition) for c in classes]
        self.table, first, self.cell_key, self.levels = successor_table(cums, [c.name for c in classes], width)
        self.success = np.array([classes[i].success_prob for i in self.cls_idx])[:, None]

        self.keys = np.zeros((history + CHUNK_SLOTS, lanes, n), dtype=np.int32)
        self.uniforms = np.empty((lanes, n, 2, CHUNK_SLOTS))
        self.rank_type = np.min_scalar_type(max(map(len, self.levels)))
        self.cell = first[self.key]
        self.draws = [(rng.random, out) for rng, out in zip(self.streams, self.uniforms.reshape(-1, CHUNK_SLOTS))]
        self.ok = np.empty((CHUNK_SLOTS, lanes, n), dtype=bool)

    def advance(self) -> bool:
        """Draw the next chunk of slots; False once the horizon is covered."""
        t0 = self.t1
        if t0 >= self.slots:
            return False
        t1 = min(t0 + CHUNK_SLOTS, self.slots)
        length, h = t1 - t0, self.history
        # Before the first chunk (t1 = t0 = 0) this is a self-copy.
        self.keys[:h] = self.keys[self.t1 - self.t0 : self.t1 - self.t0 + h]
        for draw, out in self.draws:
            draw(out=out)
        self.ok[:length] = (self.uniforms[:, :, 1, :length] < self.success).transpose(2, 0, 1)
        rank = np.zeros((*self.cell.shape, length), dtype=self.rank_type)
        for block, level in zip(self.blocks, self.levels):
            u, below = self.uniforms[:, block, 0, :length], rank[:, block]
            for v in level:  # the number of the class's levels below u
                below += u > v
        walk = np.empty((length + 1, *self.cell.shape), dtype=np.intp)
        walk[0], walk[1:] = self.cell, rank.transpose(2, 0, 1)
        start = 1
        if t0 == 0:
            walk[1] = walk[0]  # slot 0 holds the initial states
            start = 2
        for prev, row in zip(walk[start - 1 : -1], walk[start:]):
            np.add(prev, row, out=row)
            self.table.take(row, out=row)
        np.take(self.cell_key, walk[1:], out=self.keys[h : h + length])
        self.cell[...] = walk[-1]
        self.t0, self.t1 = t0, t1
        return True


class _Lanes:
    """Every policy's receiver and scheduler state on every lane, plus their tallies.

    State arrays have shape (P, lanes, N): row r belongs to `policies[r]`,
    the policies run in POLICY_KEYS order. Every row's receiver state has
    one form: `stamp`, the slot g whose true state the receiver holds, and
    `seen`, that state's key. The age at slot t is t - g. Before the first
    delivery g is -1 and `seen` is the key of slot 0, so ages start at 1 on
    the slot-0 state. A packet stamped g that lands after slot t sets the
    state from slot t + 1 on; stamps only grow, since every row sends its
    packets in stamp order.

    Each chunk first fills every row's picks and `landed` (picked, and the
    channel delivered) and then rebuilds every row's receiver state in one
    pass (`_receive`). `scan` holds g + 1: row 0 the value carried into the
    chunk, row 1 + i the stamp + 1 of a packet that lands after the chunk's
    slot i (0 where none does), and a running maximum over the slot axis
    turns it into g + 1 at every slot, from which the pass takes the ages,
    the observations and the carried `stamp` and `seen`.

    The first `top` rows (MGF, MAF, whichever run) pick on the receiver
    state, so `_step_top` runs them slot by slot on only what the pick
    reads. `pick` holds MGF's flat (age, key) index into its priority
    table, MGF's keys and MAF's key, less the rows of a policy that does
    not run: every other row is a pick state, in a frame that moves one age
    a slot, and the rows after the index are the `unique_keys` that
    `top_positive_ids` selects on, followed by `budget` = min(M, N) zero
    sentinel keys. A landed packet was sent fresh: g = t.

    The other rows (randomized, random_queue) are oblivious: their picks,
    one uniform subset per slot from the lane's policy stream
    (`world.policy_rngs`) that both share, never read the receiver state,
    so `_step_oblivious` draws a whole chunk of them at once. randomized
    sends fresh packets, stamped with their send slot. Each random_queue
    agent queues one packet per slot and drops its oldest beyond the
    capacity (the world's history window H), so after slot s its queue is
    the run of stamps `oldest` .. s, with oldest_s = max(oldest_{s-1}, s -
    H + 1) + sent_s, and the packet it sends carries the stamp oldest_s -
    1. With S_s the running sum of sends, oldest_s - S_s is then the
    running maximum over r <= s of r - H + 1 - S_{r-1}, started from the
    carried `oldest`.
    """

    def __init__(self, policies: list[str], world: _WorldStream, channels: int):
        self.policies = [p for p in POLICY_KEYS if p in policies]
        mgf = "mgf" in self.policies
        self.top = mgf + ("maf" in self.policies)
        self.queue = "random_queue" in self.policies
        lanes, n = world.key.shape
        shape = (len(self.policies), lanes, n)
        self.stamp = np.full(shape, -1, dtype=np.int64)
        self.seen = np.broadcast_to(world.key, shape).copy()
        self.budget = min(channels, n)
        self.pick = np.zeros((mgf + self.top, lanes, n + self.budget), dtype=np.int64)
        self.landed = np.empty((CHUNK_SLOTS, *shape), dtype=bool)
        self.scan = np.empty((CHUNK_SLOTS + 1, *shape), dtype=np.int32)
        self.oldest = np.zeros((lanes, n), dtype=np.int64)
        self.total_loss = np.zeros(shape[:2])
        self.aoi_sum = np.zeros(shape, dtype=np.int64)
        self.deliveries = np.zeros(shape[:2], dtype=np.int64)
        self.activations = np.zeros(shape[:2], dtype=np.int64)
        # int32 holds every age and stamp (SimConfig caps slots below 2**31)
        # and the flat indices folded into these buffers, of (age, key) into
        # `est` and (true key, estimate) into `loss` by the tally and into
        # `world.keys` by `_receive`, for any of fewer than 2**31 cells.
        self.ages = np.empty((CHUNK_SLOTS, *shape), dtype=np.int32)
        self.observed = np.empty((CHUNK_SLOTS, *shape), dtype=np.int32)
        self.picked = np.empty((CHUNK_SLOTS, *shape), dtype=bool)


def _step_top(world: _WorldStream, state: _Lanes, views: list[np.ndarray] | None, est_shape: tuple[int, int]) -> None:
    """MGF's and MAF's picks of the current chunk, one slot at a time (see `_Lanes`).

    Each row's pick state starts from its receiver state at the chunk's
    first slot, is reset where a packet landed and never steps: with C =
    CHUNK_SLOTS, slot i reads MGF's index through `views[i]`, the table
    shifted by i rows, and MAF's keys as age * N + N - 1 - id plus (C - i)
    * N for every agent. A packet that lands after slot i gives age 1 at
    slot i + 1, so the reset stores (C - i) * width + key, nonnegative
    behind the table's C front rows, or (C - i) * N + N - 1 - id. Ages run
    at most C past D, where the table repeats its age-D row.
    """
    t0, length, h, top, mgf = world.t0, world.t1 - world.t0, world.history, state.top, views is not None
    (lanes, n), db, width = world.key.shape, est_shape[0] - 1, est_shape[1]
    rows, keys, ties = state.pick[::2, :, :n], state.pick[mgf:].reshape(top * lanes, -1), tie_ids(n)
    age = t0 - state.stamp[:top] + CHUNK_SLOTS
    # Until `_receive` writes them, the top rows' observations hold the resets.
    resets = state.observed[:length, :top]
    frame = (CHUNK_SLOTS - np.arange(length)).reshape(-1, 1, 1, 1)
    np.add(frame * n, ties, out=resets[:, mgf:])
    rows[mgf:] = unique_keys(age[mgf:])
    if mgf:
        rows[0] = np.minimum(age[0], db + CHUNK_SLOTS) * width + state.seen[0]
        np.add(world.keys[h : h + length], frame[:, 0] * width, out=resets[:, 0])
        head, gather = state.pick[1, :, :n], state.pick[0, :, :n]
    budget, ok = state.budget, world.ok[:length, None]  # same-rank operands broadcast faster
    picked, landed = state.picked[:length, :top], state.landed[:length, :top]
    top_picked = state.picked.reshape(CHUNK_SLOTS, -1, n)[:length, : top * lanes]
    for view, select, pick, ok_i, land, reset in zip(views or [None] * length, top_picked, picked, ok, landed, resets):
        if mgf:
            view.take(gather, out=head)
            head += ties
        top_positive_ids(keys, budget, select)
        np.logical_and(pick, ok_i, out=land)
        np.copyto(rows, reset, where=land)


def _step_oblivious(world: _WorldStream, state: _Lanes) -> None:
    """randomized's and random_queue's picks of the current chunk, and random_queue's stamps (see `_Lanes`)."""
    t0, top = world.t0, state.top
    length, (lanes, n) = world.t1 - t0, world.key.shape
    draws = np.concatenate([rng.random((length, state.budget)) for rng in world.policy_rngs])
    picks = uniform_subset(draws, n).reshape(lanes, length, n).transpose(1, 0, 2)
    state.picked[:length, top:] = picks[:, None]
    np.logical_and(state.picked[:length, top:], world.ok[:length, None], out=state.landed[:length, top:])
    if state.queue:
        # The queue row's ages hold S_s until `_receive` writes them.
        sends, queue = state.ages[:length, -1], state.scan[: length + 1, -1]
        sends[...] = picks
        np.add.accumulate(sends, axis=0, out=sends)
        slot1 = np.arange(t0 + 1, t0 + length + 1)[:, None, None]  # slot + 1 of each chunk slot
        np.subtract(slot1 - world.history, sends, out=queue[1:])
        queue[1:] += picks  # s - H + 1 - S_{s-1}
        queue[0] = state.oldest
        np.maximum.accumulate(queue, axis=0, out=queue)
        queue[1:] += sends
        state.oldest[...] = queue[-1]
        queue[1:] *= state.landed[:length, -1]  # oldest_s is the stamp + 1 of the packet sent at slot s


def _receive(world: _WorldStream, state: _Lanes) -> None:
    """Every row's ages and observations of the current chunk, and its carried `stamp` and `seen` (see `_Lanes`)."""
    t0, base = world.t0, world.t0 - world.history
    length, (lanes, n) = world.t1 - t0, world.key.shape
    scan, stamp, seen, observed = state.scan[: length + 1], state.stamp, state.seen, state.observed[:length]
    slot1 = np.arange(t0 + 1, t0 + length + 1)[:, None, None, None]  # slot + 1 of each chunk slot
    fresh = len(state.policies) - state.queue  # a fresh packet's stamp + 1 is its send slot + 1
    np.multiply(state.landed[:length, :fresh], slot1, out=scan[1:, :fresh])
    np.add(stamp, 1, out=scan[0])
    np.maximum.accumulate(scan, axis=0, out=scan)
    np.subtract(slot1, scan[:-1], out=state.ages[:length])
    np.subtract(scan[-1], 1, out=stamp)
    # The receiver observes the key at g. Where g is the carried stamp (older
    # than the window, or the initial -1, whose key is slot 0's), the carried
    # `seen` holds it; every other g lies in the window. The scan becomes the
    # flat index of keys[max(g, base) - base, lane, agent] in place, and the
    # copies then restore the carried keys.
    stale = scan == scan[0]
    np.maximum(scan, base + 1, out=scan)
    scan -= base + 1
    scan *= lanes * n
    scan += np.arange(lanes * n, dtype=scan.dtype).reshape(lanes, n)
    np.take(world.keys, scan[:-1], out=observed)
    np.copyto(observed, seen, where=stale[:-1])
    np.copyto(seen, world.keys.take(scan[-1]), where=~stale[-1])


def _run_policy(
    config: SimConfig,
    world: _WorldStream,
    name: str,
    state: _Lanes,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray | None],
) -> None:
    """Every policy row's slots of the current chunk on every lane, then their tallies.

    MGF and MAF pick slot by slot, one selection call a slot, on only the
    state their pick reads (`_step_top`); randomized and random_queue pick
    a whole chunk at once (`_step_oblivious`). One pass then derives every
    row's stamps, ages and observations of the chunk (`_receive`), which
    the tallies read with the picks. `name` joins the names of the
    policies the state steps with "+"; the benchmark's tracer names the
    loop's span by it. `tables` holds the estimator choices flattened to
    (age, key), the loss of every (true key, estimate) pair and, when MGF
    runs (else None), one flat view per chunk slot of its priority table
    (see `_step_top`): the `gain_keys` of the estimator's (age, key) cells,
    each cell's gain rank or -1 where the relaxed policy's `active_mask`
    leaves it passive (so the eligible agents are exactly the relaxed
    policy's active set), times N and padded in `run_paired`. The age
    bound D is the estimator's row count less one. random_queue's queue
    capacity is the world's history window, which its stamps never reach
    past.
    """
    est, loss, views = tables
    t0, length, budget, db = world.t0, world.t1 - world.t0, config.channels, est.shape[0] - 1
    if state.top:
        _step_top(world, state, views, est.shape)
    if state.top < len(state.policies):
        _step_oblivious(world, state)
    _receive(world, state)

    picked = state.picked[:length]
    counts = picked.sum(axis=3)
    most = counts.max(axis=(0, 2))
    if most.max() > budget:
        row = int(most.argmax())
        raise RuntimeError(f"{state.policies[row]} selected {most[row]} agents with {budget} channels")
    state.activations += counts.sum(axis=0)
    delivered = min(length, config.slots - 1 - t0)  # a pull in the last slot never lands
    state.deliveries += state.landed[:delivered].sum(axis=(0, 3))
    first = max(config.warmup - t0, 0)
    if first < length:
        ages, estimates = state.ages[first:length], state.observed[first:length]
        state.aoi_sum += ages.sum(axis=0)
        # in place on the chunk's buffers: ages become flat (age, key) indices
        # of `est`, and observations become their estimates
        np.minimum(ages, db, out=ages)
        ages *= est.shape[1]
        ages += estimates
        np.take(est, ages, out=estimates)
        # and estimates become flat (true key, estimate) indices of `loss`
        estimates += world.keys[world.history + first : world.history + length, None] * loss.shape[1]
        per_slot = loss.ravel()[estimates].sum(axis=3)  # indexing reads int32 indices in place; take copies them
        # slot by slot, in the order a running total adds them
        state.total_loss = np.cumsum(np.concatenate((state.total_loss[None], per_slot)), axis=0)[-1]


def check_run(policies: Sequence[str], replications: int) -> None:
    """Reject any name that is not a policy (repeated names are allowed) and fewer than one replication."""
    for p in policies:
        if p not in POLICY_KEYS:
            raise ValidationError(f"unknown policy {p!r}; expected one of {', '.join(POLICY_KEYS)}")
    if replications < 1:
        raise ValidationError(f"replications must be >= 1, got {replications}")


def run_paired(
    config: SimConfig,
    policies: Sequence[str],
    system: SolvedSystem,
    seed: int,
    scale: int = 1,
    replications: int = 1,
) -> list[SimRecord]:
    """Run several policies on the worlds of seeds seed .. seed + replications - 1.

    Each seed is a lane, and every policy sees the same world on it (common
    random numbers). All policies step together as rows of one state, chunk
    by chunk (see `_run_policy`). Records come per policy in the order given,
    lanes in seed order. `system`'s tables must cover the classes' states
    and share one row count; the age bound D is that count less one.
    """
    check_run(policies, replications)
    covered = [table.shape[1] for table in system.estimators]
    states = [c.source.state_count for c in config.classes]
    if covered != states:
        raise ValidationError(f"solved tables cover {covered} states per class; the config's classes have {states}")
    age_rows = [table.shape[0] for table in system.estimators]
    if len(set(age_rows)) > 1:
        raise ValidationError(f"solved tables have {age_rows} age rows per class; all classes need one age bound")
    if "mgf" in policies and system.solutions is None:
        raise ValidationError("MGF requires solved gain tables; run solve_system with gains first")
    seeds = list(range(seed, seed + replications))
    world = _WorldStream(config, seeds, QUEUE_CAPACITY if "random_queue" in policies else 1)

    def flat(arrays, fill):  # per-class (age, x) tables -> (age, key)
        stack = stack_padded(arrays, fill)
        return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)

    est = flat(system.estimators, 0)
    label = stack_padded([c.safety.assignment for c in config.classes], 0).reshape(-1)
    losses = stack_padded([c.loss.entries for c in config.classes], 0.0)
    loss = losses[np.arange(label.size) // max(states), label]  # (true key, estimate)
    views = None
    if "mgf" in policies:
        gain_key = gain_keys(flat([np.nan_to_num(s.gain, nan=0.0) for s in system.solutions], 0.0),
                             flat([s.active_mask() for s in system.solutions], False))
        if gain_key.shape != est.shape:
            raise ValidationError(f"gain tables have (age, key) shape {gain_key.shape}, the estimators {est.shape}")
        # CHUNK_SLOTS front rows that no age maps to, and CHUNK_SLOTS copies of the age-D row
        table = np.pad(gain_key * world.cls_idx.size, ((CHUNK_SLOTS, CHUNK_SLOTS), (0, 0)), mode="edge").ravel()
        views = [table[i * est.shape[1] :] for i in range(CHUNK_SLOTS)]
    tables = (est, loss, views)
    state = _Lanes(policies, world, config.channels)
    name = "+".join(state.policies)
    while world.advance():
        if state.policies:
            _run_policy(config, world, name, state, tables)

    n, accounted = world.cls_idx.size, config.slots - config.warmup
    records = []
    for policy in policies:
        row = state.policies.index(policy)
        for lane, lane_seed in enumerate(seeds):
            total_loss = float(state.total_loss[row, lane])
            agent_mean_aoi = state.aoi_sum[row, lane] / accounted
            records.append(SimRecord(
                policy=policy,
                seed=lane_seed,
                agents=n,
                channels=config.channels,
                scale=scale,
                slots=config.slots,
                total_loss=total_loss,
                normalized_penalty=total_loss / (accounted * n),
                activation_rate=int(state.activations[row, lane]) / config.slots,
                mean_aoi=float(agent_mean_aoi.mean()),
                agent_mean_aoi=tuple(float(v) for v in agent_mean_aoi),
                deliveries=int(state.deliveries[row, lane]),
            ))
    return records


SWEEP_AXES = ("agents", "channels", "scale")


def _scaled_members(counts: list[int], total: int) -> list[int]:
    """Split `total` across classes proportionally (largest remainder)."""
    base = sum(counts)
    shares = [c * total / base for c in counts]
    floors = [int(s) for s in shares]
    for i in np.argsort([f - s for f, s in zip(floors, shares)])[: total - sum(floors)]:
        floors[i] += 1
    if any(f < 1 for f in floors):
        raise ValidationError(f"cannot spread {total} agents across {len(counts)} classes")
    return floors


def config_at(config: SimConfig, axis: str, value: int) -> SimConfig:
    """The base config moved to one sweep point."""
    if axis == "agents":
        members = _scaled_members([c.member_count for c in config.classes], value)
        classes = tuple(replace(c, member_count=m) for c, m in zip(config.classes, members))
        return replace(config, classes=classes)
    if axis == "channels":
        return replace(config, channels=value)
    if axis == "scale":
        classes = tuple(replace(c, member_count=c.member_count * value) for c in config.classes)
        return replace(config, classes=classes, channels=config.channels * value)
    raise ValidationError(f"axis must be one of {', '.join(SWEEP_AXES)}; got {axis!r}")


def sweep_points(config: SimConfig, axis: str, values: Sequence[int]) -> list[SimConfig]:
    """The base config moved to every sweep point: distinct values, each with at least as many agents as channels."""
    if not values or any(v < 1 for v in values):
        raise ValidationError("axis values must be positive")
    if len(set(values)) < len(values):
        raise ValidationError(f"axis values must be distinct, got {list(values)}")
    points = [config_at(config, axis, value) for value in values]
    for value, point in zip(values, points):
        if point.agent_count < point.channels:
            raise ValidationError(f"sweep point {axis}={value} has N={point.agent_count} < M={point.channels}")
    return points


def resolve_workers(tasks: int) -> int:
    """Sweep workers: one per task, at most one per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity masks on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, tasks))


def run_sweep(
    config: SimConfig,
    axis: str,
    values: list[int],
    policies: Sequence[str] = POLICY_KEYS,
    replications: int = 1,
) -> list[SimRecord]:
    """One record per (policy, axis value, seed), seeds shared for pairing.

    Gains are re-solved at every sweep point (the dual price depends on the
    population and budget); estimation tables only depend on the classes.
    Each point is one `run_paired` call with the replications as its lanes;
    points run in parallel when more than one worker is available, and
    per-lane seeding keeps results identical either way. Records come point
    by point, each as `run_paired` orders them. The policies, the replication
    count and every point are checked before the first solve.
    """
    check_run(policies, replications)
    points = sweep_points(config, axis, values)
    tasks = [
        (point, policies, solve_system(point, with_gains="mgf" in policies), config.seed,
         value if axis == "scale" else 1, replications)
        for value, point in zip(values, points)
    ]

    workers = resolve_workers(len(tasks))
    if workers <= 1:
        batches = list(map(run_paired, *zip(*tasks)))
    else:
        # Imported here so that commands without a pool never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(run_paired, *zip(*tasks)))
    return [r for batch in batches for r in batch]
