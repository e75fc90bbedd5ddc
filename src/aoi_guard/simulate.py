"""Time-slotted Monte-Carlo simulator of the full monitoring system.

Each slot: every source takes a Markov step, the scheduler pulls at most M
agents based on receiver-side (age, last observation) states, each pulled
transmission survives its erasure channel independently, deliveries land one
slot later and reset that agent's age, and the receiver's tabulated estimate
is charged against the true safety label.

One `run_paired` call runs every seed of a run as a lane and every policy as
a row: the receiver and scheduler state is one set of (P, lanes, N) arrays,
and one slot loop steps all policies on all lanes with one set of array
operations per slot (one age update, one selection call for MGF and MAF
together, one delivery). The world streams in chunks of CHUNK_SLOTS slots
that the loop reads before the next chunk is drawn; only the chunk and the
last QUEUE_CAPACITY slots of true states (random_queue's stamps reach that
far back) are kept, with each policy's ages, observations and picks of the
chunk, so memory is O((CHUNK_SLOTS * P + QUEUE_CAPACITY) * N * lanes)
whatever the horizon.

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
from .markov import (
    candidate_columns,
    cumulative_rows,
    is_primitive,
    stack_padded,
    stationary_distribution,
    step_candidates,
)
from .policies import POLICY_KEYS, QUEUE_CAPACITY, gain_keys, top_ids, top_positive_ids, uniform_subset
from .tables import AgentClassSpec, PenaltyTable, build_tables


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
    per-class tables flattened to 2-D. `keys` holds the `history` slots
    before the current chunk and then the chunk: row r is slot t0 - history + r.
    `streams` holds every agent generator, lane by lane in spawn order
    (agent i's motion, then its channel), each drawing `random(chunk)` per
    chunk into its row of one (lanes, N, 2, chunk) buffer: the numbers one
    `random(slots)` call would give. `policy_rngs` are the lanes' policy
    generators.
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
        x0 = np.empty((lanes, n), dtype=np.intp)
        self.streams, self.policy_rngs = [], []
        for lane, seed in enumerate(seeds):
            seq = np.random.SeedSequence(seed)
            init_seq, policy_seq = seq.spawn(2)
            self.streams += map(np.random.default_rng, seq.spawn(2 * n))
            self.policy_rngs.append(np.random.default_rng(policy_seq))
            rng_init = np.random.default_rng(init_seq)
            for i, c in enumerate(classes):
                members = np.flatnonzero(self.cls_idx == i)
                x0[lane, members] = rng_init.choice(c.source.state_count, size=members.size, p=laws[i])
        self.key = x0 + self.cls_idx * width

        cum = stack_padded([cumulative_rows(c.source.transition) for c in classes], 1.0)
        cols, self.bounds = candidate_columns(cum.reshape(-1, width))
        self.next_key = cols + np.arange(cols.shape[1]) // width * width
        self.success = np.array([classes[i].success_prob for i in self.cls_idx])[:, None]

        self.keys = np.zeros((history + CHUNK_SLOTS, lanes, n), dtype=np.int32)
        self.uniforms = np.empty((lanes, n, 2, CHUNK_SLOTS))
        self.ok = np.empty((CHUNK_SLOTS, lanes, n), dtype=bool)

    def advance(self) -> bool:
        """Draw the next chunk of slots; False once the horizon is covered."""
        t0 = self.t1
        if t0 >= self.slots:
            return False
        t1 = min(t0 + CHUNK_SLOTS, self.slots)
        length, h = t1 - t0, self.history
        if t0 > 0:
            self.keys[:h] = self.keys[self.t1 - self.t0 : self.t1 - self.t0 + h]
        for rng, out in zip(self.streams, self.uniforms.reshape(-1, CHUNK_SLOTS)):
            rng.random(out=out[:length])
        self.ok[:length] = (self.uniforms[:, :, 1, :length] < self.success).transpose(2, 0, 1)
        motion = np.ascontiguousarray(self.uniforms[:, :, 0, :length].transpose(2, 0, 1))
        key = self.key
        for i in range(length):
            if t0 + i > 0:
                key = step_candidates(self.next_key, self.bounds, key, motion[i])
            self.keys[h + i] = key
        self.key, self.t0, self.t1 = key, t0, t1
        return True


class _Lanes:
    """Every policy's receiver and scheduler state on every lane, plus their tallies.

    State arrays have shape (P, lanes, N): row r belongs to `policies[r]`,
    the policies run in POLICY_KEYS order. The first `top` rows (MGF, MAF)
    select through `top_ids`; when both run, `top_keys` stacks their keys for
    one selection call. The other rows read one uniform subset per slot
    drawn from the lane's policy stream (`world.policy_rngs`), which
    randomized and random_queue share. `arriving` marks the packets that
    will land at the start of the next slot (pulled and not erased).
    Each random_queue agent queues one packet per slot and drops its oldest
    beyond the capacity (the world's history window), so after slot t its
    queue is the run of stamps oldest .. t: slot t raises `oldest` to at
    least t - history + 1, then adds one where the agent sends, so the sent
    packet carries the stamp oldest - 1. By induction oldest == t + 1 - q
    after every slot, with q the queue's length.
    """

    def __init__(self, policies: list[str], world: _WorldStream):
        self.policies = [p for p in POLICY_KEYS if p in policies]
        self.mgf = "mgf" in self.policies
        self.top = self.mgf + ("maf" in self.policies)
        self.queue = "random_queue" in self.policies
        lanes, n = world.key.shape
        shape = (len(self.policies), lanes, n)
        self.delta = np.ones(shape, dtype=np.int64)
        self.seen = np.broadcast_to(world.key, shape).copy()  # key of the receiver's last observation
        self.arriving = np.zeros(shape, dtype=bool)
        self.oldest = np.zeros((lanes, n), dtype=np.int64)
        self.top_keys = np.empty((2, lanes, n), dtype=np.int64) if self.top == 2 else None
        self.total_loss = np.zeros(shape[:2])
        self.aoi_sum = np.zeros(shape, dtype=np.int64)
        self.deliveries = np.zeros(shape[:2], dtype=np.int64)
        self.activations = np.zeros(shape[:2], dtype=np.int64)
        # int32 holds every age (SimConfig caps slots below 2**31) and the
        # flat (age, key) index that the tally folds into `ages` for any
        # estimator table of fewer than 2**31 cells (16 GiB of int64).
        self.ages = np.empty((CHUNK_SLOTS, *shape), dtype=np.int32)
        self.observed = np.empty((CHUNK_SLOTS, *shape), dtype=np.int32)
        self.picked = np.empty((CHUNK_SLOTS, *shape), dtype=bool)


def _run_policy(
    config: SimConfig,
    world: _WorldStream,
    name: str,
    state: _Lanes,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray | None],
) -> None:
    """Every policy row's slots of the current chunk on every lane, then their tallies.

    `name` joins the names of the policies the state steps with "+"; the
    benchmark's tracer names the loop's span by it.
    `tables` holds the estimator choices flattened to (age, key), the loss
    of every (true key, estimate) pair and, for MGF, the `gain_keys`
    flattened like the estimator: each cell's gain rank, or -1 where the
    relaxed policy's `active_mask` leaves it passive, so the eligible agents
    are exactly the relaxed policy's active set. The age bound D is the
    estimator's row count less one. random_queue's queue capacity is the
    world's history window, which its stamps never reach past.
    """
    est, loss, gain_key = tables
    t0, t1, base = world.t0, world.t1, world.t0 - world.history
    length, budget, db = t1 - t0, config.channels, est.shape[0] - 1
    delta, seen, arriving, picked = state.delta, state.seen, state.arriving, state.picked
    rows, lanes, n = delta.shape
    top, queue = state.top, state.queue
    fresh = rows - queue  # rows that deliver fresh packets: all but random_queue
    fresh_delta, fresh_seen, fresh_arriving = delta[:fresh], seen[:fresh], arriving[:fresh]
    ok = world.ok[:, None]  # (slot, 1, lane, agent): same-rank operands broadcast faster
    top_picked = picked.reshape(CHUNK_SLOTS, rows * lanes, n)[:, : top * lanes]
    head_delta, head_seen = delta[0], seen[0]
    mgf, top_keys = state.mgf, state.top_keys
    if top_keys is not None:
        # MGF and MAF select in one call on their stacked keys. MAF's key is
        # its age, always >= 1, so MGF's threshold at key 0 leaves MAF's rows
        # as `top_ids` picks them.
        stacked, maf_delta = top_keys.reshape(2 * lanes, n), delta[1]
    if top < rows:
        draws = np.concatenate([rng.random((length, min(budget, n))) for rng in world.policy_rngs])
        picks = uniform_subset(draws, n).reshape(lanes, length, n).transpose(1, 0, 2)
        picked[:length, top:] = picks[:, None]
    if queue:
        queue_delta, queue_seen, queue_arriving, oldest = delta[-1], seen[-1], arriving[-1], state.oldest

    for i in range(length):
        t = t0 + i
        if t > 0:
            delta += 1
            if fresh:
                np.copyto(fresh_delta, 1, where=fresh_arriving)
                np.copyto(fresh_seen, world.keys[t - 1 - base], where=fresh_arriving)
            if queue:  # a delivered packet generated at slot g sets the age to t - g
                lane, agent = np.nonzero(queue_arriving)
                stamp = oldest[lane, agent] - 1
                queue_delta[lane, agent] = t - stamp
                queue_seen[lane, agent] = world.keys[stamp - base, lane, agent]
        state.ages[i] = delta
        state.observed[i] = seen

        if top_keys is not None:
            top_keys[0] = gain_key[np.minimum(head_delta, db), head_seen]
            top_keys[1] = maf_delta
            top_picked[i] = top_positive_ids(stacked, budget)
        elif mgf:
            top_picked[i] = top_positive_ids(gain_key[np.minimum(head_delta, db), head_seen], budget)
        elif top:
            top_picked[i] = top_ids(head_delta, budget)
        if queue:
            np.maximum(oldest, t - world.history + 1, out=oldest)
            oldest += picked[i, -1]
        np.logical_and(picked[i], ok[i], out=arriving)

    picked = picked[:length]
    counts = picked.sum(axis=3)
    most = counts.max(axis=(0, 2))
    if most.max() > budget:
        row = int(most.argmax())
        raise RuntimeError(f"{state.policies[row]} selected {most[row]} agents with {budget} channels")
    state.activations += counts.sum(axis=0)
    landed = min(length, config.slots - 1 - t0)  # a pull in the last slot never lands
    state.deliveries += (picked[:landed] & ok[:landed]).sum(axis=(0, 3))
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
        truth = world.keys[world.history + first : world.history + length, None]
        per_slot = loss[truth, estimates].sum(axis=3)
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
    random numbers). All policies step together as rows of one state, one
    slot loop for all of them. Records come per policy in the order given,
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
    gain_key = None
    if "mgf" in policies:
        gain_key = gain_keys(flat([np.nan_to_num(s.gain, nan=0.0) for s in system.solutions], 0.0),
                             flat([s.active_mask() for s in system.solutions], False))
    tables = (est, loss, gain_key)
    state = _Lanes(policies, world)
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
    """The base config moved to every sweep point, each with at least as many agents as channels."""
    if not values or any(v < 1 for v in values):
        raise ValidationError("axis values must be positive")
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
