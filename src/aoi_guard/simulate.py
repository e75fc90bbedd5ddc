"""Time-slotted Monte-Carlo simulator of the full monitoring system.

Each slot: every source takes a Markov step, the scheduler pulls at most M
agents based on receiver-side (age, last observation) states, each pulled
transmission survives its erasure channel independently, deliveries land one
slot later and reset that agent's age, and the receiver's tabulated estimate
is charged against the true safety label.

One `run_paired` call runs every seed of a run as a lane. Each policy keeps
(lanes, N) arrays and steps every lane with one set of array operations per
slot. The world streams in chunks of CHUNK_SLOTS slots that every policy
reads before the next chunk is drawn; only the chunk and the last
QUEUE_CAPACITY slots of true states (random_queue's stamps reach that far
back) are kept, so memory is O((CHUNK_SLOTS + QUEUE_CAPACITY) * N * lanes)
whatever the horizon.

Runs are reproducible bit for bit: all randomness of a lane derives from its
seed through fixed substreams (one per agent for motion, one per agent for
the channel, one for the policy, one for initial states), so policies can be
compared on common random numbers, and a lane's record does not depend on
the other lanes or on the chunk length.
"""

from __future__ import annotations

import os
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
from .tables import AgentClassSpec, EstimatorTable, PenaltyTable, build_tables

THREADS_ENV = "AOI_GUARD_THREADS"


@dataclass(frozen=True)
class SimConfig:
    """One simulation run: population, budget, horizon, policy, seed."""

    classes: tuple[AgentClassSpec, ...]
    channels: int
    slots: int
    warmup: int | None = None
    seed: int = 0
    policy: str = "mgf"
    delta_bound: int = 250

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes or self.agent_count < 1:
            raise ValidationError("need at least one agent")
        if self.channels < 1:
            raise ValidationError(f"channels must be >= 1, got {self.channels}")
        if self.policy not in POLICY_KEYS:
            raise ValidationError(f"policy must be one of {', '.join(POLICY_KEYS)}; got {self.policy!r}")
        if self.delta_bound < 1:
            raise ValidationError(f"delta_bound must be >= 1, got {self.delta_bound}")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        warmup = self.slots // 10 if self.warmup is None else self.warmup
        object.__setattr__(self, "warmup", warmup)
        if not 0 <= warmup < self.slots:
            raise ValidationError(f"need slots > warmup >= 0, got slots={self.slots}, warmup={warmup}")

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

    def csv_row(self) -> str:
        return (
            f"{self.policy},{self.agents},{self.channels},{self.scale},{self.seed},{self.slots},"
            f"{self.total_loss!r},{self.normalized_penalty!r},{self.activation_rate!r},{self.mean_aoi!r}"
        )


CSV_HEADER = "policy,N,M,r,seed,slots,total_loss,normalized_penalty,activation_rate,mean_aoi"


@dataclass(frozen=True)
class SolvedSystem:
    """Per-class tables (and, when needed, gain solutions) for one config."""

    penalties: tuple[PenaltyTable, ...]
    estimators: tuple[EstimatorTable, ...]
    solutions: tuple[BanditSolution, ...] | None = None
    lambda_star: float | None = None
    trace: DualTrace | None = None


def solve_system(config: SimConfig, with_gains: bool | None = None) -> SolvedSystem:
    """Build estimation tables for every class; solve gains if MGF needs them."""
    if with_gains is None:
        with_gains = config.policy == "mgf"
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
    Every agent's motion and channel generator draws `random(chunk)` per
    chunk, the same numbers one `random(slots)` call would give.
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
        self.policy_seqs, self.motion, self.channel = [], [], []
        for lane, seed in enumerate(seeds):
            seq = np.random.SeedSequence(seed)
            init_seq, policy_seq = seq.spawn(2)
            agent_seqs = seq.spawn(2 * n)
            self.policy_seqs.append(policy_seq)
            rng_init = np.random.default_rng(init_seq)
            for i, c in enumerate(classes):
                members = np.flatnonzero(self.cls_idx == i)
                x0[lane, members] = rng_init.choice(c.source.state_count, size=members.size, p=laws[i])
            self.motion.append([np.random.default_rng(s) for s in agent_seqs[0::2]])
            self.channel.append([np.random.default_rng(s) for s in agent_seqs[1::2]])
        self.key = x0 + self.cls_idx * width

        cum = stack_padded([cumulative_rows(c.source.transition) for c in classes], 1.0)
        cols, self.bounds = candidate_columns(cum.reshape(-1, width))
        self.next_key = cols + np.arange(cols.shape[1]) // width * width
        self.label = stack_padded([c.safety.assignment for c in classes], 0).reshape(-1)
        self.success = np.array([classes[i].success_prob for i in self.cls_idx])[:, None]

        self.keys = np.zeros((history + CHUNK_SLOTS, lanes, n), dtype=np.int32)
        self.motion_u = np.empty((lanes, n, CHUNK_SLOTS))
        self.channel_u = np.empty((lanes, n, CHUNK_SLOTS))
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
        for lane in range(len(self.motion)):
            for rng, out in zip(self.motion[lane], self.motion_u[lane]):
                rng.random(out=out[:length])
            for rng, out in zip(self.channel[lane], self.channel_u[lane]):
                rng.random(out=out[:length])
        self.ok[:length] = (self.channel_u[:, :, :length] < self.success).transpose(2, 0, 1)
        motion = np.ascontiguousarray(self.motion_u[:, :, :length].transpose(2, 0, 1))
        key = self.key
        for i in range(length):
            if t0 + i > 0:
                key = step_candidates(self.next_key, self.bounds, key, motion[i])
            self.keys[h + i] = key
        self.key, self.t0, self.t1 = key, t0, t1
        return True


class _Lanes:
    """One policy's receiver and scheduler state on every lane, plus its tallies.

    `arriving` marks the packets that will land at the start of the next
    slot (pulled and not erased); `gen` is the slot each pulled packet was
    generated in. random_queue keeps every agent's queue as a backlog count:
    each agent queues one packet per slot and drops its oldest beyond the
    queue capacity, so its queue is always the run of stamps
    t - backlog + 1 .. t.
    """

    def __init__(self, policy: str, world: _WorldStream):
        shape = world.key.shape
        self.delta = np.ones(shape, dtype=np.int64)
        self.seen = world.key.copy()  # key of the receiver's last observation
        self.arriving = np.zeros(shape, dtype=bool)
        self.gen = np.zeros(shape, dtype=np.int64)
        self.backlog = np.zeros(shape, dtype=np.int64)
        randomized = policy in ("randomized", "random_queue")
        self.rngs = [np.random.default_rng(s) for s in world.policy_seqs] if randomized else []
        self.total_loss = np.zeros(shape[0])
        self.aoi_sum = np.zeros(shape, dtype=np.int64)
        self.deliveries = np.zeros(shape[0], dtype=np.int64)
        self.activations = np.zeros(shape[0], dtype=np.int64)
        self.ages = np.empty((CHUNK_SLOTS, *shape), dtype=np.int64)
        self.observed = np.empty((CHUNK_SLOTS, *shape), dtype=np.intp)
        self.picked = np.empty((CHUNK_SLOTS, *shape), dtype=bool)


def _run_policy(
    config: SimConfig,
    world: _WorldStream,
    policy: str,
    lanes: _Lanes,
    tables: tuple[np.ndarray, np.ndarray, np.ndarray | None],
) -> None:
    """One policy's slots of the current chunk on every lane, then their tallies.

    `tables` holds the estimator choices flattened to (age, key), the
    (class, label, estimate) loss stack and, for MGF, the `gain_keys`
    flattened like the estimator: each cell's gain rank, or -1 where the
    relaxed policy's `active_mask` leaves it passive, so the eligible agents
    are exactly the relaxed policy's active set. random_queue's queue
    capacity is the world's history window, which its stamps never reach
    past.
    """
    est, loss, gain_key = tables
    t0, t1, base = world.t0, world.t1, world.t0 - world.history
    length, budget, db = t1 - t0, config.channels, config.delta_bound
    delta, seen, arriving, gen, backlog = lanes.delta, lanes.seen, lanes.arriving, lanes.gen, lanes.backlog
    if lanes.rngs:
        n = delta.shape[1]
        draws = np.concatenate([rng.random((length, min(budget, n))) for rng in lanes.rngs])
        picks = uniform_subset(draws, n).reshape(len(lanes.rngs), length, n).transpose(1, 0, 2)

    for i in range(length):
        t = t0 + i
        if t > 0:
            delta += 1
            if policy == "random_queue":
                lane, agent = np.nonzero(arriving)
                stamp = gen[lane, agent]
                delta[lane, agent] = t - stamp
                seen[lane, agent] = world.keys[stamp - base, lane, agent]
            else:
                np.copyto(delta, 1, where=arriving)
                np.copyto(seen, world.keys[t - 1 - base], where=arriving)
        lanes.ages[i] = delta
        lanes.observed[i] = seen

        if policy == "mgf":
            sel = top_positive_ids(gain_key[np.minimum(delta, db), seen], budget)
        elif policy == "maf":
            sel = top_ids(delta, budget)
        else:
            sel = picks[i]
            if policy == "random_queue":
                np.minimum(backlog + 1, world.history, out=backlog)
                np.copyto(gen, t - backlog + 1, where=sel)
                backlog -= sel
        lanes.picked[i] = sel
        np.logical_and(sel, world.ok[i], out=arriving)

    picked = lanes.picked[:length]
    counts = picked.sum(axis=2)
    if counts.max() > budget:
        raise RuntimeError(f"{policy} selected {counts.max()} agents with {budget} channels")
    lanes.activations += counts.sum(axis=0)
    landed = min(length, config.slots - 1 - t0)  # a pull in the last slot never lands
    lanes.deliveries += (picked[:landed] & world.ok[:landed]).sum(axis=(0, 2))
    first = max(config.warmup - t0, 0)
    if first < length:
        ages = lanes.ages[first:length]
        labels = world.label[world.keys[world.history + first : world.history + length]]
        estimates = est[np.minimum(ages, db), lanes.observed[first:length]]
        per_slot = loss[world.cls_idx, labels, estimates].sum(axis=2)
        # slot by slot, in the order a running total adds them
        lanes.total_loss = np.cumsum(np.vstack((lanes.total_loss, per_slot)), axis=0)[-1]
        lanes.aoi_sum += ages.sum(axis=0)


def run_paired(
    config: SimConfig,
    policies: list[str],
    system: SolvedSystem,
    seed: int,
    scale: int = 1,
    replications: int = 1,
) -> list[SimRecord]:
    """Run several policies on the worlds of seeds seed .. seed + replications - 1.

    Each seed is a lane, and every policy sees the same world on it (common
    random numbers). Records come per policy, lanes in seed order.
    """
    if replications < 1:
        raise ValidationError(f"replications must be >= 1, got {replications}")
    if "mgf" in policies and system.solutions is None:
        raise ValidationError("MGF requires solved gain tables; run solve_system with gains first")
    seeds = list(range(seed, seed + replications))
    world = _WorldStream(config, seeds, QUEUE_CAPACITY if "random_queue" in policies else 1)

    def flat(arrays, fill):  # per-class (age, x) tables -> (age, key)
        stack = stack_padded(arrays, fill)
        return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)

    est = flat([e.choices for e in system.estimators], 0)
    gain_key = None
    if "mgf" in policies:
        gain_key = gain_keys(flat([np.nan_to_num(s.gain, nan=0.0) for s in system.solutions], 0.0),
                             flat([s.active_mask() for s in system.solutions], False))
    tables = (est, stack_padded([c.loss.entries for c in config.classes], 0.0), gain_key)
    states = [_Lanes(p, world) for p in policies]
    while world.advance():
        for policy, lanes in zip(policies, states):
            _run_policy(config, world, policy, lanes, tables)

    n, accounted = world.cls_idx.size, config.slots - config.warmup
    records = []
    for policy, lanes in zip(policies, states):
        for lane, lane_seed in enumerate(seeds):
            total_loss = float(lanes.total_loss[lane])
            agent_mean_aoi = lanes.aoi_sum[lane] / accounted
            records.append(SimRecord(
                policy=policy,
                seed=lane_seed,
                agents=n,
                channels=config.channels,
                scale=scale,
                slots=config.slots,
                total_loss=total_loss,
                normalized_penalty=total_loss / (accounted * n),
                activation_rate=int(lanes.activations[lane]) / config.slots,
                mean_aoi=float(agent_mean_aoi.mean()),
                agent_mean_aoi=tuple(float(v) for v in agent_mean_aoi),
                deliveries=int(lanes.deliveries[lane]),
            ))
    return records


def run_simulation(config: SimConfig, system: SolvedSystem | None = None) -> SimRecord:
    """Simulate one policy per the config; solves tables on entry if needed."""
    if system is None:
        system = solve_system(config)
    return run_paired(config, [config.policy], system, config.seed)[0]


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


def resolve_workers(tasks: int) -> int:
    """Worker count for sweep execution; AOI_GUARD_THREADS caps it (0 = auto)."""
    cap = os.environ.get(THREADS_ENV, "0")
    try:
        cap_n = int(cap)
    except ValueError:
        raise ValidationError(f"{THREADS_ENV} must be an integer, got {cap!r}")
    auto = os.cpu_count() or 1
    workers = auto if cap_n == 0 else min(cap_n, auto)
    return max(1, min(workers, tasks))


def _sweep_task(args):
    return run_paired(*args)


def run_sweep(
    config: SimConfig,
    axis: str,
    values: list[int],
    policies: list[str] | None = None,
    replications: int = 1,
) -> list[SimRecord]:
    """One record per (policy, axis value, seed), seeds shared for pairing.

    Gains are re-solved at every sweep point (the dual price depends on the
    population and budget); estimation tables only depend on the classes.
    Each point is one `run_paired` call with the replications as its lanes;
    points run in parallel when more than one worker is available, and
    per-lane seeding keeps results identical either way.
    """
    if not values or any(v < 1 for v in values):
        raise ValidationError("axis values must be positive")
    policies = list(policies) if policies is not None else list(POLICY_KEYS)
    for p in policies:
        if p not in POLICY_KEYS:
            raise ValidationError(f"unknown policy {p!r}")
    tasks = []
    for value in values:
        point = config_at(config, axis, value)
        if point.agent_count < point.channels:
            raise ValidationError(
                f"sweep point {axis}={value} has N={point.agent_count} < M={point.channels}"
            )
        system = solve_system(point, with_gains="mgf" in policies)
        scale = value if axis == "scale" else 1
        tasks.append((point, policies, system, config.seed, scale, replications))

    workers = resolve_workers(len(tasks))
    if workers <= 1:
        batches = [_sweep_task(t) for t in tasks]
    else:
        # Imported here so that commands without a pool never load multiprocessing.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_sweep_task, tasks))
    records = [r for batch in batches for r in batch]
    records.sort(key=lambda r: (r.policy, r.scale, r.agents, r.channels, r.seed))
    return records


def records_to_csv(records: list[SimRecord]) -> str:
    return "\n".join([CSV_HEADER] + [r.csv_row() for r in records]) + "\n"


def records_to_json(records: list[SimRecord]) -> list[dict]:
    return [
        {
            "policy": r.policy,
            "N": r.agents,
            "M": r.channels,
            "r": r.scale,
            "seed": r.seed,
            "slots": r.slots,
            "total_loss": r.total_loss,
            "normalized_penalty": r.normalized_penalty,
            "activation_rate": r.activation_rate,
            "mean_aoi": r.mean_aoi,
        }
        for r in records
    ]
