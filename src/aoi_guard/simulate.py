"""Time-slotted Monte-Carlo simulator of the full monitoring system.

Each slot: every source takes a Markov step, the scheduler pulls at most M
agents based on receiver-side (age, last observation) states, each pulled
transmission survives its erasure channel independently, deliveries land one
slot later and reset that agent's age, and the receiver's tabulated estimate
is charged against the true safety label.

Runs are reproducible bit for bit: all randomness derives from the config
seed through fixed substreams (one per agent for motion, one per agent for
the channel, one for the policy, one for initial states), so policies can be
compared on common random numbers.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .bandit import BanditSolution, DualTrace, dual_ascent
from .errors import ValidationError
from .markov import cumulative_rows, is_primitive, stack_padded, stationary_distribution, step_states
from .policies import POLICY_KEYS, QUEUE_CAPACITY, top_ids, top_positive_ids, uniform_subset
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


class _World:
    """Precomputed state paths and channel outcomes shared across policies."""

    def __init__(self, config: SimConfig, seed: int):
        classes = config.classes
        self.cls_of_agent = np.concatenate(
            [np.full(c.member_count, i, dtype=int) for i, c in enumerate(classes)]
        )
        n = self.cls_of_agent.size
        t_slots = config.slots
        seq = np.random.SeedSequence(seed)
        init_seq, policy_seq = seq.spawn(2)
        agent_seqs = seq.spawn(2 * n)
        self.policy_seq = policy_seq

        rng_init = np.random.default_rng(init_seq)
        x0 = np.empty(n, dtype=np.int32)
        for i, c in enumerate(classes):
            members = np.flatnonzero(self.cls_of_agent == i)
            if is_primitive(c.source):
                law = stationary_distribution(c.source)
            else:
                law = np.full(c.source.state_count, 1.0 / c.source.state_count)
            x0[members] = rng_init.choice(c.source.state_count, size=members.size, p=law)

        cum = stack_padded([cumulative_rows(c.source.transition) for c in classes], 1.0)
        self.x_path = np.empty((t_slots, n), dtype=np.int32)
        self.x_path[0] = x0
        motion_u = np.empty((t_slots, n))
        for a in range(n):
            motion_u[:, a] = np.random.default_rng(agent_seqs[2 * a]).random(t_slots)
        x = x0.astype(int)
        cls_idx = self.cls_of_agent
        for t in range(1, t_slots):
            x = step_states(cum, cls_idx, x, motion_u[t])
            self.x_path[t] = x
        del motion_u

        p_agent = np.array([classes[i].success_prob for i in cls_idx])
        self.channel_ok = np.empty((t_slots, n), dtype=bool)
        for a in range(n):
            u = np.random.default_rng(agent_seqs[2 * a + 1]).random(t_slots)
            self.channel_ok[:, a] = u < p_agent[a]

        safety = stack_padded([c.safety.assignment for c in classes], 0)
        self.y_path = safety[cls_idx, self.x_path]


def _run_policy(
    config: SimConfig,
    world: _World,
    policy: str,
    system: SolvedSystem,
    seed: int,
    scale: int,
) -> SimRecord:
    """Receiver/scheduler loop against a fixed world; one record out."""
    n = world.cls_of_agent.size
    t_slots, warmup, budget = config.slots, config.warmup, config.channels
    db = config.delta_bound
    cls_idx = world.cls_of_agent

    est_stack = stack_padded([e.choices for e in system.estimators], 0)
    loss_stack = stack_padded([c.loss.entries for c in config.classes], 0.0)
    if policy == "mgf":
        if system.solutions is None:
            raise ValidationError("MGF requires solved gain tables; run solve_system with gains first")
        gain_stack = stack_padded([np.nan_to_num(s.gain, nan=0.0) for s in system.solutions], 0.0)

    rng_policy = np.random.default_rng(world.policy_seq)

    delta = np.ones(n, dtype=np.int64)
    x_obs = world.x_path[0].astype(int).copy()
    pend_pull = np.zeros(n, dtype=bool)
    pend_ok = np.zeros(n, dtype=bool)
    pend_gen = np.zeros(n, dtype=np.int64)
    # random_queue: every agent queues one packet per slot and drops its
    # oldest beyond QUEUE_CAPACITY, so its queue is always the contiguous run
    # of stamps t - backlog + 1 .. t and a count describes it fully.
    backlog = np.zeros(n, dtype=np.int64)
    ids = np.arange(n)

    total_loss = 0.0
    aoi_sum = np.zeros(n)
    deliveries = 0
    activations = 0
    for t in range(t_slots):
        if t > 0:
            delivered = pend_pull & pend_ok
            if delivered.any():
                delta = np.where(delivered, t - pend_gen, delta + 1)
                x_obs = np.where(delivered, world.x_path[pend_gen, ids], x_obs)
                deliveries += int(delivered.sum())
            else:
                delta += 1
        dc = np.minimum(delta, db)
        if t >= warmup:
            yhat = est_stack[cls_idx, dc, x_obs]
            total_loss += float(loss_stack[cls_idx, world.y_path[t], yhat].sum())
            aoi_sum += delta

        if policy == "mgf":
            sel = top_positive_ids(gain_stack[cls_idx, dc, x_obs], budget)
        elif policy == "maf":
            sel = top_ids(delta, budget)
        elif policy == "randomized":
            sel = uniform_subset(n, budget, rng_policy)
        else:  # random_queue
            backlog = np.minimum(backlog + 1, QUEUE_CAPACITY)
            sel = uniform_subset(n, budget, rng_policy)
        if sel.size > budget:
            raise RuntimeError(f"{policy} selected {sel.size} agents with {budget} channels")
        activations += int(sel.size)

        pend_pull[:] = False
        pend_pull[sel] = True
        pend_ok = world.channel_ok[t]
        if policy == "random_queue":
            pend_gen[sel] = t - backlog[sel] + 1
            backlog[sel] -= 1
        else:
            pend_gen[sel] = t

    accounted = t_slots - warmup
    agent_mean_aoi = aoi_sum / accounted
    return SimRecord(
        policy=policy,
        seed=seed,
        agents=n,
        channels=budget,
        scale=scale,
        slots=t_slots,
        total_loss=total_loss,
        normalized_penalty=total_loss / (accounted * n),
        activation_rate=activations / t_slots,
        mean_aoi=float(agent_mean_aoi.mean()),
        agent_mean_aoi=tuple(float(v) for v in agent_mean_aoi),
        deliveries=deliveries,
    )


def run_paired(
    config: SimConfig,
    policies: list[str],
    system: SolvedSystem,
    seed: int,
    scale: int = 1,
) -> list[SimRecord]:
    """Run several policies against one shared world (common random numbers)."""
    world = _World(config, seed)
    return [_run_policy(config, world, p, system, seed, scale) for p in policies]


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
    config, policies, system, seed, scale = args
    return run_paired(config, policies, system, seed, scale)


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
    Points and replications run in parallel when more than one worker is
    available; per-task seeding keeps results identical either way.
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
        for rep in range(replications):
            tasks.append((point, policies, system, config.seed + rep, scale))

    workers = resolve_workers(len(tasks))
    if workers <= 1:
        batches = [_sweep_task(t) for t in tasks]
    else:
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
