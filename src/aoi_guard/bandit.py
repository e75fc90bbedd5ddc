"""Per-class average-cost MDP solver, gain indices, and dual price search.

Each agent class defines a two-action MDP on (age, last observation): stay
passive and let the age grow, or transmit at price lambda and, on delivery,
reset the age to 1 with a fresh observation. Relative value iteration yields
the action-value tables; their difference is the gain index that drives the
Maximum Gain First policy. Stochastic dual subgradient ascent tunes lambda so
that the relaxed (uncoupled) system transmits at the channel budget on
average.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, ValidationError
from .markov import (
    MarkovSource,
    cumulative_rows,
    is_primitive,
    stack_padded,
    stationary_distribution,
    step_states,
)
from .tables import AgentClassSpec, PenaltyTable, build_tables

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 100_000
DEFAULT_BETA = 1.0
DEFAULT_EVAL_HORIZON = 20_000
DEFAULT_OUTER_ITERS = 60
RATE_BAND = 0.05
REF_STATE = (1, 0)

# Gains within solver resolution of zero are ties; ties stay passive so
# rounding noise on an exactly indifferent state cannot burn a channel.
GAIN_TIE_EPS = 1e-9


@dataclass(frozen=True)
class SolverSettings:
    """Knobs for the MDP solves and the dual price search."""

    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS
    beta: float = DEFAULT_BETA
    eval_horizon: int = DEFAULT_EVAL_HORIZON
    outer_iters: int = DEFAULT_OUTER_ITERS

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1 or self.beta <= 0:
            raise ValidationError("tol and beta must be positive, max_iters at least 1")
        if self.eval_horizon < 1 or self.outer_iters < 1:
            raise ValidationError("eval_horizon and outer_iters must be at least 1")


@dataclass(frozen=True)
class BanditSolution:
    """Converged solve of one class MDP at a fixed transmission price.

    Tables share the penalty-table layout: row index is the age, row 0 is
    NaN padding (age 0 is not a reachable MDP state). The gain is exactly
    q_passive - q_active; positive entries mean transmitting is strictly
    better at this price.
    """

    lam: float
    h: np.ndarray
    q_active: np.ndarray
    q_passive: np.ndarray
    avg_cost: float
    gain: np.ndarray
    delta_bound: int
    iterations: int
    span: float

    def active_mask(self) -> np.ndarray:
        """Boolean table of states where the greedy action transmits."""
        mask = self.gain > GAIN_TIE_EPS
        mask[0] = False
        return mask


POWER_STACK_BUDGET = 4_000_000  # entries; beyond this the reset term falls back to a loop
ACCEL_PERIOD = 25


def relative_value_iteration(
    penalty: PenaltyTable,
    source: MarkovSource,
    success_prob: float,
    lam: float,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
    h_init: np.ndarray | None = None,
) -> BanditSolution:
    """Solve one class MDP by synchronous relative value iteration.

    Iterates the Bellman operator, renormalizing so the reference state
    (age 1, state 0) has relative value zero, until the span seminorm of
    successive iterate differences drops below tol. The offset subtracted at
    the reference state converges to the optimal average cost.

    Slowly mixing sources make the plain iteration decay with a geometric
    ratio near 1, so every few sweeps the solver attempts a geometric-series
    extrapolation of the residual and keeps it only if a genuine Bellman
    sweep confirms the span shrank. Convergence is therefore always
    certified by plain sweeps.
    """
    if lam < 0.0:
        raise ValidationError(f"transmission price must be nonnegative, got {lam}")
    if tol <= 0.0:
        raise ValidationError(f"tol must be positive, got {tol}")
    if not 0.0 < success_prob <= 1.0:
        raise ValidationError(f"success_prob must lie in (0, 1], got {success_prob}")
    q = penalty.values
    db = penalty.delta_bound
    nx = source.state_count
    if q.shape[1] != nx:
        raise ValidationError(f"penalty table covers {q.shape[1]} states, source has {nx}")
    p = source.transition
    fail = 1.0 - success_prob

    power_stack = None
    if (db + 1) * nx * nx <= POWER_STACK_BUDGET:
        power_stack = np.empty((db + 1, nx, nx))
        power_stack[0] = np.eye(nx)
        for d in range(1, db + 1):
            power_stack[d] = power_stack[d - 1] @ p

    def reset_term(h1: np.ndarray) -> np.ndarray:
        """reset[d, x] = E[h(1, X') | observation x is d steps old]."""
        if power_stack is not None:
            return power_stack @ h1
        out = np.empty((db + 1, nx))
        w = h1
        out[0] = w
        for d in range(1, db + 1):
            w = p @ w
            out[d] = w
        return out

    def sweep(h: np.ndarray) -> tuple[np.ndarray, float, float]:
        up = np.vstack((h[1:], h[db:]))  # up[d] = h[min(d + 1, db)]; row 0 is filler
        passive = q + up
        active = q + lam + fail * up + success_prob * reset_term(h[1])
        bellman = np.minimum(passive, active)
        offset = bellman[REF_STATE]
        h_next = bellman - offset
        diff = (h_next - h)[1:]
        return h_next, float(diff.max() - diff.min()), float(offset)

    h = np.zeros((db + 1, nx)) if h_init is None else np.array(h_init, dtype=float)
    avg_cost = 0.0
    span = np.inf
    spans: list[float] = []
    iteration = 0
    converged = False
    while iteration < max_iters:
        iteration += 1
        h_next, span, avg_cost = sweep(h)
        spans.append(span)
        if span < tol:
            h = h_next
            converged = True
            break
        if iteration % ACCEL_PERIOD == 0 and len(spans) >= 6:
            ratios = [spans[-k] / spans[-k - 1] for k in range(1, 6) if spans[-k - 1] > 0]
            if len(ratios) == 5:
                rbar = float(np.mean(ratios))
                if 0.2 < rbar < 0.99995 and float(np.std(ratios)) < 0.05 * (1.0 - rbar):
                    factor = rbar / (1.0 - rbar)
                    candidate = h_next + np.vstack((np.zeros((1, nx)), (h_next - h)[1:])) * factor
                    if np.all(np.isfinite(candidate)) and iteration < max_iters:
                        iteration += 1
                        cand_next, cand_span, cand_cost = sweep(candidate)
                        spans.append(cand_span)
                        if np.isfinite(cand_span) and cand_span < span:
                            h, span, avg_cost = cand_next, cand_span, cand_cost
                            spans.clear()
                            if span < tol:
                                converged = True
                                break
                            continue
        h = h_next
    if not converged:
        raise ConvergenceError(
            f"relative value iteration on {source.name} stuck at span {span:.3e} "
            f"after {max_iters} iterations (tol {tol:g})",
            residual=span,
        )

    reset = reset_term(h[1])
    h_up = np.vstack((h[2:], h[db:db + 1]))  # h at age min(d + 1, db) for d = 1..db
    q_passive = np.full((db + 1, nx), np.nan)
    q_active = np.full((db + 1, nx), np.nan)
    q_passive[1:] = q[1:] - avg_cost + h_up
    q_active[1:] = q[1:] - avg_cost + lam + fail * h_up + success_prob * reset[1:]
    gain = q_passive - q_active
    for arr in (h, q_passive, q_active, gain):
        arr.setflags(write=False)
    return BanditSolution(
        lam=float(lam),
        h=h,
        q_active=q_active,
        q_passive=q_passive,
        avg_cost=avg_cost,
        gain=gain,
        delta_bound=db,
        iterations=iteration,
        span=span,
    )


def dual_update(lam: float, step: float, activation_rate: float, channels: int) -> float:
    """One projected subgradient step on the transmission price."""
    return max(0.0, lam + step * (activation_rate - channels))


@dataclass
class DualTrace:
    """Iteration log of the dual search: (iteration, lambda, activation rate)."""

    iterations: list[tuple[int, float, float]] = field(default_factory=list)
    lambda_star: float = 0.0
    converged: bool = False

    def csv_rows(self) -> list[str]:
        rows = ["iteration,lambda,activation_rate"]
        rows += [f"{j},{lam!r},{rate!r}" for j, lam, rate in self.iterations]
        return rows


class _RelaxedRollout:
    """Simulates every real bandit under its per-class greedy policy.

    There is no channel coupling: this estimates the mean activation count of
    the relaxed system at a given price. Streams are drawn fresh per call so
    repeated evaluations are independent; construction from a seed sequence
    keeps the whole dual search reproducible.
    """

    def __init__(self, classes: list[AgentClassSpec], horizon: int, seed_seq: np.random.SeedSequence):
        self.classes = classes
        self.horizon = horizon
        self.cls_of_agent = np.concatenate(
            [np.full(c.member_count, i, dtype=int) for i, c in enumerate(classes)]
        )
        self.n_agents = int(self.cls_of_agent.size)
        self.cum = [cumulative_rows(c.source.transition) for c in classes]
        self.p_of_agent = np.array([classes[i].success_prob for i in self.cls_of_agent])
        self.init_law = []
        for c in classes:
            if is_primitive(c.source):
                self.init_law.append(stationary_distribution(c.source))
            else:
                self.init_law.append(np.full(c.source.state_count, 1.0 / c.source.state_count))
        self.seed_seq = seed_seq

    def activation_rate(self, active_masks: list[np.ndarray], delta_bound: int) -> float:
        """Mean activations per slot over the horizon, summed over agents."""
        rng_init, rng_motion, rng_channel = [
            np.random.default_rng(s) for s in self.seed_seq.spawn(3)
        ]
        n = self.n_agents
        x = np.empty(n, dtype=int)
        for i, c in enumerate(self.classes):
            members = self.cls_of_agent == i
            x[members] = rng_init.choice(c.source.state_count, size=members.sum(), p=self.init_law[i])
        x_obs = x.copy()
        delta = np.ones(n, dtype=int)
        mask_stack = stack_padded(active_masks, False)  # class, age, x
        cum_stack = stack_padded(self.cum, 1.0)
        u_motion = rng_motion.random((self.horizon, n))
        u_channel = rng_channel.random((self.horizon, n))
        activations = 0
        for t in range(self.horizon):
            pull = mask_stack[self.cls_of_agent, delta, x_obs]
            activations += int(pull.sum())
            x = step_states(cum_stack, self.cls_of_agent, x, u_motion[t])
            delivered = pull & (u_channel[t] < self.p_of_agent)
            delta = np.where(delivered, 1, np.minimum(delta + 1, delta_bound))
            x_obs = np.where(delivered, x, x_obs)
        return activations / self.horizon


def dual_ascent(
    classes: list[AgentClassSpec],
    channels: int,
    beta: float = DEFAULT_BETA,
    eval_horizon: int = DEFAULT_EVAL_HORIZON,
    outer_iters: int = DEFAULT_OUTER_ITERS,
    rng: np.random.Generator | int | None = None,
    delta_bound: int | None = None,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, DualTrace, list[BanditSolution]]:
    """Search the transmission price at which relaxed usage meets the budget.

    Runs projected stochastic subgradient ascent from lambda = 0 with step
    beta / j: at each outer iteration every class MDP is solved at the
    current price, all real bandits are rolled out for eval_horizon slots
    under the uncoupled greedy policies, and the price moves by the measured
    budget violation. Stops once the activation rate lands within +/-5% of
    the channel count. If the harmonic trajectory exhausts its iterations
    outside that band, a monotone bisection polish (rate is non-increasing in
    the price) refines between the best bracketing iterates; should even that
    fail, the closest iterate is returned with converged=False.
    """
    if not classes:
        raise ValidationError("dual_ascent needs at least one agent class")
    if beta <= 0.0 or eval_horizon < 1 or outer_iters < 1:
        raise ValidationError("beta must be positive and horizons/iterations at least 1")
    if delta_bound is None:
        delta_bound = min(c.source.delta_bound for c in classes)
    if rng is None or isinstance(rng, (int, np.integer)):
        seed_root = np.random.SeedSequence(rng if rng is not None else 0)
    else:
        seed_root = rng.bit_generator.seed_seq.spawn(1)[0]

    penalties = [build_tables(c, delta_bound)[0] for c in classes]
    warm: list[np.ndarray | None] = [None] * len(classes)

    def solve_all(lam: float) -> list[BanditSolution]:
        sols = []
        for i, c in enumerate(classes):
            sol = relative_value_iteration(
                penalties[i], c.source, c.success_prob, lam, tol=tol, max_iters=max_iters, h_init=warm[i]
            )
            warm[i] = sol.h
            sols.append(sol)
        return sols

    rollout = _RelaxedRollout(classes, eval_horizon, seed_root.spawn(1)[0])

    def measure(sols: list[BanditSolution]) -> float:
        rate = rollout.activation_rate([s.active_mask() for s in sols], delta_bound)
        if not np.isfinite(rate):
            raise ArithmeticError(f"non-finite activation rate {rate}")
        return rate

    band = RATE_BAND * channels
    trace = DualTrace()
    lam = 0.0
    best = None  # (gap, lam, rate, solutions)
    for j in range(1, outer_iters + 1):
        sols = solve_all(lam)
        rate = measure(sols)
        trace.iterations.append((j, lam, rate))
        gap = abs(rate - channels)
        if best is None or gap < best[0]:
            best = (gap, lam, rate, sols)
        if gap <= band:
            trace.lambda_star = lam
            trace.converged = True
            return lam, trace, sols
        lam = dual_update(lam, beta / j, rate, channels)

    # Bracket the budget between the tightest iterates on each side; if
    # every iterate sits on one side, expand in the other direction first.
    j = outer_iters

    def probe(lam_probe: float):
        nonlocal j, best
        j += 1
        sols = solve_all(lam_probe)
        rate = measure(sols)
        trace.iterations.append((j, lam_probe, rate))
        gap = abs(rate - channels)
        if gap < best[0]:
            best = (gap, lam_probe, rate, sols)
        return rate, gap, sols

    above = [(l, r) for _, l, r in trace.iterations if r > channels]
    below = [(l, r) for _, l, r in trace.iterations if r < channels]
    lo = max(above, key=lambda t: t[0])[0] if above else 0.0
    hi = min(below, key=lambda t: t[0])[0] if below else None
    for _ in range(30):
        if hi is not None:
            break
        step_up = max(1.0, 2.0 * lo)
        rate, gap, sols = probe(lo + step_up)
        if gap <= band:
            trace.lambda_star = lo + step_up
            trace.converged = True
            return lo + step_up, trace, sols
        if rate < channels:
            hi = lo + step_up
        else:
            lo = lo + step_up
    if hi is not None:
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            rate, gap, sols = probe(mid)
            if gap <= band:
                trace.lambda_star = mid
                trace.converged = True
                return mid, trace, sols
            if rate > channels:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break

    _, lam_best, _, sols = best
    trace.lambda_star = lam_best
    trace.converged = False
    return lam_best, trace, sols


def dual_lower_bound(solutions: list[BanditSolution], classes: list[AgentClassSpec], channels: int) -> float:
    """Weak-duality lower bound on the total long-run penalty of any policy.

    Valid for solutions at any nonnegative price, tightest near the optimum:
    each class average cost already includes its price-weighted activations,
    so the bound is the member-weighted sum minus price times budget.
    """
    lam = solutions[0].lam
    total = sum(c.member_count * s.avg_cost for c, s in zip(classes, solutions))
    return total - lam * channels
