"""Per-class average-cost MDP solver, gain indices, and dual price search.

Each agent class defines a two-action MDP on (age, last observation): stay
passive and let the age grow, or transmit at price lambda and, on delivery,
reset the age to 1 with a fresh observation. Relative value iteration yields
the action-value tables; their difference is the gain index that drives the
Maximum Gain First policy. The dual search prices transmissions so that the
relaxed (uncoupled) system uses the channel budget on average: the relaxed
activation rate of a class's greedy policy follows exactly from renewal
theory, and it does not increase with the price, so bracketing and bisection
on lambda find the budget price without simulation.

The MDP sees the source state only through its safety label, so the dual
search solves each class on the coarsest lumpable quotient of its source
that refines the labels and lifts the tables back to every state. The
400-position grid walk lumps onto its 20 rows; the row chains of the 20-row
grid do not lump further, and their quotient is the chain itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConvergenceError, ValidationError
from .markov import STATIONARY_TOL, MarkovSource, lumpable_partition, stationary_law
# is_primitive, stationary_distribution and build_tables are unused here, but
# perfbench's tracer wraps them at these names too.
from .markov import is_primitive, stationary_distribution  # noqa: F401
from .tables import AgentClassSpec, PenaltyTable, build_tables  # noqa: F401

DEFAULT_TOL = 1e-9
DEFAULT_MAX_ITERS = 100_000
RATE_BAND = 0.05
REF_STATE = (1, 0)

# Gains within solver resolution of zero are ties; ties stay passive so
# rounding noise on an exactly indifferent state cannot burn a channel.
GAIN_TIE_EPS = 1e-9


@dataclass(frozen=True)
class SolverSettings:
    """Convergence tolerance and sweep cap of the class MDP solves."""

    tol: float = DEFAULT_TOL
    max_iters: int = DEFAULT_MAX_ITERS

    def __post_init__(self):
        if self.tol <= 0 or self.max_iters < 1:
            raise ValidationError("tol must be positive, max_iters at least 1")


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


@dataclass(frozen=True)
class LumpedClass:
    """One class MDP's inputs on the coarsest lumpable quotient of its source.

    `block[x]` is the quotient state of source state x. Each block is
    represented by its first member: the quotient's rows are that member's
    row-to-block masses (not renormalized) and its penalty column is the
    member's. The ordering keeps state 0 in block 0, so the reference state
    of value iteration is the same on both chains.
    """

    source: MarkovSource
    penalty: PenaltyTable
    block: np.ndarray

    @classmethod
    def of(cls, spec: AgentClassSpec, penalty: PenaltyTable) -> LumpedClass:
        p = spec.source.transition
        block = lumpable_partition(p, spec.safety.assignment)
        _, reps = np.unique(block, return_index=True)
        # A block that takes a whole row can sum to 1 + ulp; the clip undoes
        # only that rounding and leaves every entry of a singleton block as is.
        quotient = np.minimum(p[reps] @ np.eye(reps.size)[block], 1.0)
        values = penalty.values[:, reps]
        values.setflags(write=False)
        block.setflags(write=False)
        return cls(
            MarkovSource(quotient, delta_bound=spec.source.delta_bound, name=spec.source.name),
            PenaltyTable(values, penalty.delta_bound),
            block,
        )

    def lift(self, sol: BanditSolution) -> BanditSolution:
        """A quotient solution read back on every source state."""
        tables = {}
        for key in ("h", "q_active", "q_passive", "gain"):
            tables[key] = getattr(sol, key)[:, self.block]
            tables[key].setflags(write=False)
        return replace(sol, **tables)


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


def relaxed_rate(mask: np.ndarray, source: MarkovSource, success_prob: float) -> float:
    """One agent's long-run activations per slot under an active mask.

    `mask[delta, x]` (rows 1..D, row 0 unused, as from
    `BanditSolution.active_mask`) says whether the agent transmits at age
    delta holding observation x. A delivery starts a renewal cycle at age 1
    whose observation is drawn from P^delta. Per starting observation the
    loop sums the expected cycle time, the expected activations and the law
    of the next cycle's observation, kernel K; at the age bound the agent
    stays until a delivery, or forever if it never transmits there. By the
    renewal-reward theorem the rate is the ratio of the activation and time
    sums weighted by K's stationary law. It is 0 when that law reaches an
    observation the agent holds forever, and K must have a unique law
    otherwise (ConvergenceError).
    """
    db = mask.shape[0] - 1
    p = source.transition
    nx = source.state_count
    reach = np.ones(nx)  # probability the cycle is still running at this age
    length = np.zeros(nx)  # expected cycle length
    acts = np.zeros(nx)
    kernel = np.zeros((nx, nx))
    power = p  # P^delta
    for delta in range(1, db):
        sent = np.where(mask[delta], reach, 0.0)
        length += reach
        acts += sent
        kernel += (success_prob * sent)[:, None] * power
        reach = reach - success_prob * sent
        power = power @ p
    active = mask[db]
    held = ~active & (reach > 0.0)
    if held.all():
        return 0.0
    stay = np.where(active, reach / success_prob, 0.0)
    length += stay
    acts += stay
    kernel += reach[:, None] * power
    pi = stationary_law(kernel, f"the renewal kernel of {source.name}")
    if pi[held].sum() > STATIONARY_TOL:
        return 0.0
    return float(pi @ acts / (pi @ length))


def dual_ascent(
    classes: list[AgentClassSpec],
    penalties: list[PenaltyTable],
    channels: int,
    tol: float = DEFAULT_TOL,
    max_iters: int = DEFAULT_MAX_ITERS,
) -> tuple[float, DualTrace, list[BanditSolution]]:
    """Search the transmission price at which relaxed usage meets the budget.

    `penalties` are the classes' penalty tables from `build_tables`, all at
    one age bound. At each probed price every class MDP is solved on its
    `LumpedClass` quotient, and the relaxed activation rate is the sum over
    classes of member count times `relaxed_rate` of the greedy mask. That
    rate does not increase with the price, so the search probes lambda = 0
    (returned at once when the rate is at most M + 5%), expands with
    lambda <- lo + max(1, 2 lo) until the rate falls below M, then bisects.
    It stops at the first price whose rate lies within +/-5% of M; when none
    does, it returns the closest probe with converged=False. Solutions are
    lifted back to every source state.
    """
    if not classes:
        raise ValidationError("dual_ascent needs at least one agent class")
    if len(penalties) != len(classes):
        raise ValidationError(f"{len(penalties)} penalty tables for {len(classes)} classes")
    if len({pen.delta_bound for pen in penalties}) != 1:
        raise ValidationError("penalty tables must share one delta_bound")

    lumped = [LumpedClass.of(c, pen) for c, pen in zip(classes, penalties)]
    warm: list[np.ndarray | None] = [None] * len(classes)  # quotient-sized
    band = RATE_BAND * channels
    trace = DualTrace()
    best = None  # (gap, lam, solutions)

    def probe(lam: float) -> tuple[float, bool, list[BanditSolution]]:
        nonlocal best
        sols, rate = [], 0.0
        for i, (c, lc) in enumerate(zip(classes, lumped)):
            sol = relative_value_iteration(
                lc.penalty, lc.source, c.success_prob, lam, tol=tol, max_iters=max_iters, h_init=warm[i]
            )
            warm[i] = sol.h
            rate += c.member_count * relaxed_rate(sol.active_mask(), lc.source, c.success_prob)
            sols.append(lc.lift(sol))
        trace.iterations.append((len(trace.iterations) + 1, lam, rate))
        gap = abs(rate - channels)
        if best is None or gap < best[0]:
            best = (gap, lam, sols)
        return rate, gap <= band, sols

    def finish(lam: float, sols: list[BanditSolution], converged: bool):
        trace.lambda_star = lam
        trace.converged = converged
        return lam, trace, sols

    rate, hit, sols = probe(0.0)
    if rate <= channels + band:
        return finish(0.0, sols, hit)
    lo, hi = 0.0, None
    for _ in range(30):
        lam = lo + max(1.0, 2.0 * lo)
        rate, hit, sols = probe(lam)
        if hit:
            return finish(lam, sols, True)
        if rate < channels:
            hi = lam
            break
        lo = lam
    if hi is not None:
        for _ in range(50):
            mid = 0.5 * (lo + hi)
            rate, hit, sols = probe(mid)
            if hit:
                return finish(mid, sols, True)
            if rate > channels:
                lo = mid
            else:
                hi = mid
            if hi - lo < 1e-12:
                break
    _, lam, sols = best
    return finish(lam, sols, False)


def dual_lower_bound(solutions: list[BanditSolution], classes: list[AgentClassSpec], channels: int) -> float:
    """Weak-duality lower bound on the total long-run penalty of any policy.

    Valid for solutions at any nonnegative price, tightest near the optimum:
    each class average cost already includes its price-weighted activations,
    so the bound is the member-weighted sum minus price times budget.
    """
    lam = solutions[0].lam
    total = sum(c.member_count * s.avg_cost for c, s in zip(classes, solutions))
    return total - lam * channels
