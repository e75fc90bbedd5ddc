"""Per-class average-cost MDP solver, gain indices, and dual price search.

Each agent class defines a two-action MDP on (age, last observation): stay
passive and let the age grow, or transmit at price lambda and, on delivery,
reset the age to 1 with a fresh observation. Every delivery starts a renewal
cycle, so a fixed policy is evaluated exactly from per-cycle sums over the
observation it starts with, and Howard's policy iteration (Howard 1960;
Puterman 1994, ch. 8-9) solves the MDP in a handful of such evaluations. The
difference of the action-value tables is the gain index that drives the
Maximum Gain First policy. The dual search prices transmissions so that the
relaxed (uncoupled) system uses the channel budget on average: the relaxed
activation rate of a class's greedy policy follows from the same renewal
sums and is the slope of the concave, piecewise linear dual function, so a
cutting-plane search on lambda (Kelley 1960) finds the budget price without
simulation and certifies where it stops.

The MDP sees the source state only through its safety label, so the dual
search solves each class on the coarsest lumpable quotient of its source
that refines the labels and lifts the tables back to every state. The
400-position grid walk lumps onto its 20 rows; the row chains of the 20-row
grid do not lump further, and their quotient is the chain itself.

Each quotient carries one read-only stack of its transition powers P^delta,
delta = 0..D, built once per dual search ((D + 1) |X|^2 doubles, capped at
POWER_STACK_BYTES with a ValidationError). Every evaluation reads it and
works on the whole age axis at once: the renewal sums are a cumulative
product and sums over ages, the renewal kernel is one contraction with the
stack, and the backward pass over the ages is a doubling scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConvergenceError, ValidationError
from .markov import STATIONARY_TOL, MarkovSource, lumpable_partition, recurrent_states, stationary_law
# is_primitive, stationary_distribution and build_tables are unused here, but
# perfbench's tracer wraps them at these names too.
from .markov import is_primitive, stationary_distribution  # noqa: F401
from .tables import AgentClassSpec, PenaltyTable, build_tables  # noqa: F401

RATE_BAND = 0.05
DUAL_PROBE_CAP = 60

# Policy iteration certifies its tables to a Bellman residual of at most
# RESIDUAL_TOL, relative to the price once it exceeds 1. Gains within
# RESIDUAL_TOL of zero are ties; ties stay passive so rounding noise on an
# exactly indifferent state cannot burn a channel.
RESIDUAL_TOL = 1e-9
GAIN_TIE_EPS = RESIDUAL_TOL
# While iterating, a state keeps its action unless its gain has the other
# sign by more than this.
SWITCH_EPS = 1e-12
# Largest P^delta stack a class solve may allocate, in bytes.
POWER_STACK_BYTES = 256 * 2**20


@dataclass(frozen=True)
class BanditSolution:
    """Solve of one class MDP at a fixed transmission price.

    Tables share the penalty-table layout: row index is the age, row 0 is
    NaN padding (age 0 is not a reachable MDP state). The gain is exactly
    q_passive - q_active; positive entries mean transmitting is strictly
    better at this price. `iterations` counts policy evaluations and
    `residual` is the Bellman residual of `h`.
    """

    lam: float
    h: np.ndarray
    q_active: np.ndarray
    q_passive: np.ndarray
    avg_cost: float
    gain: np.ndarray
    delta_bound: int
    iterations: int
    residual: float

    def active_mask(self) -> np.ndarray:
        """Boolean table of states where the greedy action transmits."""
        mask = self.gain > GAIN_TIE_EPS
        mask[0] = False
        return mask


def power_stack(transition: np.ndarray, delta_bound: int) -> np.ndarray:
    """Read-only stack powers[d] = P^d for d = 0..delta_bound, one matrix product per age.

    Raises ValidationError before allocating when the stack would take more
    than POWER_STACK_BYTES: a class whose labels do not lump keeps all its
    states, and at that size every evaluation would cost minutes anyway.
    """
    nx = transition.shape[0]
    size = (delta_bound + 1) * nx * nx * 8
    if size > POWER_STACK_BYTES:
        raise ValidationError(f"the P^delta stack for delta_bound={delta_bound} on a {nx}-state quotient takes "
                              f"{size} bytes, above the {POWER_STACK_BYTES}-byte budget")
    powers = np.empty((delta_bound + 1, nx, nx))
    powers[0] = np.eye(nx)
    for d in range(1, delta_bound + 1):
        np.matmul(powers[d - 1], transition, out=powers[d])
    powers.setflags(write=False)
    return powers


def renewal_sums(mask: np.ndarray, powers: np.ndarray, success_prob: float, q: np.ndarray | None = None):
    """Expected sums over one renewal cycle, per observation x it starts with at age 1.

    `mask[delta, x]` (rows 1..D, row 0 unused, as from
    `BanditSolution.active_mask`) says whether the agent transmits at age
    delta holding observation x; a delivery ends the cycle, and the next one
    starts at age 1 from P^delta, read from the stack `powers` of
    `power_stack`. Returns (reach, length, acts, cost, kernel, power): the
    probability the cycle runs at age D; its expected slots, activations and
    summed penalty q (zero when q is None); the law K of the next cycle's
    observation; and P^D. At age D an active observation stays until a
    delivery; a passive one is held forever, its sums stop before age D and
    its row of K lacks the mass reach[x].

    Every sum runs over the age axis at once: the probability of reaching
    each age is a cumulative product of the per-age survival factors, and K
    is one contraction of the delivered mass at each age with the stack.
    """
    db = mask.shape[0] - 1
    sends = mask[1:db].astype(float)
    reach = np.ones((db, mask.shape[1]))  # reach[d - 1]: the cycle runs at age d
    np.cumprod(1.0 - success_prob * sends, axis=0, out=reach[1:])
    ages, last = reach[:-1], reach[-1]
    sent = ages * sends
    stay = np.where(mask[db], last / success_prob, 0.0)
    length = ages.sum(axis=0) + stay
    acts = sent.sum(axis=0) + stay
    cost = np.zeros(mask.shape[1]) if q is None else (ages * q[1:db]).sum(axis=0) + stay * q[db]
    delivered = np.vstack((success_prob * sent, np.where(mask[db], last, 0.0)))
    kernel = np.einsum("dx,dxy->xy", delivered, powers[1:])
    return last, length, acts, cost, kernel, powers[db]


def evaluate_policy(mask: np.ndarray, q: np.ndarray, powers: np.ndarray, success_prob: float, lam: float,
                    q_min: float):
    """(h, g, q_passive, q_active) of one mask of `policy_iteration`; None if its system is singular.

    With h1 = h(1, .) and the cycle sums of `renewal_sums` (cost C = penalty
    + lambda per activation), the relative values solve (I - K) h1 + L g = C
    with h(1, 0) = 0. A mask passive at age D for some x is a phase-2 mask:
    g = q_min and the held states share one terminal value. Every
    h(delta, .) then follows from reset = P^delta h1 and the backward
    recursion h(d) = a(d) + c(d) h(d + 1) from h(D), run as a doubling scan
    over the ages.
    """
    db = mask.shape[0] - 1
    nx = mask.shape[1]
    reach, length, acts, cost, kernel, _ = renewal_sums(mask, powers, success_prob, q)
    cost += lam * acts
    system = np.eye(nx) - kernel
    # h1(0) = 0, so column 0 of I - K is free for the other unknown: g in
    # phase 1, the held states' terminal value in phase 2 (some x held).
    phase2 = not mask[db].all()
    if phase2:
        system[:, 0] = -np.where(mask[db], 0.0, reach)
        cost -= q_min * length
    else:
        system[:, 0] = length
    solution, _, rank, _ = np.linalg.lstsq(system, cost, rcond=None)
    if rank < nx:
        return None
    g, terminal = (q_min, solution[0]) if phase2 else (float(solution[0]), 0.0)
    h1 = solution
    h1[0] = 0.0
    reset = (powers.reshape(-1, nx) @ h1).reshape(db + 1, nx)  # reset[d] = P^d h1
    base = q - g
    active = base + lam
    sent = success_prob * reset
    h = np.zeros((db + 1, nx))
    h[db] = np.where(mask[db], active[db] / success_prob + reset[db], terminal)
    if db > 1:
        # Ages 2..D as affine maps h(d) = a(d) + c(d) h(min(d + span, D)); age D
        # is the fixed point (c = 0). Each step doubles the span.
        a = np.where(mask[2:], active[2:] + sent[2:], base[2:])
        c = np.where(mask[2:], 1.0 - success_prob, 1.0)
        a[-1], c[-1] = h[db], 0.0
        span, rows = 1, db - 1
        while span < rows:
            ahead = np.minimum(np.arange(rows) + span, rows - 1)
            a, c = a + c * a[ahead], c * c[ahead]
            span *= 2
        h[2:] = a
    h[1] = h1
    up = np.vstack((h[1:], h[db:]))  # up[d] = h[min(d + 1, db)]; row 0 is filler
    return h, g, base + up, active + (1.0 - success_prob) * up + sent


def policy_iteration(
    penalty: PenaltyTable,
    source: MarkovSource,
    success_prob: float,
    lam: float,
    mask_init: np.ndarray | None = None,
    powers: np.ndarray | None = None,
) -> BanditSolution:
    """Solve one class MDP by Howard policy iteration over renewal cycles.

    Each mask is evaluated exactly over its renewal cycles by
    `evaluate_policy`, which reads the source's P^delta stack `powers`
    (built here when not given). Improvement switches each state whose gain
    has the other sign by more than SWITCH_EPS, until the mask repeats. It
    starts from `mask_init`, by default the all-active mask, whose renewal
    kernel is irreducible whenever the source is.

    Phase 1 transmits at age D, so every observation renews. Its average
    cost g solves the MDP when g <= q_min, the least q(D, x) over the
    source's recurrent observations, since holding one of them at the age
    bound then never pays. As in improvement, holding must beat g by more
    than SWITCH_EPS: a g tied with q_min up to rounding stays. Otherwise, or
    when its renewal kernel has more than one stationary law (frozen or
    reducible chains), phase 2 fixes g = q_min: the recurrent observations
    with q(D, x) tied to q_min are held at age D with one shared terminal
    value, and iteration solves the stochastic shortest path to them,
    starting from the mask that sends every other observation at every age.
    No delivery draws a transient observation again: an agent that starts on
    one whose q(D, x) is below g may keep it at that lower cost, so the
    one-g optimality equation cannot hold at (D, x) and those cells are left
    out of the residual. A singular phase-2 evaluation, a mask that recurs,
    or a Bellman residual above RESIDUAL_TOL * max(1, lambda) raises
    ConvergenceError: the values grow with the price, and so does their
    rounding.
    """
    if lam < 0.0:
        raise ValidationError(f"transmission price must be nonnegative, got {lam}")
    if not 0.0 < success_prob <= 1.0:
        raise ValidationError(f"success_prob must lie in (0, 1], got {success_prob}")
    q = penalty.values
    db = penalty.delta_bound
    nx = source.state_count
    if q.shape[1] != nx:
        raise ValidationError(f"penalty table covers {q.shape[1]} states, source has {nx}")
    if powers is None:
        powers = power_stack(source.transition, db)
    recurrent = recurrent_states(source.transition)
    q_min = float(q[db, recurrent].min())
    hold = recurrent & (q[db] <= q_min + SWITCH_EPS)
    evaluations = 0

    def iterate(mask: np.ndarray, at_bound: np.ndarray):
        nonlocal evaluations
        seen = set()
        while True:
            mask[0], mask[db] = False, at_bound
            evaluated = evaluate_policy(mask, q, powers, success_prob, lam, q_min)
            if evaluated is None:
                return None
            evaluations += 1
            gain = evaluated[2] - evaluated[3]
            new = np.where(np.abs(gain) > SWITCH_EPS, gain > 0.0, mask)
            new[0], new[db] = False, at_bound
            if (new == mask).all():
                return evaluated
            seen.add(mask.tobytes())
            if new.tobytes() in seen:
                raise ConvergenceError(f"policy iteration on {source.name} revisits a mask at lambda={lam}")
            mask = new

    start = np.ones((db + 1, nx), dtype=bool) if mask_init is None else np.array(mask_init, dtype=bool)
    result = iterate(start, np.ones(nx, dtype=bool))
    why = "its renewal kernel has more than one stationary law" if result is None else (
        f"holding at age {db} beats its average cost {result[1]!r}" if result[1] > q_min + SWITCH_EPS else "")
    if why:
        result = iterate(np.tile(~hold, (db + 1, 1)), ~hold)
        if result is None:
            raise ConvergenceError(f"policy iteration on {source.name} at lambda={lam}: {why}, and the shortest "
                                   f"path to holding the least saturated penalty {q_min!r} is singular")
    h, g, q_passive, q_active = result
    error = np.abs(np.minimum(q_passive, q_active) - h)
    error[db, ~recurrent & (q[db] < g)] = 0.0
    residual = float(error[1:].max())
    if not residual <= RESIDUAL_TOL * max(1.0, lam):
        raise ConvergenceError(f"policy iteration on {source.name} at lambda={lam} leaves Bellman residual "
                               f"{residual:.3e}" + (f" ({why})" if why else ""), residual=residual)
    q_passive[0] = q_active[0] = np.nan
    gain = q_passive - q_active
    for arr in (h, q_passive, q_active, gain):
        arr.setflags(write=False)
    return BanditSolution(float(lam), h, q_active, q_passive, g, gain, db, evaluations, residual)


# perfbench's tracer times the class solve under its former name (the
# `bandit.rvi.*` metrics), so dual_ascent calls it through this alias.
relative_value_iteration = policy_iteration


@dataclass(frozen=True)
class LumpedClass:
    """One class MDP's inputs on the coarsest lumpable quotient of its source.

    `block[x]` is the quotient state of source state x. Each block is
    represented by its first member: the quotient's rows are that member's
    row-to-block masses (not renormalized) and its penalty column is the
    member's. The ordering keeps state 0 in block 0, so the reference state
    of policy iteration is the same on both chains. `powers` is the
    quotient's P^delta stack, built on first use and read by every probe of
    the dual search.
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
            MarkovSource(quotient, name=spec.source.name),
            PenaltyTable(values, penalty.delta_bound),
            block,
        )

    @cached_property
    def powers(self) -> np.ndarray:
        return power_stack(self.source.transition, self.penalty.delta_bound)

    def lift(self, sol: BanditSolution) -> BanditSolution:
        """A quotient solution read back on every source state."""
        tables = {}
        for key in ("h", "q_active", "q_passive", "gain"):
            tables[key] = getattr(sol, key)[:, self.block]
            tables[key].setflags(write=False)
        return replace(sol, **tables)


@dataclass
class DualTrace:
    """Iteration log of the dual search: (iteration, lambda, activation rate).

    `dual_ascent` returns only certified stops, so `converged` is True on
    every trace it returns. The field stays because it is part of the solve
    artifact: `summary.json` writes it, and the benchmark harness reads it
    and requires it True. The last row tells the stop apart: a rate within
    +/-5% of M is a `band` stop; otherwise lambda = 0 is a `slack` stop and
    any other price a `breakpoint`.
    """

    iterations: list[tuple[int, float, float]] = field(default_factory=list)
    lambda_star: float = 0.0
    converged: bool = False

    def csv_rows(self) -> list[str]:
        rows = ["iteration,lambda,activation_rate"]
        rows += [f"{j},{lam!r},{rate!r}" for j, lam, rate in self.iterations]
        return rows


def relaxed_rate(mask: np.ndarray, source: MarkovSource, success_prob: float,
                 powers: np.ndarray | None = None) -> float:
    """One agent's long-run activations per slot under an active mask.

    The mask is read as in `renewal_sums`, whose per-observation cycle sums
    give the rate by the renewal-reward theorem: the ratio of the activation
    and time sums weighted by the stationary law of the renewal kernel K. An
    observation held forever renews here as if sent at age D, so the law
    shows whether agents end up holding one; the rate is then 0. Otherwise K
    must have a unique law (ConvergenceError). `powers` is the source's
    P^delta stack, built here when not given.
    """
    if powers is None:
        powers = power_stack(source.transition, mask.shape[0] - 1)
    reach, length, acts, _, kernel, power = renewal_sums(mask, powers, success_prob)
    held = ~mask[-1] & (reach > 0.0)
    if held.all():
        return 0.0
    kernel += np.where(mask[-1], 0.0, reach)[:, None] * power
    pi = stationary_law(kernel, f"the renewal kernel of {source.name}")
    if pi[held].sum() > STATIONARY_TOL:
        return 0.0
    return float(pi @ acts / (pi @ length))


def dual_ascent(
    classes: list[AgentClassSpec],
    penalties: list[PenaltyTable],
    channels: int,
) -> tuple[float, DualTrace, list[BanditSolution]]:
    """Search the transmission price at which relaxed usage meets the budget.

    `penalties` are the classes' penalty tables from `build_tables`, all at
    one age bound. At each probed price every class MDP is solved on its
    `LumpedClass` quotient by `policy_iteration`, starting from the previous
    probe's greedy mask; the quotient's P^delta stack is built once and
    every probe's solve and rate read it. The relaxed activation rate is the
    sum over classes of member count times `relaxed_rate` of the greedy
    mask, and it is a supergradient, plus M, of the concave piecewise linear
    dual function L(lambda) = sum of member count times `avg_cost`, minus
    lambda M.

    The search probes lambda = 0 and stops there when the rate is at most
    M + 5%: in the band, or below it (`slack`, optimal by complementary
    slackness). Otherwise it expands with lambda <- lo + max(1, 2 lo) until
    the rate falls below M, then probes where the supporting lines of L at
    lo and hi meet (Kelley's cutting plane). It stops at the first price
    whose rate lies within +/-5% of M, or at a step that lies on lo's line
    within RESIDUAL_TOL per agent: that price maximizes L, a `breakpoint`
    where the rate jumps across the band. Every returned trace is certified
    (converged=True); a search that finds no bracket or no stop within
    DUAL_PROBE_CAP probes raises ConvergenceError. Solutions are lifted back
    to every source state.
    """
    if not classes:
        raise ValidationError("dual_ascent needs at least one agent class")
    if len(penalties) != len(classes):
        raise ValidationError(f"{len(penalties)} penalty tables for {len(classes)} classes")
    if len({pen.delta_bound for pen in penalties}) != 1:
        raise ValidationError("penalty tables must share one delta_bound")

    lumped = [LumpedClass.of(c, pen) for c, pen in zip(classes, penalties)]
    warm: list[np.ndarray | None] = [None] * len(classes)  # quotient-sized masks
    band = RATE_BAND * channels
    tol = RESIDUAL_TOL * sum(c.member_count for c in classes)
    trace = DualTrace()

    def probe(lam: float):
        """(rate, L(lambda), solutions) at one price."""
        sols, rate, value = [], 0.0, -lam * channels
        for i, (c, lc) in enumerate(zip(classes, lumped)):
            sol = relative_value_iteration(lc.penalty, lc.source, c.success_prob, lam, warm[i], lc.powers)
            warm[i] = sol.active_mask()
            rate += c.member_count * relaxed_rate(warm[i], lc.source, c.success_prob, lc.powers)
            value += c.member_count * sol.avg_cost
            sols.append(lc.lift(sol))
        trace.iterations.append((len(trace.iterations) + 1, lam, rate))
        return rate, value, sols

    def finish(lam: float, sols: list[BanditSolution]):
        trace.lambda_star, trace.converged = lam, True
        return lam, trace, sols

    rate, value, sols = probe(0.0)
    if rate <= channels + band:
        return finish(0.0, sols)
    lo, lo_rate, lo_value, hi = 0.0, rate, value, None
    for _ in range(DUAL_PROBE_CAP):
        if hi is None:
            lam = lo + max(1.0, 2.0 * lo)
        else:
            # where lo's line meets hi's: both slopes are the rates minus M
            lam = lo + (hi_value - lo_value - (hi_rate - channels) * (hi - lo)) / (lo_rate - hi_rate)
            lam = min(max(lam, lo), hi)
        rate, value, sols = probe(lam)
        if abs(rate - channels) <= band:
            return finish(lam, sols)
        if hi is not None and value >= lo_value + (lo_rate - channels) * (lam - lo) - tol:
            return finish(lam, sols)
        if rate > channels:
            lo, lo_rate, lo_value = lam, rate, value
        else:
            hi, hi_rate, hi_value = lam, rate, value
    stuck = f"no price up to lambda={lam!r}" if hi is None else f"no stop in the bracket [{lo!r}, {hi!r}]"
    raise ConvergenceError(f"dual price search: {stuck} after {len(trace.iterations)} probes "
                           f"(relaxed rate {rate!r} against M={channels})")


def dual_lower_bound(solutions: list[BanditSolution], classes: list[AgentClassSpec], channels: int) -> float:
    """Weak-duality lower bound on the total long-run penalty of any policy.

    Valid for solutions at any nonnegative price, tightest near the optimum:
    each class average cost already includes its price-weighted activations,
    so the bound is the member-weighted sum minus price times budget.
    """
    lam = solutions[0].lam
    total = sum(c.member_count * s.avg_cost for c, s in zip(classes, solutions))
    return total - lam * channels
