"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written as plain loops over definitions,
separate from the library's vectorized code paths, so the two sides of each
check cannot share a bug.
"""

from collections import deque

import numpy as np

from aoi_guard.bandit import GAIN_TIE_EPS
from aoi_guard.errors import ValidationError
from aoi_guard.markov import cumulative_rows, is_primitive, stack_padded, stationary_distribution


def optimal_estimate(dist, loss) -> tuple[int, float]:
    """Bayes-optimal label and its expected loss under the given label law.

    Returns (argmin over y_hat of sum_y dist[y] * L[y, y_hat], attained
    minimum); ties go to the lowest label index. The minimum is the
    generalized entropy of dist under this loss.
    """
    d = np.asarray(dist, dtype=float)
    if d.shape != (loss.label_count,):
        raise ValidationError(f"distribution over {d.shape} labels does not match {loss.label_count}x{loss.label_count} loss")
    if abs(d.sum() - 1.0) > 1e-9:
        raise ValidationError(f"distribution sums to {d.sum():.12g}, not 1 within 1e-9")
    expected = d @ loss.entries
    best = int(np.argmin(expected))
    return best, float(expected[best])


def conditional_entropy_given(x_given_z, y_given_xz, loss) -> tuple[float, float]:
    """Both sides of the conditioning inequality at a fixed event Z = z.

    x_given_z is the law of the side information X given z; y_given_xz[x] is
    the label law given (X = x, z). Returns (entropy of Y given z alone,
    expected entropy of Y given both X and z). The first is always >= the
    second: extra conditioning never raises the minimum achievable risk.
    """
    w = np.asarray(x_given_z, dtype=float)
    cond = np.asarray(y_given_xz, dtype=float)
    if cond.ndim != 2 or cond.shape != (w.shape[0], loss.label_count):
        raise ValidationError(f"y_given_xz shape {cond.shape} does not match |X|={w.shape[0]}, |Y|={loss.label_count}")
    if abs(w.sum() - 1.0) > 1e-9:
        raise ValidationError(f"x_given_z sums to {w.sum():.12g}, not 1 within 1e-9")
    row_err = np.abs(cond.sum(axis=1) - 1.0)
    if np.any(row_err > 1e-9):
        raise ValidationError(f"row {int(np.argmax(row_err))} of y_given_xz is not a distribution")
    marginal = w @ cond
    _, coarse = optimal_estimate(marginal, loss)
    fine = float(np.dot(w, np.min(cond @ loss.entries, axis=1)))
    return coarse, fine


def enumerate_tables(transition, safety_assignment, loss_entries, delta_bound):
    """Penalty/estimator tables by exhaustive enumeration of label choices.

    Uses np.linalg.matrix_power per age and an explicit loop over candidate
    labels; returns (q, f) arrays of shape (delta_bound + 1, |X|).
    """
    p = np.asarray(transition, dtype=float)
    labels = np.asarray(safety_assignment, dtype=int)
    loss = np.asarray(loss_entries, dtype=float)
    nx = p.shape[0]
    ny = loss.shape[0]
    q = np.zeros((delta_bound + 1, nx))
    f = np.zeros((delta_bound + 1, nx), dtype=int)
    for delta in range(delta_bound + 1):
        pd = np.linalg.matrix_power(p, delta)
        for x in range(nx):
            label_law = np.zeros(ny)
            for x2 in range(nx):
                label_law[labels[x2]] += pd[x, x2]
            best_label, best_risk = 0, None
            for cand in range(ny):
                risk = 0.0
                for y in range(ny):
                    risk += label_law[y] * loss[y, cand]
                if best_risk is None or risk < best_risk:
                    best_label, best_risk = cand, risk
            q[delta, x] = best_risk
            f[delta, x] = best_label
    return q, f


def rvi_fixed_sweeps(q, transition, success_prob, lam, delta_bound, sweeps=200, ref=(1, 0), damping=1.0, tol=None):
    """Relative value iteration with a fixed sweep count, straight-line loops.

    State (delta, x), delta in 1..delta_bound with the age saturating at the
    bound. Passive keeps the observation and ages it; active pays lam, and on
    success (prob success_prob) resets to age 1 with a state drawn from the
    delta-step law. With damping < 1 each sweep moves only that share of the
    way to the Bellman update, the aperiodicity transform (Puterman 1994,
    sec. 8.5.4) that lets periodic policies converge; the reference offset
    is then damping * g.
    With tol set, it stops early once successive values differ by less
    than tol in span. Returns (h, q_passive, q_active, avg_cost).
    """
    p = np.asarray(transition, dtype=float)
    nx = p.shape[0]
    powers = [np.linalg.matrix_power(p, d) for d in range(delta_bound + 1)]
    h = np.zeros((delta_bound + 1, nx))
    g = 0.0
    for _ in range(sweeps):
        hn = np.zeros_like(h)
        for delta in range(1, delta_bound + 1):
            up = min(delta + 1, delta_bound)
            for x in range(nx):
                expect_reset = 0.0
                for x2 in range(nx):
                    expect_reset += powers[delta][x, x2] * h[1, x2]
                passive = q[delta, x] + h[up, x]
                active = q[delta, x] + lam + (1.0 - success_prob) * h[up, x] + success_prob * expect_reset
                hn[delta, x] = damping * min(passive, active) + (1.0 - damping) * h[delta, x]
        g = hn[ref] / damping
        diff = hn[1:] - hn[ref] - h[1:]
        h = hn - hn[ref]
        if tol is not None and diff.max() - diff.min() < tol:
            break
    q_passive = np.zeros_like(h)
    q_active = np.zeros_like(h)
    for delta in range(1, delta_bound + 1):
        up = min(delta + 1, delta_bound)
        for x in range(nx):
            expect_reset = 0.0
            for x2 in range(nx):
                expect_reset += powers[delta][x, x2] * h[1, x2]
            q_passive[delta, x] = q[delta, x] - g + h[up, x]
            q_active[delta, x] = q[delta, x] - g + lam + (1.0 - success_prob) * h[up, x] + success_prob * expect_reset
    return h, q_passive, q_active, g


def renewal_sums_loop(mask, source, success_prob, q=None):
    """`bandit.renewal_sums` as one step per age, with P^delta by repeated products.

    The library's sums before the P^delta stack, kept as the differential
    reference: returns (reach, length, acts, cost, kernel, P^D).
    """
    db = mask.shape[0] - 1
    p = source.transition
    nx = source.state_count
    reach = np.ones(nx)
    length, acts, cost = np.zeros(nx), np.zeros(nx), np.zeros(nx)
    kernel = np.zeros((nx, nx))
    power = p  # P^delta
    sends = mask.astype(float)
    for delta in range(1, db):
        sent = reach * sends[delta]
        length += reach
        acts += sent
        if q is not None:
            cost += reach * q[delta]
        delivered = success_prob * sent
        kernel += delivered[:, None] * power
        reach = reach * (1.0 - success_prob * sends[delta])  # not reach - delivered: no cancellation at p ~ 1
        power = power @ p
    stay = np.where(mask[db], reach / success_prob, 0.0)
    length += stay
    acts += stay
    if q is not None:
        cost += stay * q[db]
    kernel += np.where(mask[db], reach, 0.0)[:, None] * power
    return reach, length, acts, cost, kernel, power


def evaluate_policy_loop(mask, q, source, success_prob, lam, q_min):
    """`bandit.evaluate_policy` with `renewal_sums_loop` and one backward step per age.

    Returns (h, g, q_passive, q_active), or None if the mask's system is
    singular.
    """
    db = mask.shape[0] - 1
    nx = source.state_count
    trans = source.transition
    fail = 1.0 - success_prob
    reach, length, acts, cost, kernel, _ = renewal_sums_loop(mask, source, success_prob, q)
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
    reset = np.empty((db + 1, nx))  # reset[d] = P^d h1
    reset[0] = solution
    reset[0, 0] = 0.0
    for d in range(1, db + 1):
        reset[d] = trans @ reset[d - 1]
    base = q - g
    active = base + lam
    sent = success_prob * reset
    h = np.zeros((db + 1, nx))
    h[db] = np.where(mask[db], active[db] / success_prob + reset[db], terminal)
    for d in range(db - 1, 1, -1):
        h[d] = np.where(mask[d], active[d] + fail * h[d + 1] + sent[d], base[d] + h[d + 1])
    h[1] = reset[0]
    up = np.vstack((h[1:], h[db:]))  # up[d] = h[min(d + 1, db)]; row 0 is filler
    return h, g, base + up, active + fail * up + sent


def relaxed_rate_oracle(mask, transition, success_prob):
    """One agent's activations per slot under a mask, from its explicit chain.

    States (delta, x) with delta in 1..D, the age saturating at D. An active
    state delivers with probability success_prob and moves to (1, x2) with
    x2 drawn from P^delta(x, .); otherwise the age grows. The stationary law
    is one dense solve of pi Q = pi with the last equation replaced by
    sum(pi) = 1; the rate is its mass on active states.
    """
    p = np.asarray(transition, dtype=float)
    nx = p.shape[0]
    db = len(mask) - 1
    powers = [np.linalg.matrix_power(p, d) for d in range(db + 1)]

    def index(delta, x):
        return (delta - 1) * nx + x

    size = db * nx
    q = np.zeros((size, size))
    for delta in range(1, db + 1):
        up = min(delta + 1, db)
        for x in range(nx):
            send = success_prob if mask[delta][x] else 0.0
            q[index(delta, x), index(up, x)] += 1.0 - send
            for x2 in range(nx):
                q[index(delta, x), index(1, x2)] += send * powers[delta][x, x2]
    a = q.T - np.eye(size)
    a[-1] = 1.0
    b = np.zeros(size)
    b[-1] = 1.0
    pi = np.linalg.solve(a, b)
    rate = 0.0
    for delta in range(1, db + 1):
        for x in range(nx):
            if mask[delta][x]:
                rate += pi[index(delta, x)]
    return rate


def row_chain_matrix(rows, up, down):
    """Bounded walk on rows 0..rows-1: up to r-1, down to r+1, an off-end move stays put.

    Written row by row, apart from the grid loop of `build_grid_walk`, whose
    one-column case must give this matrix byte for byte: each row's stay
    mass is 1 - up - down, clamped at 0 against rounding, plus the move that
    would leave an end.
    """
    stay = max(0.0, 1.0 - up - down)
    p = np.zeros((rows, rows))
    for r in range(rows):
        if r > 0:
            p[r, r - 1] = up
        if r < rows - 1:
            p[r, r + 1] = down
        p[r, r] = stay + (up if r == 0 else 0.0) + (down if r == rows - 1 else 0.0)
    return p


CHAIN_A = [[0.9, 0.1], [0.2, 0.8]]


class ReferenceWorld:
    """One seed's whole world, drawn up front: the simulator's world before lanes.

    The substreams are spawned from the seed in the simulator's order: one
    for initial states, one for the policy, then a motion and a channel
    stream per agent. `x_path` and `channel_ok` are (slots, N); every state
    after slot 0 is one inverse-CDF step with a dense count over the whole
    CDF row, and `y_path` holds the true labels.
    """

    def __init__(self, config, seed):
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
            x = (motion_u[t][:, None] > cum[cls_idx, x]).sum(axis=1)
            self.x_path[t] = x
        del motion_u

        p_agent = np.array([classes[i].success_prob for i in cls_idx])
        self.channel_ok = np.empty((t_slots, n), dtype=bool)
        for a in range(n):
            u = np.random.default_rng(agent_seqs[2 * a + 1]).random(t_slots)
            self.channel_ok[:, a] = u < p_agent[a]

        safety = stack_padded([c.safety.assignment for c in classes], 0)
        self.y_path = safety[cls_idx, self.x_path]


def _top_positive_ids(gains, budget):
    order = np.argsort(-gains, kind="stable")[:budget]
    return np.sort(order[gains[order] > GAIN_TIE_EPS])


def _top_ids(values, budget):
    return np.sort(np.argsort(-values, kind="stable")[:budget])


def _uniform_subset(count, budget, rng):
    budget = min(budget, count)
    idx = np.arange(count)
    u = rng.random(budget)
    for i in range(budget):
        j = i + int(u[i] * (count - i))
        idx[i], idx[j] = idx[j], idx[i]
    return np.sort(idx[:budget])


def _reference_run(config, world, policy, system, seed, capacity):
    """One policy's slot loop on one world, one slot and one seed at a time."""
    n = world.cls_of_agent.size
    t_slots, warmup, budget = config.slots, config.warmup, config.channels
    db = system.estimators[0].shape[0] - 1  # the simulator reads D from the tables too
    cls_idx = world.cls_of_agent

    est_stack = stack_padded(system.estimators, 0)
    loss_stack = stack_padded([c.loss.entries for c in config.classes], 0.0)
    if policy == "mgf":
        gain_stack = stack_padded([np.nan_to_num(s.gain, nan=0.0) for s in system.solutions], 0.0)

    rng_policy = np.random.default_rng(world.policy_seq)

    delta = np.ones(n, dtype=np.int64)
    x_obs = world.x_path[0].astype(int).copy()
    pend_pull = np.zeros(n, dtype=bool)
    pend_ok = np.zeros(n, dtype=bool)
    pend_gen = np.zeros(n, dtype=np.int64)
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
            sel = _top_positive_ids(gain_stack[cls_idx, dc, x_obs], budget)
        elif policy == "maf":
            sel = _top_ids(delta, budget)
        elif policy == "randomized":
            sel = _uniform_subset(n, budget, rng_policy)
        else:  # random_queue
            backlog = np.minimum(backlog + 1, capacity)
            sel = _uniform_subset(n, budget, rng_policy)
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
    return (policy, seed, n, budget, 1, t_slots, total_loss, total_loss / (accounted * n),
            activations / t_slots, float(agent_mean_aoi.mean()),
            tuple(float(v) for v in agent_mean_aoi), deliveries)


def reference_records(config, policies, system, seed, capacity=1000):
    """Every policy's record on one seed's `ReferenceWorld`, as SimRecord field tuples.

    The simulator before lanes and streaming, kept as the differential
    reference: one world array per seed and one Python slot loop per
    (policy, seed), with the per-slot selection kernels on 1-D arrays.
    `capacity` is random_queue's queue length.
    """
    world = ReferenceWorld(config, seed)
    return [_reference_run(config, world, p, system, seed, capacity) for p in policies]


def random_queue_oracle(world, channels, slots, warmup, capacity):
    """The random_queue policy with one bounded FIFO of stamps per agent.

    Straight-line loops over a `ReferenceWorld` (`channel_ok`,
    `policy_seq`): each slot every agent's age grows by one or, on delivery
    of a packet generated at g, becomes t - g; every agent then queues a
    packet stamped t (the deque drops the oldest beyond `capacity`), and the
    agents picked by a partial Fisher-Yates shuffle on the policy stream send
    their oldest packet. Returns deliveries, each agent's mean age over slots
    warmup..slots-1, and the longest queue seen.
    """
    n = world.x_path.shape[1]
    rng = np.random.default_rng(world.policy_seq)
    queues = [deque(maxlen=capacity) for _ in range(n)]
    age = [1] * n
    aoi_sum = [0.0] * n
    deliveries = 0
    peak_queue = 0
    sent = []  # (agent, generation) pulled in the previous slot
    for t in range(slots):
        if t > 0:
            for a in range(n):
                age[a] += 1
            for a, gen in sent:
                if world.channel_ok[t - 1, a]:
                    age[a] = t - gen
                    deliveries += 1
        if t >= warmup:
            for a in range(n):
                aoi_sum[a] += age[a]
        for a in range(n):
            queues[a].append(t)
            peak_queue = max(peak_queue, len(queues[a]))
        k = min(channels, n)
        order = list(range(n))
        u = rng.random(k)
        for i in range(k):
            j = i + int(u[i] * (n - i))
            order[i], order[j] = order[j], order[i]
        sent = [(a, queues[a].popleft()) for a in sorted(order[:k])]
    accounted = slots - warmup
    return {
        "deliveries": deliveries,
        "agent_mean_aoi": tuple(s / accounted for s in aoi_sum),
        "peak_queue": peak_queue,
    }


def relaxed_lp_value(classes, penalties, channels):
    """Optimal total penalty of the relaxed problem, as an occupation-measure LP.

    The constrained average-cost MDP of Altman (Constrained Markov Decision
    Processes, 1999), one block per class: a variable y(delta, x, a) >= 0 for
    every age delta in 1..D, observation x and action a (passive, active).
    Each block is a stationary law: its mass sums to 1, and each state's
    outflow equals its inflow, where passive ages the observation (saturating
    at D) and active does the same on a failed delivery and otherwise restarts
    at (1, x2) with x2 drawn from P^delta(x, .). One budget row keeps the
    member-weighted active mass at most M. The objective is the
    member-weighted penalty q(delta, x). Solved by HiGHS with feasibility
    tolerances of 1e-10; scipy is imported here only, so the package never
    needs it.
    """
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix

    rows, cols, vals = [], [], []
    cost, budget, eq_rhs = [], [], []
    row_base = col_base = 0
    for cls, pen in zip(classes, penalties):
        p = np.asarray(cls.source.transition, dtype=float)
        nx = p.shape[0]
        db = pen.values.shape[0] - 1
        powers = [np.linalg.matrix_power(p, d) for d in range(db + 1)]

        def state(delta, x):
            return row_base + (delta - 1) * nx + x

        for delta in range(1, db + 1):
            up = min(delta + 1, db)
            for x in range(nx):
                for active in (0, 1):
                    col = col_base + 2 * ((delta - 1) * nx + x) + active
                    cost.append(cls.member_count * float(pen.values[delta, x]))
                    budget.append(float(cls.member_count) if active else 0.0)
                    rows.append(state(delta, x))
                    cols.append(col)
                    vals.append(1.0)
                    stay = 1.0 - cls.success_prob if active else 1.0
                    rows.append(state(up, x))
                    cols.append(col)
                    vals.append(-stay)
                    if active:
                        for x2 in range(nx):
                            rows.append(state(1, x2))
                            cols.append(col)
                            vals.append(-cls.success_prob * powers[delta][x, x2])
                    rows.append(row_base + db * nx)  # the block's total mass
                    cols.append(col)
                    vals.append(1.0)
        eq_rhs += [0.0] * (db * nx) + [1.0]
        row_base += db * nx + 1
        col_base += 2 * db * nx
    a_eq = coo_matrix((vals, (rows, cols)), shape=(row_base, col_base)).tocsr()
    result = linprog(
        cost, A_ub=[budget], b_ub=[channels], A_eq=a_eq, b_eq=eq_rhs, bounds=(0, None), method="highs",
        options={"primal_feasibility_tolerance": 1e-10, "dual_feasibility_tolerance": 1e-10},
    )
    if result.status != 0:
        raise RuntimeError(f"relaxed LP failed: {result.message}")
    return float(result.fun)
