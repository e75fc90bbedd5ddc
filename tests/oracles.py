"""Independent reference implementations used to freeze expected values.

Everything here is deliberately written as plain loops over definitions,
separate from the library's vectorized code paths, so the two sides of each
check cannot share a bug.
"""

from collections import deque

import numpy as np


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


CHAIN_A = [[0.9, 0.1], [0.2, 0.8]]


def random_queue_oracle(world, channels, slots, warmup, capacity):
    """The random_queue policy with one bounded FIFO of stamps per agent.

    Straight-line loops over a simulator world (`x_path`, `channel_ok`,
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
