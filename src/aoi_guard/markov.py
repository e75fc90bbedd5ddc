"""Finite-state Markov source models and safety-label maps.

Provides validated row-stochastic transition matrices, an exact primitivity
test, stationary laws by one linear solve, the coarsest lumpable partition
that refines a labelling, builders for the bounded random-walk ("row chain")
sources used in the grid-world experiments, and the per-class stacking and
inverse-CDF stepping of the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

DEFAULT_DELTA_BOUND = 250

ROW_SUM_TOL = 1e-12


class MarkovSource:
    """A time-homogeneous finite-state Markov chain.

    The transition matrix is validated on construction (rows must sum to 1
    within 1e-12, entries in [0, 1]) and never renormalized: a bad matrix is
    a config bug, not something to silently repair. The matrix is read-only,
    so the instance is immutable after construction.
    """

    def __init__(self, transition, delta_bound: int = DEFAULT_DELTA_BOUND, name: str = ""):
        p = np.array(transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValidationError(f"transition matrix must be square and nonempty, got shape {p.shape}")
        if np.any(p < 0.0) or np.any(p > 1.0):
            raise ValidationError("transition entries must lie in [0, 1]")
        row_err = np.abs(p.sum(axis=1) - 1.0)
        if np.any(row_err > ROW_SUM_TOL):
            bad = int(np.argmax(row_err))
            raise ValidationError(
                f"transition row {bad} sums to {p[bad].sum():.17g}, not 1 within {ROW_SUM_TOL:g}"
            )
        if delta_bound < 1:
            raise ValidationError(f"delta_bound must be >= 1, got {delta_bound}")
        p.setflags(write=False)
        self.transition = p
        self.state_count = p.shape[0]
        self.delta_bound = int(delta_bound)
        self.name = name or f"source[{self.state_count}]"

    def __repr__(self) -> str:
        return f"MarkovSource({self.name}, states={self.state_count}, delta_bound={self.delta_bound})"


@dataclass(frozen=True)
class SafetyMap:
    """Deterministic map from source states to safety-label indices."""

    label_count: int
    assignment: np.ndarray

    def __post_init__(self):
        labels = np.asarray(self.assignment, dtype=int)
        if self.label_count < 1:
            raise ValidationError(f"label_count must be >= 1, got {self.label_count}")
        if labels.ndim != 1:
            raise ValidationError("safety assignment must be a flat array of label indices")
        if np.any(labels < 0) or np.any(labels >= self.label_count):
            raise ValidationError(
                f"safety assignment entries must lie in [0, {self.label_count}), got {labels.min()}..{labels.max()}"
            )
        labels.setflags(write=False)
        object.__setattr__(self, "assignment", labels)

    @property
    def state_count(self) -> int:
        return self.assignment.shape[0]

    def indicator(self) -> np.ndarray:
        """|X| x |Y| one-hot matrix E with E[x, g(x)] = 1."""
        e = np.zeros((self.state_count, self.label_count))
        e[np.arange(self.state_count), self.assignment] = 1.0
        return e


def identity_safety_map(state_count: int) -> SafetyMap:
    """Every state is its own label (|Y| = |X|)."""
    return SafetyMap(state_count, np.arange(state_count))


def banded_safety_map(state_count: int, band_edges) -> SafetyMap:
    """Partition states 0..|X|-1 into consecutive bands.

    band_edges lists the last 1-indexed row of each band except the final
    one, e.g. edges (6, 13) over 20 rows marks rows 1-6 / 7-13 / 14-20.
    """
    edges = list(band_edges)
    if edges != sorted(edges) or (edges and not 0 < edges[0]) or (edges and edges[-1] >= state_count):
        raise ValidationError(f"band edges {edges} must be increasing and inside 1..{state_count - 1}")
    labels = np.zeros(state_count, dtype=int)
    for i, edge in enumerate(edges):
        labels[edge:] = i + 1
    return SafetyMap(len(edges) + 1, labels)


def _bfs_levels(adjacency: np.ndarray) -> np.ndarray:
    """Hop distance from state 0 along a boolean adjacency matrix; -1 if unreachable."""
    level = np.full(adjacency.shape[0], -1)
    level[0] = 0
    frontier = level == 0
    depth = 0
    while frontier.any():
        depth += 1
        frontier = adjacency[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    return level


def is_primitive(source: MarkovSource) -> bool:
    """Exact test for irreducibility + aperiodicity on the support graph.

    The chain is irreducible iff state 0 reaches every state and every state
    reaches state 0 (breadth-first search on the graph and its transpose).
    The period of an irreducible chain is the gcd of level[u] + 1 - level[v]
    over its edges u -> v, with BFS levels from state 0 (Denardo 1977);
    primitive means period 1.
    """
    support = source.transition > 0.0
    level = _bfs_levels(support)
    if (level < 0).any() or (_bfs_levels(support.T) < 0).any():
        return False
    u, v = np.nonzero(support)
    return bool(np.gcd.reduce(level[u] + 1 - level[v]) == 1)


def recurrent_states(transition) -> np.ndarray:
    """Mask of the states in closed classes: each reaches back every state it reaches."""
    reach = (np.asarray(transition) > 0.0) | np.eye(len(transition), dtype=bool)
    while True:  # transitive closure of the support graph, by repeated squaring
        closure = (reach.astype(float) @ reach) > 0.0
        if (closure == reach).all():
            return (reach <= reach.T).all(axis=1)
        reach = closure


STATIONARY_TOL = 1e-10


def stationary_law(matrix, name: str) -> np.ndarray:
    """The unique stationary law of a row-stochastic matrix, by one linear solve.

    Solves pi (P - I) = 0 with sum(pi) = 1 as one least-squares system in
    |X| unknowns. The law is unique exactly when that system has full rank;
    a rank deficit raises ConvergenceError, as does a solution whose
    fixed-point residual, total mass or sign is off by more than
    STATIONARY_TOL. Entries within that tolerance below zero become zero.
    """
    p = np.asarray(matrix, dtype=float)
    n = p.shape[0]
    system = np.vstack((p.T - np.eye(n), np.ones(n)))
    rhs = np.zeros(n + 1)
    rhs[-1] = 1.0
    pi, _, rank, _ = np.linalg.lstsq(system, rhs, rcond=None)
    if rank < n:
        raise ConvergenceError(f"{name} has more than one stationary law")
    residual = max(float(np.abs(pi @ p - pi).max()), abs(float(pi.sum()) - 1.0), -float(pi.min()))
    if not residual <= STATIONARY_TOL:
        raise ConvergenceError(f"stationary law of {name} fails its residual check", residual=residual)
    return np.maximum(pi, 0.0)


def stationary_distribution(source: MarkovSource) -> np.ndarray:
    """Stationary law of a primitive (irreducible, aperiodic) source.

    Anything else raises instead of returning one of many fixed points.
    """
    if not is_primitive(source):
        raise ConvergenceError(f"{source.name} is not irreducible and aperiodic; stationary law not unique")
    return stationary_law(source.transition, source.name)


LUMP_TOL = 1e-12


def _first_member_order(labels: np.ndarray) -> np.ndarray:
    """Relabel classes 0, 1, ... in order of their lowest state."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse]


def lumpable_partition(transition, labels) -> np.ndarray:
    """Coarsest partition refining `labels` on which the chain is lumpable.

    Returns one block index per state. Starting from the label classes, each
    pass splits every block by its members' row-to-block masses (P summed
    over the columns of each current block), until a pass splits nothing.
    A state stays with the first remaining member of its block only if their
    masses agree within LUMP_TOL in every column (ordinary lumpability,
    Kemeny-Snell 1960; refinement as in Derisavi, Hermanns & Sanders 2003).
    Blocks are numbered in order of their first member, so state 0 is always
    in block 0, and every block a singleton gives the identity.
    """
    p = np.asarray(transition, dtype=float)
    block = _first_member_order(np.asarray(labels))
    count = int(block.max()) + 1
    while True:
        mass = p @ np.eye(count)[block]  # mass[x, b] = P(x -> block b)
        refined = np.empty_like(block)
        parts = 0
        for b in range(count):
            members = np.flatnonzero(block == b)
            while members.size:
                close = np.abs(mass[members] - mass[members[0]]).max(axis=1) <= LUMP_TOL
                refined[members[close]] = parts
                parts += 1
                members = members[~close]
        if parts == count:
            return block
        block, count = _first_member_order(refined), parts


def build_row_chain(
    rows: int, up: float, down: float, delta_bound: int = DEFAULT_DELTA_BOUND, name: str = ""
) -> MarkovSource:
    """Bounded random walk on row indices with reflecting-stay boundaries.

    Interior row r moves to r-1 with probability `up`, to r+1 with `down`,
    and stays otherwise. A move off either end folds into staying put, which
    is how the grid world treats agents at a boundary. Moving sideways in the
    original 2D grid never changes the row, so a 2D walk with probabilities
    (up, down, left, right) flattens to exactly this chain.
    """
    if rows < 2:
        raise ValidationError(f"row chain needs at least 2 rows, got {rows}")
    if not (0.0 <= up <= 1.0 and 0.0 <= down <= 1.0):
        raise ValidationError(f"up={up} and down={down} must lie in [0, 1]")
    if up + down > 1.0 + 1e-15:
        raise ValidationError(f"up + down = {up + down} exceeds 1")
    stay = 1.0 - up - down
    p = np.zeros((rows, rows))
    for r in range(rows):
        if r > 0:
            p[r, r - 1] = up
        if r < rows - 1:
            p[r, r + 1] = down
        p[r, r] = stay + (up if r == 0 else 0.0) + (down if r == rows - 1 else 0.0)
    return MarkovSource(p, delta_bound=delta_bound, name=name or f"row_chain({rows},{up},{down})")


def cumulative_rows(transition: np.ndarray) -> np.ndarray:
    """Row-wise CDF table used for vectorized inverse-CDF sampling."""
    cum = np.cumsum(transition, axis=1)
    cum[:, -1] = 1.0
    return cum


def stack_padded(arrays, fill) -> np.ndarray:
    """Stack per-class arrays of equal rank into one, padding with `fill`.

    Every axis is padded to the largest extent among the inputs, so classes
    whose chains differ in size share one table; the padded cells are never
    indexed by an agent of a narrower class. The inputs' dtype is kept.
    """
    shape = np.max([a.shape for a in arrays], axis=0)
    out = np.full((len(arrays), *shape), fill, dtype=np.result_type(*arrays))
    for i, a in enumerate(arrays):
        out[(i, *(slice(0, s) for s in a.shape))] = a
    return out


def step_states(cum_stack: np.ndarray, cls_idx: np.ndarray, x: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Inverse-CDF step of every agent's true state with one uniform each.

    `cum_stack` is `stack_padded` over the classes' `cumulative_rows` with
    fill 1.0, so padded columns never count as below a uniform draw.
    """
    rows = cum_stack[cls_idx, x]
    return (u[:, None] > rows).sum(axis=1)
