"""Finite-state Markov source models and safety-label maps.

Provides validated row-stochastic transition matrices, an exact primitivity
test, stationary laws by one linear solve, the coarsest lumpable partition
that refines a labelling, and the per-class stacking and inverse-CDF
successor tables of the simulator.

The grid-world sources are built here, by one builder: `build_grid_walk` is
the bounded four-direction walk on a rows x cols grid, and a "row chain" is
its one-column case. `banded_safety_map` labels the same grid's cells by
bands of rows, so a source and its labels share one cell numbering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError

ROW_SUM_TOL = 1e-12


class MarkovSource:
    """A time-homogeneous finite-state Markov chain.

    The transition matrix is validated on construction (rows must sum to 1
    within 1e-12, entries in [0, 1]) and never renormalized: a bad matrix is
    a config bug, not something to silently repair. The matrix is read-only,
    so the instance is immutable after construction.
    """

    def __init__(self, transition, name: str = ""):
        p = np.array(transition, dtype=float)
        if p.ndim != 2 or p.shape[0] != p.shape[1] or p.shape[0] < 1:
            raise ValidationError(f"transition matrix must be square and nonempty, got shape {p.shape}")
        if not np.all((p >= 0.0) & (p <= 1.0)):  # written so that NaN fails too
            raise ValidationError("transition entries must lie in [0, 1]")
        row_err = np.abs(p.sum(axis=1) - 1.0)
        if np.any(row_err > ROW_SUM_TOL):
            bad = int(np.argmax(row_err))
            raise ValidationError(
                f"transition row {bad} sums to {p[bad].sum():.17g}, not 1 within {ROW_SUM_TOL:g}"
            )
        p.setflags(write=False)
        self.transition = p
        self.state_count = p.shape[0]
        self.name = name or f"source[{self.state_count}]"

    def __repr__(self) -> str:
        return f"MarkovSource({self.name}, states={self.state_count})"


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


def banded_safety_map(rows: int, band_edges, cols: int = 1) -> SafetyMap:
    """Label the cells of a rows x cols grid by consecutive bands of rows.

    band_edges lists the last 1-indexed row of each band except the final
    one, e.g. edges (6, 13) over 20 rows marks rows 1-6 / 7-13 / 14-20. The
    edges must rise strictly, so no band is empty. Cells are numbered row by
    row, as in `build_grid_walk`; a chain of states is the one-column grid.
    """
    edges = list(band_edges)
    bounds = [0, *edges, rows]
    if any(lo >= hi for lo, hi in zip(bounds, bounds[1:])):
        raise ValidationError(f"band edges {edges} must be increasing and inside 1..{rows - 1}")
    row_labels = np.searchsorted(edges, np.arange(rows), side="right")
    return SafetyMap(len(edges) + 1, np.repeat(row_labels, cols))


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


def build_grid_walk(
    rows: int, cols: int, up: float, down: float, left: float = 0.0, right: float = 0.0, name: str = ""
) -> MarkovSource:
    """Bounded four-direction random walk on a rows x cols grid.

    Cell (r, c) is state r * cols + c. Each slot the walker moves up (row
    r - 1), down, left (column c - 1) or right with the given probabilities
    and stays otherwise; a move off the grid folds into staying put, which is
    how the grid world treats agents at a boundary. A row chain is the
    one-column grid, build_grid_walk(rows, 1, up, down): sideways moves never
    change the row, so a 2D walk observed by rows flattens to exactly it.
    The grid needs at least 2 cells, and the moves must be nonnegative and
    sum to at most 1 (within ROW_SUM_TOL): the stay mass is clamped at 0,
    and `MarkovSource`'s row-sum tolerance decides.
    """
    if rows < 1 or cols < 1 or rows * cols < 2:
        raise ValidationError(f"a grid walk needs at least 2 cells, got {rows}x{cols}")
    probs = (up, down, left, right)
    if not (all(prob >= 0.0 for prob in probs) and sum(probs) <= 1.0 + ROW_SUM_TOL):
        raise ValidationError(
            f"moves up={up}, down={down}, left={left}, right={right} must be nonnegative and sum to at most 1"
        )
    n = rows * cols
    stay = max(0.0, 1.0 - up - down - left - right)
    p = np.zeros((n, n))
    for r in range(rows):
        for c in range(cols):
            s = r * cols + c
            p[s, s] += stay
            for prob, (dr, dc) in zip(probs, ((-1, 0), (1, 0), (0, -1), (0, 1))):
                r2, c2 = r + dr, c + dc
                if 0 <= r2 < rows and 0 <= c2 < cols:
                    p[s, r2 * cols + c2] += prob
                else:
                    p[s, s] += prob
    return MarkovSource(p, name=name)


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


SUCCESSOR_CELLS = 1 << 22  # 32 MiB of table; a dense chain of some 160 states passes it


def successor_table(cums, names, width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[np.ndarray]]:
    """Every class's inverse-CDF step as a table indexed by the uniform's rank.

    Class c's state x has the key c * width + x and the CDF row cums[c][x]
    (`cumulative_rows`). The class's levels are its distinct CDF values
    below 1.0, sorted; m_c counts them. The successor of x for a uniform u,
    the number of x's CDF values below u, depends only on the number r of
    levels below u: those values are the ones <= level r - 1. Class c's
    rows own cells x * (m_c + 1) + r, r = 0 .. m_c, from the class's first
    cell on, and each cell holds its successor's first cell, so a step adds
    u's rank to the state's first cell and takes the table there.

    Returns the table, every key's first cell (0 for keys of no state),
    every cell's key, and each class's levels. A table past SUCCESSOR_CELLS
    cells raises ValidationError naming the class and its m_c.
    """
    table, cell_key, levels = [], [], []
    first = np.zeros(len(cums) * width, dtype=np.intp)
    start = 0
    for c, (cum, name) in enumerate(zip(cums, names)):
        level = np.sort(cum[cum < 1.0])  # np.unique would import numpy.ma, 1.1 MB of modules
        level = level[np.diff(level, prepend=-1.0) > 0.0]
        states, row = cum.shape[0], level.size + 1
        if start + states * row > SUCCESSOR_CELLS:
            raise ValidationError(
                f"class {name or c}: m_c = {level.size} CDF levels on {states} states take the successor "
                f"table past its {SUCCESSOR_CELLS} cells"
            )
        # successor[x, r] = #{CDF values of row x <= level r - 1}: a histogram of
        # each value's level position + 1, summed; values >= 1.0 fall off the end
        at = np.searchsorted(level, cum) + 1 + np.arange(states)[:, None] * (row + 1)
        successor = np.bincount(at.ravel(), minlength=states * (row + 1)).reshape(states, -1).cumsum(axis=1)
        table.append(start + successor[:, :-1].ravel() * row)
        first[c * width : c * width + states] = start + np.arange(states) * row
        cell_key.append(np.repeat(np.arange(c * width, c * width + states, dtype=np.int32), row))
        levels.append(level)
        start += states * row
    return np.concatenate(table), first, np.concatenate(cell_key), levels
