"""Finite-state Markov source models and safety-label maps.

Provides validated row-stochastic transition matrices, stationary
distributions via power iteration, builders for the bounded random-walk
("row chain") sources used in the grid-world experiments, and the per-class
stacking and inverse-CDF stepping that the rollout and the simulator share.
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


def is_primitive(source: MarkovSource) -> bool:
    """Power-positivity heuristic for irreducibility + aperiodicity.

    A chain is primitive iff some single power of P is entrywise positive;
    Wielandt's bound caps the exponent at (n-1)^2 + 1. The search is cut off
    near delta_bound, which is far beyond the mixing onset of any chain this
    package is meant for.
    """
    n = source.state_count
    cap = min((n - 1) ** 2 + 1, max(2 * source.delta_bound, 512))
    step = source.transition > 0.0
    for _ in range(cap):
        if step.all():
            return True
        step = (step.astype(float) @ source.transition) > 0.0
    return bool(step.all())


def stationary_distribution(source: MarkovSource, tol: float = 1e-12, max_iters: int = 200_000) -> np.ndarray:
    """Stationary law by power iteration from the uniform distribution.

    Iterates pi <- pi P until successive iterates differ by less than tol in
    max norm. Requires a primitive (irreducible, aperiodic) chain; anything
    else raises instead of silently returning one of many fixed points.
    """
    if not is_primitive(source):
        raise ConvergenceError(f"{source.name} is not irreducible and aperiodic; stationary law not unique")
    pi = np.full(source.state_count, 1.0 / source.state_count)
    for _ in range(max_iters):
        nxt = pi @ source.transition
        if np.max(np.abs(nxt - pi)) < tol:
            return nxt
        pi = nxt
    raise ConvergenceError(
        f"power iteration on {source.name} did not reach tol {tol:g} in {max_iters} steps",
        residual=float(np.max(np.abs(nxt - pi))),
    )


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
