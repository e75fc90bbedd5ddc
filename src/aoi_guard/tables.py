"""Penalty and estimator tables indexed by (age, latest observation).

The pair (AoI delta, last received state x) is a sufficient statistic for
estimating the current safety label, so the Bayes-optimal estimate and its
expected loss can be tabulated once per agent class and looked up in O(1)
inside solvers and simulation hot loops.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .loss import LossMatrix
from .markov import MarkovSource, SafetyMap

DEFAULT_SUCCESS_PROB = 1.0


@dataclass(frozen=True)
class AgentClassSpec:
    """Everything shared by agents of one class.

    Bundles the motion model, the state-to-label map, the estimation loss,
    the per-transmission delivery probability, and how many agents share it.
    """

    source: MarkovSource
    safety: SafetyMap
    loss: LossMatrix
    success_prob: float = DEFAULT_SUCCESS_PROB
    member_count: int = 1
    name: str = ""

    def __post_init__(self):
        if self.safety.state_count != self.source.state_count:
            raise ValidationError(
                f"class {self.name or '?'}: safety map covers {self.safety.state_count} states, "
                f"source has {self.source.state_count}"
            )
        if self.safety.label_count != self.loss.label_count:
            raise ValidationError(
                f"class {self.name or '?'}: safety map has {self.safety.label_count} labels, "
                f"loss matrix has {self.loss.label_count}"
            )
        if not 0.0 < self.success_prob <= 1.0:
            raise ValidationError(f"success_prob must lie in (0, 1], got {self.success_prob}")
        if self.member_count < 1:
            raise ValidationError(f"member_count must be >= 1, got {self.member_count}")


@dataclass(frozen=True)
class PenaltyTable:
    """values[delta, x] = minimum expected loss when estimating from (delta, x).

    Row indices are ages directly: rows 1..delta_bound are the operative
    table, row 0 holds the zero-age entries for convenience.
    """

    values: np.ndarray
    delta_bound: int


@dataclass(frozen=True)
class EstimatorTable:
    """choices[delta, x] = Bayes-optimal label for (delta, x); same layout."""

    choices: np.ndarray
    delta_bound: int


def build_tables(cls: AgentClassSpec, delta_bound: int) -> tuple[PenaltyTable, EstimatorTable]:
    """Tabulate penalty q(delta, x) and estimate f(delta, x) for all ages.

    For each age the label law given (delta, x) is the delta-step state law
    pushed through the safety map; entries are its Bayes-optimal label and
    that label's expected loss, computed in one vectorized pass per age.
    Ties on the minimum go to the lowest label index.
    """
    if delta_bound < 1:
        raise ValidationError(f"delta_bound must be >= 1, got {delta_bound}")
    p = cls.source.transition
    nx = cls.source.state_count
    label_law = cls.safety.indicator()  # |X| x |Y|, age 0
    values = np.empty((delta_bound + 1, nx))
    choices = np.empty((delta_bound + 1, nx), dtype=int)
    for delta in range(delta_bound + 1):
        if delta > 0:
            label_law = p @ label_law
        expected = label_law @ cls.loss.entries  # [x, y_hat]
        choices[delta] = np.argmin(expected, axis=1)
        values[delta] = expected[np.arange(nx), choices[delta]]
    values.setflags(write=False)
    choices.setflags(write=False)
    return PenaltyTable(values, delta_bound), EstimatorTable(choices, delta_bound)
