"""Loss matrices over safety labels.

A loss matrix L assigns a real risk L[y, y_hat] to estimating label y_hat
when the truth is y. The minimum achievable expected loss over estimates is
the generalized (L-)entropy of the label distribution; the minimizer is the
Bayes-optimal estimate, which `tables.build_tables` tabulates. Shannon
entropy is the log-loss special case, which is out of scope here because
its actions are distributions, not labels.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError

SAFE, CAUTIOUS, DANGEROUS = 0, 1, 2


@dataclass(frozen=True)
class LossMatrix:
    """|Y| x |Y| table of estimation risks; entries[y, y_hat] = L(y, y_hat).

    Entries may be any finite reals: asymmetric, negative, and nonzero
    diagonals are all legal.
    """

    entries: np.ndarray

    def __post_init__(self):
        e = np.array(self.entries, dtype=float)
        if e.ndim != 2 or e.shape[0] != e.shape[1] or e.shape[0] < 1:
            raise ValidationError(f"loss matrix must be square and nonempty, got shape {e.shape}")
        if not np.all(np.isfinite(e)):
            raise ValidationError("loss matrix entries must be finite")
        e.setflags(write=False)
        object.__setattr__(self, "entries", e)

    @property
    def label_count(self) -> int:
        return self.entries.shape[0]


def loss_01(label_count: int) -> LossMatrix:
    """Unit loss for any wrong label, zero for the right one."""
    if label_count < 1:
        raise ValidationError(f"label_count must be >= 1, got {label_count}")
    return LossMatrix(np.ones((label_count, label_count)) - np.eye(label_count))


def loss_quadratic(label_values) -> LossMatrix:
    """Squared difference of the numeric values attached to the labels."""
    v = np.asarray(label_values, dtype=float)
    return LossMatrix((v[:, None] - v[None, :]) ** 2)


def loss_safety_example() -> LossMatrix:
    """The running three-level safety loss over (safe, cautious, dangerous).

    Misreading danger as safety carries the dominant risk (1000); the reverse
    mistake is cheap (5) because acting cautiously in a safe spot costs little.
    """
    e = np.zeros((3, 3))
    e[DANGEROUS, SAFE] = 1000.0
    e[SAFE, DANGEROUS] = 5.0
    e[CAUTIOUS, SAFE] = 10.0
    e[SAFE, CAUTIOUS] = 1.0
    e[CAUTIOUS, DANGEROUS] = 5.0
    e[DANGEROUS, CAUTIOUS] = 100.0
    return LossMatrix(e)
