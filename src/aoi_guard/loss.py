"""Loss matrices, Bayes-optimal label estimation, and generalized entropy.

A loss matrix L assigns a real risk L[y, y_hat] to estimating label y_hat
when the truth is y. The minimum achievable expected loss over estimates is
the generalized (L-)entropy of the label distribution; the minimizer is the
Bayes-optimal estimate. Shannon entropy is the log-loss special case, which
is out of scope here because its actions are distributions, not labels.
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


def optimal_estimate(dist, loss: LossMatrix) -> tuple[int, float]:
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


def conditional_entropy_given(x_given_z, y_given_xz, loss: LossMatrix) -> tuple[float, float]:
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
