import numpy as np
import pytest

from aoi_guard import (
    LossMatrix,
    ValidationError,
    loss_01,
    loss_quadratic,
    loss_safety_example,
)
from aoi_guard.loss import CAUTIOUS, DANGEROUS, SAFE

from oracles import conditional_entropy_given, optimal_estimate


class TestLossBuilders:
    def test_loss_01(self):
        assert loss_01(2).entries.tolist() == [[0, 1], [1, 0]]
        assert loss_01(1).entries.tolist() == [[0]]
        three = loss_01(3).entries
        assert three.trace() == 0 and three.sum() == 6

    def test_loss_quadratic(self):
        assert loss_quadratic([0, 1]).entries.tolist() == [[0, 1], [1, 0]]
        assert loss_quadratic([0, 2]).entries.tolist() == [[0, 4], [4, 0]]
        assert loss_quadratic([1, 1]).entries.tolist() == [[0, 0], [0, 0]]

    def test_safety_example_entries(self):
        e = loss_safety_example().entries
        assert e[DANGEROUS, SAFE] == 1000
        assert e[SAFE, CAUTIOUS] == 1
        assert e[CAUTIOUS, CAUTIOUS] == 0
        assert e[SAFE, DANGEROUS] == 5
        assert e[CAUTIOUS, SAFE] == 10
        assert e[CAUTIOUS, DANGEROUS] == 5
        assert e[DANGEROUS, CAUTIOUS] == 100
        assert e.diagonal().tolist() == [0, 0, 0]

    def test_nonzero_diagonal_accepted(self):
        LossMatrix([[1.0, 2.0], [0.5, -3.0]])

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            LossMatrix([[0.0, np.inf], [1.0, 0.0]])


class TestOptimalEstimate:
    def test_safety_example_enumeration(self):
        # candidates: safe 0.3*10 + 0.5*1000 = 503; cautious 0.2*1 + 0.5*100
        # = 50.2; dangerous 0.2*5 + 0.3*5 = 2.5
        label, risk = optimal_estimate((0.2, 0.3, 0.5), loss_safety_example())
        assert label == DANGEROUS
        assert risk == pytest.approx(2.5)

    def test_point_mass_is_free(self):
        for k in range(3):
            dist = np.zeros(3)
            dist[k] = 1.0
            label, risk = optimal_estimate(dist, loss_safety_example())
            assert (label, risk) == (k, 0.0)

    def test_binary_zero_one(self):
        label, risk = optimal_estimate((0.83, 0.17), loss_01(2))
        assert label == 0
        assert risk == pytest.approx(0.17)

    def test_tie_breaks_to_lowest_label(self):
        label, _ = optimal_estimate((0.5, 0.5), loss_01(2))
        assert label == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            optimal_estimate((0.5, 0.5), loss_01(3))

    def test_unnormalized_rejected(self):
        with pytest.raises(ValidationError):
            optimal_estimate((0.5, 0.6), loss_01(2))


class TestConditionalEntropyGiven:
    def test_irrelevant_side_information(self):
        # Y independent of X: every row identical.
        y_cond = np.tile([0.3, 0.7], (4, 1))
        coarse, fine = conditional_entropy_given([0.1, 0.2, 0.3, 0.4], y_cond, loss_01(2))
        assert coarse == pytest.approx(fine, abs=1e-12)

    def test_deterministic_labels_given_x(self):
        y_cond = np.eye(3)
        coarse, fine = conditional_entropy_given([0.2, 0.3, 0.5], y_cond, loss_01(3))
        assert fine == 0.0
        assert coarse >= 0.0

    def test_conditioning_never_raises_risk(self):
        rng = np.random.default_rng(17)
        for _ in range(200):
            nx = int(rng.integers(1, 6))
            ny = int(rng.integers(1, 5))
            loss = LossMatrix(rng.uniform(0, 5, size=(ny, ny)))
            w = rng.dirichlet(np.ones(nx))
            cond = rng.dirichlet(np.ones(ny), size=nx)
            coarse, fine = conditional_entropy_given(w, cond, loss)
            assert coarse >= fine - 1e-12
