import numpy as np
import pytest

from context_rerank.autodiff import Tensor, max_rel_error, relu_kink_distance
from context_rerank.gradcheck import (
    check_gradients,
    gradcheck_attention,
    gradcheck_cross_entropy,
    gradcheck_elementwise,
    gradcheck_gcn,
    gradcheck_matmul,
    gradcheck_siamese,
    gradcheck_softmax,
    run_all,
)

TRIALS = 25  # per-suite trials for the unit run; the acceptance suite uses 100


class TestMaxRelError:
    def test_identical_arrays_zero(self):
        a = np.array([1.0, -2.0, 0.0])
        assert max_rel_error(a, a.copy()) == 0.0

    def test_floor_prevents_blowup_near_zero(self):
        a = np.array([1e-12])
        b = np.array([2e-12])
        assert max_rel_error(a, b) < 1e-7

    def test_detects_sign_flip(self):
        a = np.array([0.5])
        b = np.array([-0.5])
        assert max_rel_error(a, b) > 0.9


class TestCheckGradients:
    def test_catches_wrong_gradient(self):
        x = Tensor(np.array([0.7, -0.4]), requires_grad=True)

        def build():
            loss = (x * x).sum()
            return loss

        err = check_gradients(build, [x])
        assert err < 1e-7

        # now sabotage the analytic gradient path via a frozen leaf
        y = Tensor(np.array([0.7, -0.4]), requires_grad=False)
        err_missing = check_gradients(lambda: (x * y).sum(), [y])
        # y never gets a grad, so the reported error is the full numeric value
        assert err_missing > 0.9

    def test_kink_distance_reports_relu_proximity(self):
        x = Tensor(np.array([1e-6, 2.0]), requires_grad=True)
        loss = x.relu().sum()
        assert relu_kink_distance(loss) == pytest.approx(1e-6)


class TestSuites:
    def test_matmul(self):
        assert gradcheck_matmul(TRIALS) < 1e-4

    def test_elementwise(self):
        assert gradcheck_elementwise(TRIALS) < 1e-4

    def test_softmax(self):
        assert gradcheck_softmax(TRIALS) < 1e-4

    def test_cross_entropy(self):
        assert gradcheck_cross_entropy(TRIALS) < 1e-4

    def test_attention_end_to_end(self):
        assert gradcheck_attention(TRIALS) < 1e-4

    def test_gcn_pipeline(self):
        assert gradcheck_gcn(TRIALS) < 1e-4

    def test_siamese_pipeline(self):
        assert gradcheck_siamese(TRIALS) < 1e-4

    def test_run_all_covers_every_component(self):
        results = run_all(n_trials=3, seed=1)
        assert set(results) == {
            "matmul",
            "elementwise",
            "softmax",
            "cross_entropy",
            "attention_end_to_end",
            "gcn_pipeline",
            "siamese_pipeline",
        }
        assert all(err < 1e-4 for err in results.values())

    def test_deterministic_per_seed(self):
        assert run_all(n_trials=3, seed=2) == run_all(n_trials=3, seed=2)
