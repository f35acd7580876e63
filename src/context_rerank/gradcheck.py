"""Finite-difference verification suites for every differentiable path.

Each suite runs many seeded random configurations at small dimensions and
reports the worst symmetric relative error between analytic gradients and
central differences (h=1e-5). Configurations that place a ReLU input within
1e-3 of its kink are resampled, since central differences are meaningless
across the kink.
"""

from __future__ import annotations

import numpy as np

from .attention import VerificationConfig, init_attention_params, order_pair, pair_descriptor, pair_loss
from .autodiff import Tensor, max_rel_error, numeric_gradient, relu_kink_distance
from .embeddings import PartEmbedding, R_PARTS
from .graph import init_gcn_params
from .siamese import init_siamese_params, siamese_forward

FD_STEP = 1e-5
KINK_MARGIN = 1e-3


def check_gradients(build_loss, leaves, h: float = FD_STEP) -> float:
    """Worst relative error over ``leaves`` for a freshly built loss.

    ``build_loss`` must construct the tape from the leaves' current data on
    every call, so in-place perturbations of leaf data are observed.
    """
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    loss.backward()
    worst = 0.0
    for leaf in leaves:
        analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad.copy()
        numeric = numeric_gradient(lambda _x: build_loss().item(), leaf.data, h=h)
        worst = max(worst, max_rel_error(analytic, numeric))
        leaf.grad = None
    return worst


def _with_resampling(make_trial, n_trials: int, seed: int) -> float:
    """Run trials, drawing a fresh sub-seed whenever one lands on a kink."""
    worst = 0.0
    draw = 0
    done = 0
    while done < n_trials:
        build_loss, leaves = make_trial(np.random.default_rng((seed, draw)))
        draw += 1
        if relu_kink_distance(build_loss()) < KINK_MARGIN:
            continue
        worst = max(worst, check_gradients(build_loss, leaves))
        done += 1
    return worst


def _random_embedding(rng, d) -> PartEmbedding:
    parts = rng.uniform(-1.0, 1.0, size=(R_PARTS, d))
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    return PartEmbedding.from_array(parts)


def gradcheck_matmul(n_trials: int = 100, seed: int = 11) -> float:
    """A stack of (m, k) matrices times one (k, n) matrix, and the layer
    x @ w.T + b on (m, k) rows."""
    worst = 0.0
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        s, m, k, n = (int(v) for v in rng.integers(1, 5, size=4))
        a = Tensor(rng.uniform(-1, 1, (s, m, k)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (k, n)), requires_grad=True)
        x = Tensor(rng.uniform(-1, 1, (m, k)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (n, k)), requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, (n, 1)), requires_grad=True)
        c1 = Tensor(rng.uniform(-1, 1, (s, m, n)))
        c2 = Tensor(rng.uniform(-1, 1, (m, n)))

        def build():
            return ((a @ b) * c1).sum() + (x.linear(w, bias) * c2).sum()

        worst = max(worst, check_gradients(build, [a, b, x, w, bias]))
    return worst


def gradcheck_elementwise(n_trials: int = 100, seed: int = 12) -> float:
    """Add, sub and mul with ``y`` broadcast over the rows of ``x``."""

    def make_trial(rng):
        m, n = (int(v) for v in rng.integers(1, 6, size=2))
        x = Tensor(rng.uniform(-1, 1, (m, n)), requires_grad=True)
        y = Tensor(rng.uniform(-1, 1, (n,)), requires_grad=True)
        alpha = float(rng.uniform(-2, 2))

        def build():
            return (x.relu() * y + (x - y).affine(alpha)).sum()

        return build, [x, y]

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_softmax(n_trials: int = 100, seed: int = 13) -> float:
    """Row softmax of a (B, n) batch."""
    worst = 0.0
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        b, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        x = Tensor(rng.uniform(-1, 1, (b, n)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (b, n)))
        worst = max(worst, check_gradients(lambda: (x.softmax() * w).sum(), [x]))
    return worst


def gradcheck_cross_entropy(n_trials: int = 100, seed: int = 14) -> float:
    """Mean cross-entropy of (B, 2) logits."""
    worst = 0.0
    for t in range(n_trials):
        rng = np.random.default_rng((seed, t))
        b = int(rng.integers(1, 5))
        x = Tensor(rng.uniform(-1, 1, (b, 2)), requires_grad=True)
        labels = rng.integers(0, 2, size=b)
        worst = max(worst, check_gradients(lambda: x.cross_entropy_binary(labels), [x]))
    return worst


def gradcheck_attention(n_trials: int = 100, seed: int = 15) -> float:
    """End-to-end on a minibatch of 1-4 pairs with mixed labels: descriptors
    -> MLP -> softmax weights -> fused similarity -> mean verification loss,
    gradients w.r.t. all head parameters and the descriptors."""

    def make_trial(rng):
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(3, 9))
        params = init_attention_params(rng, d, hidden)
        batch = []
        for _ in range(int(rng.integers(1, 5))):
            a, b = order_pair(_random_embedding(rng, d), _random_embedding(rng, d))
            batch.append((a, b, 1 if rng.random() < 0.5 else -1))
        vcfg = VerificationConfig(margin=float(rng.uniform(0.0, 0.5)))
        x = Tensor(np.stack([pair_descriptor(a, b) for a, b, _ in batch]), requires_grad=True)

        def build():
            return pair_loss(params, batch, vcfg, descriptors=x)

        return build, params.tensors() + [x]

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_gcn(n_trials: int = 100, seed: int = 16) -> float:
    """Full graph pipeline on a minibatch of 1-4 graphs with mixed labels:
    propagation, readout, classifier, mean cross-entropy; gradients w.r.t.
    all parameters and both sides' node features."""

    def make_trial(rng):
        k = int(rng.integers(1, 4))
        f = 2 * int(rng.integers(2, 5))
        n = k + 1
        params = init_gcn_params(rng, n, f, readout_dim=int(rng.integers(3, 7)))
        draws = [(rng.uniform(-1, 1, (n, f)), int(rng.integers(0, 2))) for _ in range(int(rng.integers(1, 5)))]
        x, labels = np.stack([d for d, _ in draws]), [label for _, label in draws]
        # contiguous copies: numeric_gradient perturbs a leaf through a flat view of its data
        xa, xb = (Tensor(side.copy(), requires_grad=True) for side in np.split(x, 2, axis=2))

        def build():
            return params.logits(xa, xb).cross_entropy_binary(labels)

        return build, params.tensors() + [xa, xb]

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_siamese(n_trials: int = 100, seed: int = 17) -> float:
    """Both shared-weight branches, concatenated readouts, classifier and
    mean cross-entropy on a minibatch of 1-4 pairs with mixed labels;
    gradients w.r.t. all parameters and both sides' node features."""

    def make_trial(rng):
        n = int(rng.integers(2, 5))
        f = int(rng.integers(2, 5))
        b = int(rng.integers(1, 5))
        params = init_siamese_params(rng, n, f, readout_dim=int(rng.integers(3, 7)))
        xa = Tensor(rng.uniform(-1, 1, (b, n, f)), requires_grad=True)
        xb = Tensor(rng.uniform(-1, 1, (b, n, f)), requires_grad=True)
        labels = rng.integers(0, 2, size=b)

        def build():
            return siamese_forward(params, xa, xb).cross_entropy_binary(labels)

        return build, params.tensors() + [xa, xb]

    return _with_resampling(make_trial, n_trials, seed)


def run_all(n_trials: int = 100, seed: int = 0) -> dict:
    """Every suite; returns {component: max relative error}."""
    return {
        "matmul": gradcheck_matmul(n_trials, seed + 11),
        "elementwise": gradcheck_elementwise(n_trials, seed + 12),
        "softmax": gradcheck_softmax(n_trials, seed + 13),
        "cross_entropy": gradcheck_cross_entropy(n_trials, seed + 14),
        "attention_end_to_end": gradcheck_attention(n_trials, seed + 15),
        "gcn_pipeline": gradcheck_gcn(n_trials, seed + 16),
        "siamese_pipeline": gradcheck_siamese(n_trials, seed + 17),
    }
