"""Finite-difference verification suites for every differentiable path.

Each suite runs many seeded random configurations at small dimensions and
reports the worst symmetric relative error between analytic gradients and
central differences (h=1e-5). Configurations that place a ReLU input within
1e-3 of its kink are resampled, since central differences are meaningless
across the kink.
"""

from __future__ import annotations

import numpy as np

from .attention import VerificationConfig, init_attention_params, pair_loss
from .autodiff import Tensor, max_rel_error, numeric_gradient, relu_kink_distance
from .embeddings import PartEmbedding, R_PARTS
from .graph import GcnParams
from .siamese import SiameseParams

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
        analytic = np.zeros_like(leaf.data) if leaf.grad is None else leaf.grad
        numeric = numeric_gradient(lambda _x: build_loss().item(), leaf.data, h=h)
        worst = max(worst, max_rel_error(analytic, numeric))
        leaf.grad = None
    return worst


def _with_resampling(make_trial, n_trials: int, seed: int) -> float:
    """Worst error over ``n_trials`` trials of every suite's ``make_trial(rng)
    -> (build_loss, leaves)``, drawing a fresh sub-seed whenever one lands on a kink."""
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


def gradcheck_propagation(n_trials: int = 100, seed: int = 11) -> float:
    """The graph layer a @ x @ w on a stack of (n, f) matrices with a
    constant (n, n) a, and the layer x @ w.T + b on (m, k) rows."""

    def make_trial(rng):
        s, n, f, m, k = (int(v) for v in rng.integers(1, 5, size=5))
        a = rng.uniform(-1, 1, (n, n))
        x = Tensor(rng.uniform(-1, 1, (s, n, f)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (f, k)), requires_grad=True)
        rows = Tensor(rng.uniform(-1, 1, (m, k)), requires_grad=True)
        lin_w = Tensor(rng.uniform(-1, 1, (f, k)), requires_grad=True)
        bias = Tensor(rng.uniform(-1, 1, (f, 1)), requires_grad=True)
        c1 = Tensor(rng.uniform(-1, 1, (s, n, k)))
        c2 = Tensor(rng.uniform(-1, 1, (m, f)))
        return (lambda: (x.propagate(a, w) * c1).sum() + (rows.linear(lin_w, bias) * c2).sum(),
                [x, w, rows, lin_w, bias])

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_elementwise(n_trials: int = 100, seed: int = 12) -> float:
    """Add, mul, affine and ReLU on two (m, n) operands, then weighted row sums."""

    def make_trial(rng):
        m, n = (int(v) for v in rng.integers(1, 6, size=2))
        x, y = (Tensor(rng.uniform(-1, 1, (m, n)), requires_grad=True) for _ in range(2))
        rows = Tensor(rng.uniform(-1, 1, m))
        alpha = float(rng.uniform(-2, 2))
        return lambda: ((x.relu() * y + (x + y.affine(-1.0)).affine(alpha)).sum(axis=1) * rows).sum(), [x, y]

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_softmax(n_trials: int = 100, seed: int = 13) -> float:
    """Row softmax of a (B, n) batch."""

    def make_trial(rng):
        b, n = int(rng.integers(1, 5)), int(rng.integers(1, 7))
        x = Tensor(rng.uniform(-1, 1, (b, n)), requires_grad=True)
        w = Tensor(rng.uniform(-1, 1, (b, n)))
        return lambda: (x.softmax() * w).sum(), [x]

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_cross_entropy(n_trials: int = 100, seed: int = 14) -> float:
    """Mean cross-entropy of (B, 2) logits."""

    def make_trial(rng):
        b = int(rng.integers(1, 5))
        x = Tensor(rng.uniform(-1, 1, (b, 2)), requires_grad=True)
        labels = rng.integers(0, 2, size=b)
        return lambda: x.cross_entropy_binary(labels), [x]

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_attention(n_trials: int = 100, seed: int = 15) -> float:
    """End-to-end on a minibatch of 1-4 pairs with mixed labels: descriptors
    -> MLP -> softmax weights -> fused similarity -> mean verification loss,
    gradients w.r.t. all head parameters."""

    def make_trial(rng):
        d = int(rng.integers(2, 6))
        hidden = int(rng.integers(3, 9))
        params = init_attention_params(rng, d, hidden)
        batch = [(_random_embedding(rng, d), _random_embedding(rng, d), 1 if rng.random() < 0.5 else -1)
                 for _ in range(int(rng.integers(1, 5)))]
        vcfg = VerificationConfig(margin=float(rng.uniform(0.0, 0.5)))
        return lambda: pair_loss(params, batch, vcfg), params.tensors()

    return _with_resampling(make_trial, n_trials, seed)


def _graph_suite(cls, n_trials: int, seed: int) -> float:
    """A graph model on a minibatch of 1-4 pairs with mixed labels:
    propagation, readout, classifier, mean cross-entropy; gradients w.r.t.
    all parameters and both sides' node features. The parameters are
    ``cls.init(rng, n, cls.NODE_SIDES * f)`` for n nodes, f features a side."""

    def make_trial(rng):
        n = int(rng.integers(2, 5))
        f = int(rng.integers(2, 5))
        b = int(rng.integers(1, 5))
        params = cls.init(rng, n, cls.NODE_SIDES * f, readout_dim=int(rng.integers(3, 7)))
        xa, xb = (rng.uniform(-1, 1, (b, n, f)) for _ in range(2))
        x = Tensor(params.inputs(xa, xb), requires_grad=True)  # every node feature of both sides
        labels = rng.integers(0, 2, size=b)
        return lambda: params.logits(x).cross_entropy_binary(labels), params.tensors() + [x]

    return _with_resampling(make_trial, n_trials, seed)


def gradcheck_gcn(n_trials: int = 100, seed: int = 16) -> float:
    """The paired GCN, which reads both sides next to each other."""
    return _graph_suite(GcnParams, n_trials, seed)


def gradcheck_siamese(n_trials: int = 100, seed: int = 17) -> float:
    """The siamese baseline: one shared branch over both sides, a pair's readouts side by side."""
    return _graph_suite(SiameseParams, n_trials, seed)


def run_all(n_trials: int = 100, seed: int = 0) -> dict:
    """Every suite; returns {component: max relative error}."""
    return {
        "propagation": gradcheck_propagation(n_trials, seed + 11),
        "elementwise": gradcheck_elementwise(n_trials, seed + 12),
        "softmax": gradcheck_softmax(n_trials, seed + 13),
        "cross_entropy": gradcheck_cross_entropy(n_trials, seed + 14),
        "attention_end_to_end": gradcheck_attention(n_trials, seed + 15),
        "gcn_pipeline": gradcheck_gcn(n_trials, seed + 16),
        "siamese_pipeline": gradcheck_siamese(n_trials, seed + 17),
    }
