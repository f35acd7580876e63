"""Two-graph comparison mode: one star graph per image, shared-weight GCN.

Each side's graph holds single-instance features (target first, then its
context co-travelers); the two branch readouts are concatenated before the
binary classifier. Kept as a baseline against the paired-node graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, SgdConfig, Tensor, fit, glorot_uniform
from .errors import DataError
from .graph import READOUT_DIM, DEFAULT_LAYERS, graph_readout, normalize_adjacency, side_matrices, star_adjacency


@dataclass(frozen=True)
class SiameseSample:
    xa: np.ndarray  # (N, f) probe-side node features
    xb: np.ndarray  # (N, f) gallery-side node features
    label: int


@dataclass
class SiameseParams(ParamSet):
    """Branch weights are shared; only the classifier sees both sides."""

    PREFIX = "siamese"

    layers: list  # shared, (f, f) each
    readout_w: Tensor  # shared, (1024, N*f)
    readout_b: Tensor
    cls_w: Tensor  # (2, 2048)
    cls_b: Tensor


def init_siamese_params(
    rng: np.random.Generator,
    n_nodes: int,
    feat_dim: int,
    n_layers: int = DEFAULT_LAYERS,
    readout_dim: int = READOUT_DIM,
) -> SiameseParams:
    layers = [
        Tensor(glorot_uniform(rng, feat_dim, feat_dim), requires_grad=True) for _ in range(n_layers)
    ]
    return SiameseParams(
        layers=layers,
        readout_w=Tensor(glorot_uniform(rng, readout_dim, n_nodes * feat_dim), requires_grad=True),
        readout_b=Tensor(np.zeros((readout_dim, 1)), requires_grad=True),
        cls_w=Tensor(glorot_uniform(rng, 2, 2 * readout_dim), requires_grad=True),
        cls_b=Tensor(np.zeros((2, 1)), requires_grad=True),
    )


def siamese_forward(params: SiameseParams, a_hat: np.ndarray, xa: Tensor, xb: Tensor) -> Tensor:
    """Both sides of a batch of pairs, each (B, N, f), through the shared
    branch; returns the (B, 2) class logits."""
    h = graph_readout(params, a_hat, xa).concat(graph_readout(params, a_hat, xb))
    return h.linear(params.cls_w, params.cls_b)


def siamese_score_batch(params: SiameseParams, a_hat: np.ndarray, xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Match scores for (B, N, f) side batches sharing one adjacency."""
    return siamese_forward(params, a_hat, Tensor(xa), Tensor(xb)).softmax().data[:, 1]


def train_siamese(samples, cfg: SgdConfig, norm: str = "sym", epoch_losses: list = None) -> SiameseParams:
    if not samples:
        raise DataError("no siamese samples to train on")
    if {s.label for s in samples} != {0, 1}:
        raise DataError("siamese training needs both labels")
    shapes = {x.shape for s in samples for x in (s.xa, s.xb)}
    if len(shapes) != 1:
        raise DataError(f"all siamese samples must share K; found node shapes {sorted(shapes)}")
    n, f = samples[0].xa.shape
    a_hat = normalize_adjacency(star_adjacency(n), norm)
    rng = np.random.default_rng(cfg.seed)
    params = init_siamese_params(rng, n, f)

    def batch_loss(batch):
        xa = Tensor(np.stack([s.xa for s in batch]))
        xb = Tensor(np.stack([s.xb for s in batch]))
        return siamese_forward(params, a_hat, xa, xb).cross_entropy_binary([s.label for s in batch])

    fit(params.tensors(), cfg, rng, lambda rng: samples, batch_loss,
        "siamese epoch %d/%d lr=%.4g mean_loss=%.6f", epoch_losses)
    return params


def samples_from_expansions(expansions, node_feat: str = "whole"):
    """Turn (ExpandedPair, label) tuples into SiameseSamples."""
    return [SiameseSample(*side_matrices(ep, node_feat), label=label) for ep, label in expansions]
