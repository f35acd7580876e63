"""Two-graph comparison mode: one star graph per image, shared-weight GCN.

Each side's graph holds single-instance features (target first, then its
context co-travelers); one branch pass reads both sides' graphs, and a
pair's two readouts sit side by side before the binary classifier. Kept as
a baseline against the paired-node graph, and trained on the same
GraphSamples.
"""

from __future__ import annotations

import numpy as np

from .autodiff import SgdConfig, Tensor
from .graph import GcnParams, fit_graph_model, graph_readout
from .graph import samples_from_expansions  # re-exported: the per-target reference sample builder


class SiameseParams(GcnParams):
    """Branch weights are shared; only the classifier sees both sides."""

    PREFIX = "siamese"
    READOUTS = 2
    NODE_SIDES = 1

    @staticmethod
    def inputs(xa: np.ndarray, xb: np.ndarray) -> np.ndarray:
        """(B, N, f) sides as one (2B, N, f) stack: pair i's two sides in rows 2i and 2i + 1."""
        return np.stack((xa, xb), axis=1).reshape(-1, *xa.shape[1:])

    def logits(self, x: Tensor) -> Tensor:
        return siamese_forward(self, x)


def siamese_forward(params: SiameseParams, x: Tensor) -> Tensor:
    """A batch laid out by ``SiameseParams.inputs`` through the shared branch
    on ``params.a_hat`` in one pass; each pair's two readouts, one row
    ``[h_a ‖ h_b]``, go to the classifier. Returns the (B, 2) class logits."""
    h = graph_readout(params, params.a_hat, x)
    return h.reshape(-1, 2 * h.shape[1]).linear(params.cls_w, params.cls_b)


def train_siamese(samples, cfg: SgdConfig, epoch_losses: list = None) -> SiameseParams:
    """Binary cross-entropy training of the siamese model over GraphSamples."""
    return fit_graph_model(samples, cfg, SiameseParams, epoch_losses)
