"""Two-graph comparison mode: one star graph per image, shared-weight GCN.

Each side's graph holds single-instance features (target first, then its
context co-travelers); the two branch readouts are concatenated before the
binary classifier. Kept as a baseline against the paired-node graph, and
trained on the same GraphSamples.
"""

from __future__ import annotations

from .autodiff import SgdConfig, Tensor
from .graph import GcnParams, fit_graph_model, graph_readout
from .graph import samples_from_expansions  # re-exported: the per-target reference sample builder


class SiameseParams(GcnParams):
    """Branch weights are shared; only the classifier sees both sides."""

    PREFIX = "siamese"
    READOUTS = 2
    NODE_SIDES = 1

    def logits(self, xa: Tensor, xb: Tensor) -> Tensor:
        return siamese_forward(self, xa, xb)


init_siamese_params = SiameseParams.init


def siamese_forward(params: SiameseParams, xa: Tensor, xb: Tensor) -> Tensor:
    """Both sides of a batch of pairs, each (B, N, f), through the shared
    branch on ``params.a_hat``; returns the (B, 2) class logits."""
    h = graph_readout(params, params.a_hat, xa).concat(graph_readout(params, params.a_hat, xb))
    return h.linear(params.cls_w, params.cls_b)


def train_siamese(samples, cfg: SgdConfig, epoch_losses: list = None) -> SiameseParams:
    """Binary cross-entropy training of the siamese model over GraphSamples."""
    return fit_graph_model(samples, cfg, SiameseParams, epoch_losses)
