"""Star context graph over a target pair and its K context pairs, plus the
GCN that turns the graph into a probe-gallery match probability.

Node 0 holds the target pair, nodes 1..K the context pairs in descending
score order. Every node connects to the target and to itself; propagation
is Z <- ReLU(A_hat Z W) for three layers, then a flattened readout feeds a
binary softmax classifier.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, SgdConfig, Tensor, fit, glorot_uniform
from .embeddings import WHOLE, labeled_pairs
from .errors import ConfigError, DataError, DimensionError, UsageError
from .expansion import ExpandedPair, expand

log = logging.getLogger(__name__)

DEFAULT_LAYERS = 3
READOUT_DIM = 1024
NODE_FEAT_MODES = ("whole", "allparts")
NORM_MODES = ("sym", "row")


def star_adjacency(n: int) -> np.ndarray:
    """Target node adjacent to everything; other nodes only to the target and themselves."""
    if n < 1:
        raise UsageError(f"graph needs at least one node, got {n}")
    a = np.eye(n)
    a[0, :] = 1.0
    a[:, 0] = 1.0
    return a


def normalize_adjacency(a: np.ndarray, mode: str = "sym") -> np.ndarray:
    deg = a.sum(axis=1)
    if mode == "sym":
        inv_sqrt = 1.0 / np.sqrt(deg)
        return a * inv_sqrt[:, None] * inv_sqrt[None, :]
    if mode == "row":
        return a / deg[:, None]
    raise ConfigError(f"adjacency normalization must be one of {NORM_MODES}, got {mode!r}")


def node_features(insts, node_feat: str = "whole") -> np.ndarray:
    """The (len(insts), f) node feature rows of persons: the whole-body
    part, or all parts one after another."""
    if node_feat == "whole":
        rows = [i.embedding.parts[WHOLE] for i in insts]
    elif node_feat == "allparts":
        rows = [i.embedding.parts.reshape(-1) for i in insts]
    else:
        raise ConfigError(f"node_feat must be one of {NODE_FEAT_MODES}, got {node_feat!r}")
    widths = {r.shape[0] for r in rows}
    if len(widths) != 1:
        raise DataError(f"inconsistent node feature dimensions in graph: {sorted(widths)}")
    return np.stack(rows)


def side_matrices(ep: ExpandedPair, node_feat: str = "whole"):
    """Node feature matrices (probe side, gallery side), each (K+1, f), of
    an expanded pair: the target pair in row 0, then the context pairs."""
    pairs = [ep.target] + [(c.probe_ctx, c.gallery_ctx) for c in ep.contexts]
    xa, xb = np.split(node_features([a for a, _ in pairs] + [b for _, b in pairs], node_feat), 2)
    return xa, xb


@dataclass(frozen=True)
class ContextGraph:
    x: np.ndarray  # (N, f) node features, target pair in row 0
    adjacency: np.ndarray  # (N, N) binary
    norm_adjacency: np.ndarray  # (N, N)


@dataclass(frozen=True)
class GraphSample:
    graph: ContextGraph
    label: int  # 1 = same identity, 0 = different


def build_graph(ep: ExpandedPair, node_feat: str = "whole", star=None) -> ContextGraph:
    """The star graph of an expanded pair. ``star`` holds its adjacency
    and normalized adjacency (A, Â), which graphs of one K may share; by
    default they are built for K+1 nodes with "sym" normalization."""
    if ep.degenerate or len(ep.contexts) != ep.k:
        raise UsageError(
            f"build_graph needs exactly K={ep.k} contexts, got {len(ep.contexts)}"
            + (" (degenerate target)" if ep.degenerate else "")
        )
    x = np.concatenate(side_matrices(ep, node_feat), axis=1)
    if star is None:
        a = star_adjacency(len(x))
        star = a, normalize_adjacency(a)
    return ContextGraph(x=x, adjacency=star[0], norm_adjacency=star[1])


@dataclass
class GcnParams(ParamSet):
    PREFIX = "gcn"

    layers: list  # L Tensors, each (f, f)
    readout_w: Tensor  # (1024, N*f)
    readout_b: Tensor  # (1024, 1)
    cls_w: Tensor  # (2, 1024)
    cls_b: Tensor  # (2, 1)


def init_gcn_params(
    rng: np.random.Generator,
    n_nodes: int,
    feat_dim: int,
    n_layers: int = DEFAULT_LAYERS,
    readout_dim: int = READOUT_DIM,
) -> GcnParams:
    layers = [
        Tensor(glorot_uniform(rng, feat_dim, feat_dim), requires_grad=True) for _ in range(n_layers)
    ]
    flat = n_nodes * feat_dim
    return GcnParams(
        layers=layers,
        readout_w=Tensor(glorot_uniform(rng, readout_dim, flat), requires_grad=True),
        readout_b=Tensor(np.zeros((readout_dim, 1)), requires_grad=True),
        cls_w=Tensor(glorot_uniform(rng, 2, readout_dim), requires_grad=True),
        cls_b=Tensor(np.zeros((2, 1)), requires_grad=True),
    )


def graph_readout(params, a_hat: np.ndarray, x: Tensor, activation: str = "relu") -> Tensor:
    """Propagate a batch of graphs that share ``a_hat`` and read each out.

    ``x`` holds (B, N, f) node features and ``params`` the ``layers``,
    ``readout_w`` and ``readout_b`` of a GCN or of the siamese branch;
    returns the (B, readout) hidden layer. ``activation='linear'`` disables
    the propagation nonlinearity (oracle mode).
    """
    if x.data.ndim != 3:
        raise DimensionError(f"graph batch must be (B, N, f), got shape {x.shape}")
    b, n, f = x.shape
    feat_dim = params.layers[0].shape[0]
    if f != feat_dim:
        raise ConfigError(f"node feature dim {f} does not match parameters ({feat_dim})")
    width = params.readout_w.shape[1]
    if n * f != width:
        raise ConfigError(
            f"graph has {n} nodes but readout expects {width // f} (flatten width {width})"
        )
    if activation not in ("relu", "linear"):
        raise ConfigError(f"activation must be 'relu' or 'linear', got {activation!r}")
    z = x
    for w in params.layers:
        z = z.left_mul(a_hat) @ w
        if activation == "relu":
            z = z.relu()
    return z.reshape(b, n * f).linear(params.readout_w, params.readout_b).relu()


def gcn_logits(params: GcnParams, a_hat: np.ndarray, x: Tensor, activation: str = "relu") -> Tensor:
    """The GCN on a batch of graphs sharing ``a_hat``: (B, N, f) node
    features -> (B, 2) class logits."""
    return graph_readout(params, a_hat, x, activation).linear(params.cls_w, params.cls_b)


def gcn_forward(params: GcnParams, graph: ContextGraph, activation: str = "relu"):
    """One graph through ``gcn_logits``; returns its (1, 2) logits and its match score."""
    logits = gcn_logits(params, graph.norm_adjacency, Tensor(graph.x[None]), activation)
    return logits, float(logits.softmax().data[0, 1])


def gcn_score_batch(params: GcnParams, a_hat: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Match scores for a batch of graphs sharing one adjacency.

    ``xs`` has shape (B, N, f); returns (B,) positive-class probabilities.
    """
    return gcn_logits(params, a_hat, Tensor(xs)).softmax().data[:, 1]


def sample_loss(params: GcnParams, samples, x: Tensor = None) -> Tensor:
    """Mean cross-entropy of a minibatch of graph samples sharing one adjacency.

    ``x`` may replace the stacked (B, N, f) node features, e.g. with a
    requires_grad leaf for gradient checks.
    """
    if x is None:
        x = Tensor(np.stack([s.graph.x for s in samples]))
    logits = gcn_logits(params, samples[0].graph.norm_adjacency, x)
    return logits.cross_entropy_binary([s.label for s in samples])


def train_gcn(samples, cfg: SgdConfig, epoch_losses: list = None) -> GcnParams:
    """Binary cross-entropy training over graph samples; deterministic per seed."""
    if not samples:
        raise DataError("no graph samples to train on")
    labels = {s.label for s in samples}
    if labels != {0, 1}:
        raise DataError(f"training needs both labels, got {sorted(labels)}")
    shapes = {s.graph.x.shape for s in samples}
    if len(shapes) != 1:
        raise DataError(f"all graph samples must share K; found node shapes {sorted(shapes)}")
    a_hat = samples[0].graph.norm_adjacency
    if any(not np.array_equal(s.graph.norm_adjacency, a_hat) for s in samples):
        raise DataError("all graph samples must share one normalized adjacency")
    n, f = samples[0].graph.x.shape
    rng = np.random.default_rng(cfg.seed)
    params = init_gcn_params(rng, n, f)
    fit(params.tensors(), cfg, rng, lambda rng: samples, lambda batch: sample_loss(params, batch),
        "gcn epoch %d/%d lr=%.4g mean_loss=%.6f", epoch_losses)
    return params


def build_labeled_expansions(
    scenes,
    attn_scorer,
    k: int = 3,
    seed: int = 0,
    neg_ratio: float = 1.0,
    max_positives: int = None,
):
    """Labeled (ExpandedPair, label) training targets.

    Every same-identity cross-scene pair becomes a positive, plus a seeded
    sample of different-identity pairs. Targets with zero context candidates
    are skipped, mirroring the training exclusion rule for single-person
    scenes.
    """
    rng = np.random.default_rng((seed, 0x6C7))
    scene_of = {s.scene_id: s for s in scenes}
    labeled, positive_pairs = labeled_pairs(scenes)

    def make_expansion(a, b):
        ep = expand(scene_of[a.scene_id], a, scene_of[b.scene_id], b, attn_scorer, k=k, seed=seed)
        return None if ep.degenerate else ep

    if max_positives is not None and len(positive_pairs) > max_positives:
        idx = rng.choice(len(positive_pairs), size=max_positives, replace=False)
        positive_pairs = [positive_pairs[i] for i in sorted(idx)]

    expansions = []
    for a, b in positive_pairs:
        ep = make_expansion(a, b)
        if ep is not None:
            expansions.append((ep, 1))

    n_pos = len(expansions)
    target_neg = int(round(neg_ratio * n_pos))
    n = len(labeled)
    n_neg = 0

    # hard negatives: wrong person drawn from a scene that holds a true match,
    # so context support alone cannot separate the classes
    for a, b in positive_pairs:
        if n_neg >= target_neg // 2:
            break
        decoys = [
            c
            for c in scene_of[b.scene_id].instances
            if c.identity is not None and c.identity != a.identity
        ]
        if not decoys:
            continue
        c = decoys[int(rng.integers(len(decoys)))]
        ep = make_expansion(a, c)
        if ep is not None:
            expansions.append((ep, 0))
            n_neg += 1

    attempts = 0
    while n_neg < target_neg and attempts < 100 * max(target_neg, 1):
        attempts += 1
        i, j = rng.integers(0, n, size=2)
        a, b = labeled[i], labeled[j]
        if a.identity == b.identity or a.scene_id == b.scene_id:
            continue
        ep = make_expansion(a, b)
        if ep is not None:
            expansions.append((ep, 0))
            n_neg += 1
    if n_pos == 0 or n_neg == 0:
        raise DataError(
            f"graph training set needs both labels; built {n_pos} positive and {n_neg} negative"
        )
    log.info("graph targets: %d positive, %d negative (K=%d)", n_pos, n_neg, k)
    return expansions


def build_graph_samples(
    scenes,
    attn_scorer,
    k: int = 3,
    seed: int = 0,
    neg_ratio: float = 1.0,
    node_feat: str = "whole",
    norm: str = "sym",
    max_positives: int = None,
):
    """Graph training set built from the labeled expansions."""
    expansions = build_labeled_expansions(
        scenes, attn_scorer, k=k, seed=seed, neg_ratio=neg_ratio, max_positives=max_positives
    )
    a = star_adjacency(k + 1)
    star = a, normalize_adjacency(a, norm)
    return [
        GraphSample(graph=build_graph(ep, node_feat=node_feat, star=star), label=label)
        for ep, label in expansions
    ]
