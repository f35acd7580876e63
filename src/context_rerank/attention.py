"""Relative attention: per-part fusion weights predicted from a pair.

A two-layer MLP with a softmax head maps the concatenated per-part
descriptors of a probe/gallery pair to four fusion weights; it is trained
with a cosine-embedding verification loss (margin hinge on negatives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, SgdConfig, Tensor, fit, glorot_uniform, multiple_of
from .embeddings import PartEmbedding, R_PARTS, labeled_pairs, part_cosines
from .errors import ConfigError, DataError, DimensionError, UsageError

DEFAULT_HIDDEN = 256


@dataclass(frozen=True)
class VerificationConfig:
    margin: float = 0.3

    def __post_init__(self):
        if not 0.0 <= self.margin < 1.0:
            raise ConfigError(f"margin must be in [0, 1), got {self.margin}")


@dataclass
class AttentionParams(ParamSet):
    """fc1 -> ReLU -> fc2 -> softmax over the 4 parts."""

    PREFIX = "attention"

    w1: Tensor  # (hidden, 2*R*d)
    b1: Tensor  # (hidden, 1)
    w2: Tensor  # (R, hidden)
    b2: Tensor  # (R, 1)

    @property
    def dim(self) -> int:
        return self.w1.shape[1] // (2 * R_PARTS)

    def expected_shapes(self) -> dict:
        hidden, width = self.w1.shape
        return {"w1": (hidden, multiple_of(width, 2 * R_PARTS)), "b1": (hidden, 1),
                "w2": (R_PARTS, hidden), "b2": (R_PARTS, 1)}


def init_attention_params(rng: np.random.Generator, d: int, hidden: int = DEFAULT_HIDDEN) -> AttentionParams:
    n_in = 2 * R_PARTS * d
    return AttentionParams(
        w1=Tensor(glorot_uniform(rng, hidden, n_in), requires_grad=True),
        b1=Tensor(np.zeros((hidden, 1)), requires_grad=True),
        w2=Tensor(glorot_uniform(rng, R_PARTS, hidden), requires_grad=True),
        b2=Tensor(np.zeros((R_PARTS, 1)), requires_grad=True),
    )


def order_pair(a: PartEmbedding, b: PartEmbedding):
    """Canonical pair order (byte-lexicographic), making similarity symmetric."""
    return (a, b) if a.key() <= b.key() else (b, a)


def pair_descriptor(a: PartEmbedding, b: PartEmbedding) -> np.ndarray:
    """Concatenated per-part descriptors [a_r || b_r], fixed part order; (2Rd,)."""
    return np.concatenate((a.parts, b.parts), axis=1).reshape(-1)


def attention_forward(params: AttentionParams, x: Tensor) -> Tensor:
    """The head on a batch: (B, 2Rd) descriptors -> (B, 4) softmax weights."""
    width = params.w1.shape[1]
    if x.data.ndim != 2 or x.shape[1] != width:
        raise DimensionError(
            f"descriptor batch of shape {x.shape} does not match parameters (expect (B, {width}), {width} = 2*R*d)"
        )
    return attention_head(params, x.linear(params.w1, params.b1))


def attention_head(params: AttentionParams, h: Tensor) -> Tensor:
    """The head after its first layer: (B, hidden) pre-activations -> (B, 4) weights."""
    return h.relu().linear(params.w2, params.b2).softmax()


def slot_projections(params: AttentionParams, first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """First-layer products of persons in one slot of a pair, for (n1, R, d)
    part stacks in the first slot of ``pair_descriptor`` and (n2, R, d) in
    the second: row i of the (n1 + n2, hidden) result is ``w1`` times the
    descriptor holding stack i in its slot and zeros in the other. The
    layer is linear, so the first layer of ``pair_descriptor(a, b)`` is the
    first-slot row of a plus the second-slot row of b plus ``b1``."""
    n1, r, d = first.shape
    width = params.w1.shape[1]
    if 2 * r * d != width or second.shape[1:] != (r, d):
        raise DimensionError(f"part stacks of shapes {first.shape[1:]} and {second.shape[1:]} do not "
                             f"match parameters (expect (R, d) with 2*R*d = {width})")
    rows = np.zeros((n1 + len(second), r, 2, d))
    rows[:n1, :, 0] = first
    rows[n1:, :, 1] = second
    return rows.reshape(-1, width) @ params.w1.data.T


def attention_weights_batch(params: AttentionParams, descriptors: np.ndarray) -> np.ndarray:
    """Inference for (B, 2Rd) descriptors; returns (B, 4) weights."""
    return attention_forward(params, Tensor(descriptors)).data


def verification_loss(s: float, y: int, cfg: VerificationConfig) -> float:
    """1 - s for positives; hinge max(0, s + margin) for negatives."""
    if y == 1:
        return 1.0 - s
    if y == -1:
        return max(0.0, s + cfg.margin)
    raise UsageError(f"verification label must be +1 or -1, got {y!r}")


def pair_loss(params: AttentionParams, batch, cfg: VerificationConfig, descriptors: Tensor = None) -> Tensor:
    """Tape-building mean verification loss of the fused similarity over a
    minibatch of (PartEmbedding, PartEmbedding, y) pairs.

    ``descriptors`` may be passed explicitly (e.g. a requires_grad leaf for
    gradient checks); its rows must already be in canonical pair order.
    """
    for _, _, y in batch:
        if y not in (1, -1):
            raise UsageError(f"verification label must be +1 or -1, got {y!r}")
    pairs = [order_pair(a, b) for a, b, _ in batch]
    if descriptors is None:
        descriptors = Tensor(np.stack([pair_descriptor(a, b) for a, b in pairs]))
    w = attention_forward(params, descriptors)
    cosines = Tensor(np.stack([part_cosines(a, b) for a, b in pairs]))
    s = (w * cosines).sum(axis=-1)
    # 1 - s for positives (never negative, as s <= 1), max(0, s + margin) for negatives
    positive = np.array([y == 1 for _, _, y in batch])
    losses = (s * Tensor(np.where(positive, -1.0, 1.0)) + Tensor(np.where(positive, 1.0, cfg.margin))).relu()
    return losses.sum().affine(1.0 / len(batch))


def build_training_pairs(scenes, rng: np.random.Generator, negative_pool_factor: int = 10):
    """All labeled cross-scene same-identity pairs as positives, plus a seeded
    pool of cross-identity negatives (``negative_pool_factor`` x positives).

    Returns a list of (Instance, Instance, y) with y in {+1, -1}.
    """
    labeled, pairs = labeled_pairs(scenes)
    positives = [(a, b, 1) for a, b in pairs]
    if not positives:
        raise DataError("no cross-scene same-identity pairs available for training")

    target = negative_pool_factor * len(positives)
    negatives = []
    seen = set()
    n = len(labeled)
    attempts = 0
    while len(negatives) < target and attempts < 50 * target:
        attempts += 1
        i, j = rng.integers(0, n, size=2)
        if i == j:
            continue
        a, b = labeled[i], labeled[j]
        if a.identity == b.identity:
            continue
        key = (min(a.instance_id, b.instance_id), max(a.instance_id, b.instance_id))
        if key in seen:
            continue
        seen.add(key)
        negatives.append((a, b, -1))
    if not negatives:
        raise DataError("no cross-identity pairs available for training")
    return positives + negatives


def train_attention(
    pairs,
    cfg: SgdConfig,
    vcfg: VerificationConfig = VerificationConfig(),
    hidden: int = DEFAULT_HIDDEN,
    neg_ratio: int = 3,
    epoch_losses: list = None,
) -> AttentionParams:
    """Train the attention head on frozen embeddings.

    Each epoch uses every positive pair plus a fresh seeded subsample of the
    provided negatives at ``neg_ratio`` negatives per positive.
    Deterministic given (pairs, cfg).
    """
    positives = [p for p in pairs if p[2] == 1]
    negatives = [p for p in pairs if p[2] == -1]
    if not positives or not negatives:
        raise DataError(
            f"training needs both pair classes, got {len(positives)} positive "
            f"and {len(negatives)} negative"
        )
    d = positives[0][0].embedding.dim
    rng = np.random.default_rng(cfg.seed)
    params = init_attention_params(rng, d, hidden)
    n_neg = min(len(negatives), neg_ratio * len(positives))

    def draw(rng):
        chosen = rng.choice(len(negatives), size=n_neg, replace=False)
        return positives + [negatives[i] for i in chosen]

    def batch_loss(batch):
        return pair_loss(params, [(a.embedding, b.embedding, y) for a, b, y in batch], vcfg)

    fit(params, cfg, rng, draw, batch_loss, epoch_losses)
    return params
