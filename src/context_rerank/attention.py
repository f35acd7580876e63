"""Relative attention: per-part fusion weights predicted from a pair.

A two-layer MLP with a softmax head maps the concatenated per-part
descriptors of a probe/gallery pair to four fusion weights; it is trained
with a cosine-embedding verification loss (margin hinge on negatives).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ParamSet, SgdConfig, Tensor, fit, glorot_uniform, multiple_of
from .embeddings import PartEmbedding, R_PARTS, labeled_pairs
from .errors import ConfigError, DataError, DimensionError, UsageError

DEFAULT_HIDDEN = 256
DEFAULT_PAIR_NEG_RATIO = 3  # negative pairs sampled per positive each epoch


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


def slot_halves(params: AttentionParams) -> np.ndarray:
    """``w1`` as its two slot halves, (2, R*d, hidden): ``pair_descriptor``
    interleaves the slots part by part, and the layer is linear, so the
    first layer of ``pair_descriptor(a, b)`` is a's parts times half 0 plus
    b's parts times half 1 plus ``b1``."""
    hidden, width = params.w1.shape
    return params.w1.data.reshape(hidden, R_PARTS, 2, -1).transpose(2, 1, 3, 0).reshape(2, width // 2, hidden)


def slot_rows(halves: np.ndarray, parts: np.ndarray) -> np.ndarray:
    """First-layer rows of an (n, R, d) part stack in the first and in the
    second slot of a pair, for ``slot_halves``: (2, n, hidden)."""
    d = halves.shape[1] // R_PARTS
    if parts.shape[1:] != (R_PARTS, d):
        raise DimensionError(f"part stack of shape {parts.shape[1:]} does not match parameters "
                             f"(expect (R, d) = ({R_PARTS}, {d}))")
    return parts.reshape(len(parts), -1) @ halves


def attention_weights_batch(params: AttentionParams, descriptors: np.ndarray) -> np.ndarray:
    """Inference for (B, 2Rd) descriptors; returns (B, 4) weights."""
    return attention_forward(params, Tensor(descriptors)).data


def pair_loss(params: AttentionParams, batch, cfg: VerificationConfig) -> Tensor:
    """Tape-building mean verification loss of the fused similarity over a
    minibatch of (PartEmbedding, PartEmbedding, y) pairs."""
    for _, _, y in batch:
        if y not in (1, -1):
            raise UsageError(f"verification label must be +1 or -1, got {y!r}")
    pairs = [order_pair(a, b) for a, b, _ in batch]
    first = np.stack([a.parts for a, _ in pairs])  # (B, R, d)
    second = np.stack([b.parts for _, b in pairs])
    # row n is pair_descriptor(*pairs[n]); its cosines are the dot products of its R part pairs
    w = attention_forward(params, Tensor(np.concatenate((first, second), axis=2).reshape(len(pairs), -1)))
    cosines = Tensor(np.einsum("brd,brd->br", first, second))
    s = (w * cosines).sum(axis=-1)
    # 1 - s for positives (never negative, as s <= 1), max(0, s + margin) for negatives
    positive = np.array([y == 1 for _, _, y in batch])
    losses = (s * Tensor(np.where(positive, -1.0, 1.0)) + Tensor(np.where(positive, 1.0, cfg.margin))).relu()
    return losses.sum().affine(1.0 / len(batch))


def build_training_pairs(scenes, rng: np.random.Generator):
    """All labeled cross-scene same-identity pairs as positives, plus a seeded
    pool of cross-identity negatives, 10 per positive.

    A negative is a draw (i, j) of two labeled persons of different
    identities, kept the first time its unordered pair is drawn. Drawing
    stops at 10 negatives per positive or after 50 draws per negative wanted.
    The draws come in array chunks, so the state ``rng`` is left in is
    unspecified: pass a stream of its own and do not reuse it.

    Returns a list of (Instance, Instance, y) with y in {+1, -1}.
    """
    labeled, pairs = labeled_pairs(scenes)
    positives = [(a, b, 1) for a, b in pairs]
    if not positives:
        raise DataError("no cross-scene same-identity pairs available for training")

    target = 10 * len(positives)
    n = len(labeled)
    identity = np.array([inst.identity for inst in labeled])
    taken = np.empty(0, dtype=np.int64)  # min(i, j) * n + max(i, j) of each negative, in draw order
    chosen = []
    draws_left = 50 * target
    while len(taken) < target and draws_left:
        m = min(draws_left, max(2 * (target - len(taken)), 4096))
        draws_left -= m
        ij = rng.integers(0, n, size=(m, 2))
        i, j = ij.T
        kept = np.flatnonzero((i != j) & (identity[i] != identity[j]))
        keys = np.minimum(i, j)[kept] * n + np.maximum(i, j)[kept]
        first = np.sort(np.unique(keys, return_index=True)[1])
        new = first[~np.isin(keys[first], taken)][: target - len(taken)]
        taken = np.concatenate((taken, keys[new]))
        chosen.extend(ij[kept[new]].tolist())
    if not chosen:
        raise DataError("no cross-identity pairs available for training")
    return positives + [(labeled[i], labeled[j], -1) for i, j in chosen]


def train_attention(
    pairs,
    cfg: SgdConfig,
    vcfg: VerificationConfig = VerificationConfig(),
    hidden: int = DEFAULT_HIDDEN,
    neg_ratio: int = DEFAULT_PAIR_NEG_RATIO,
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
