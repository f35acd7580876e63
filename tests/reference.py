"""Per-pair reference formulas the tests compare the batched code against.

No code of the package calls these: the scorers and trainers compute the
same quantities for whole batches.
"""

import numpy as np

from context_rerank.embeddings import R_PARTS, PartEmbedding
from context_rerank.errors import UsageError


def _check_weights(w) -> np.ndarray:
    w = np.asarray(w, dtype=np.float64)
    if w.shape != (R_PARTS,):
        raise UsageError(f"part weights: expected shape (4,), got {w.shape}")
    if np.any(w < 0) or abs(float(w.sum()) - 1.0) > 1e-9:
        raise UsageError(f"part weights must be nonnegative and sum to 1, got {w}")
    return w


def part_cosine(a: PartEmbedding, b: PartEmbedding, r: int) -> float:
    """Cosine of one part pair; equals the dot product by the unit-norm invariant."""
    if not 0 <= r < R_PARTS:
        raise UsageError(f"part index must be in 0..3, got {r}")
    return float(np.dot(a.parts[r], b.parts[r]))


def part_cosines(a: PartEmbedding, b: PartEmbedding) -> np.ndarray:
    return np.einsum("rd,rd->r", a.parts, b.parts)


def fused_similarity(a: PartEmbedding, b: PartEmbedding, w) -> float:
    """Weighted sum of per-part cosines."""
    w = _check_weights(w)
    return float(np.dot(w, part_cosines(a, b)))


def verification_loss(s: float, y: int, cfg) -> float:
    """1 - s for positives; hinge max(0, s + margin) for negatives."""
    if y == 1:
        return 1.0 - s
    if y == -1:
        return max(0.0, s + cfg.margin)
    raise UsageError(f"verification label must be +1 or -1, got {y!r}")
