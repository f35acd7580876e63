"""Person/scene domain types and part-based similarity.

Every detected person carries four unit-norm part feature vectors in the
fixed order (whole, upper, middle, lower). Similarity between two persons
is a convex combination of per-part cosines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import DataError

R_PARTS = 4
PART_NAMES = ("whole", "upper", "middle", "lower")
WHOLE = 0

# Inputs whose norm is off by less than this are re-normalized on ingest;
# anything worse is rejected as corrupt.
NORM_REPAIR_TOL = 1e-3


@dataclass(frozen=True)
class PartEmbedding:
    """R=4 unit-norm part vectors, rows in fixed part order."""

    parts: np.ndarray  # (4, d)

    @staticmethod
    def from_array(parts, *, context: str = "") -> "PartEmbedding":
        arr = np.asarray(parts, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != R_PARTS:
            raise DataError(f"part embedding{context}: expected shape (4, d), got {arr.shape}")
        norms = np.linalg.norm(arr, axis=1)
        bad_norm = ~(np.abs(norms - 1.0) <= NORM_REPAIR_TOL)  # NaN/Inf parts have NaN/Inf norms and fail too
        if bad_norm.any():
            bad = int(np.argmax(bad_norm))
            raise DataError(
                f"part embedding{context}: part '{PART_NAMES[bad]}' has norm "
                f"{norms[bad]:.6f}, outside repair tolerance"
            )
        # skip repair for rows already unit-norm so save/load round-trips bit-exactly
        arr = arr.copy()
        off = np.abs(norms - 1.0) > 1e-12
        if np.any(off):
            arr[off] /= norms[off, None]
        arr.flags.writeable = False
        return PartEmbedding(arr)

    @property
    def dim(self) -> int:
        return self.parts.shape[1]

    def key(self) -> bytes:
        """Canonical byte representation, used to order pairs symmetrically."""
        return self.parts.tobytes()

    def __eq__(self, other):
        """Equal parts, equal embeddings; a generated __eq__ would compare
        the arrays element-wise, which has no truth value."""
        return self.key() == other.key() if isinstance(other, PartEmbedding) else NotImplemented

    def __hash__(self):
        return hash(self.key())


@dataclass(frozen=True)
class Instance:
    instance_id: str
    scene_id: str
    box: tuple  # (x, y, w, h) in pixels
    identity: Optional[int]
    embedding: PartEmbedding

    def __post_init__(self):
        x, y, w, h = self.box
        if w <= 0 or h <= 0:
            raise DataError(f"instance {self.instance_id}: box must have positive size, got {self.box}")
        if self.identity is not None and self.identity < 0:
            raise DataError(f"instance {self.instance_id}: negative identity label")


@dataclass(frozen=True)
class Scene:
    scene_id: str
    camera_id: str
    instances: tuple

    def __post_init__(self):
        for inst in self.instances:
            if inst.scene_id != self.scene_id:
                raise DataError(
                    f"scene {self.scene_id}: instance {inst.instance_id} "
                    f"references scene {inst.scene_id}"
                )


def uniform_weights() -> np.ndarray:
    """The fixed 0.25-per-part fusion baseline."""
    return np.full(R_PARTS, 0.25)


def cosine_matrix(group_a: Sequence[PartEmbedding], group_b: Sequence[PartEmbedding]) -> np.ndarray:
    """Per-part cosines for every cross pair: shape (len(a), len(b), 4)."""
    if not group_a or not group_b:
        return np.zeros((len(group_a), len(group_b), R_PARTS))
    stack_a = np.stack([e.parts for e in group_a])  # (na, 4, d)
    stack_b = np.stack([e.parts for e in group_b])
    return np.einsum("ird,jrd->ijr", stack_a, stack_b)


def labeled_pairs(scenes):
    """The labeled persons of ``scenes`` sorted by instance id, and every
    cross-scene same-identity pair among them: identities in order of their
    first person, pairs (a, b) with a before b in that order."""
    labeled = sorted((i for s in scenes for i in s.instances if i.identity is not None),
                     key=lambda i: i.instance_id)
    by_identity = {}
    for inst in labeled:
        by_identity.setdefault(inst.identity, []).append(inst)
    pairs = [(a, b) for insts in by_identity.values() for n, a in enumerate(insts)
             for b in insts[n + 1:] if a.scene_id != b.scene_id]
    return labeled, pairs
