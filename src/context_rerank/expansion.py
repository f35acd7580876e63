"""Contextual instance expansion: find co-traveler pairs for a target pair.

Candidates are every cross pair of non-target persons between the probe
scene and the gallery scene; the top-K highest-scoring one-to-one matches
become the context pairs, replicated at random when fewer than K exist.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from .embeddings import Instance, Scene
from .errors import UsageError

DEFAULT_K = 3


@dataclass(frozen=True)
class ContextPair:
    probe_ctx: Instance
    gallery_ctx: Instance
    score: float


@dataclass(frozen=True)
class ExpandedPair:
    """A target pair plus exactly K context pairs (replicated if scarce).

    ``degenerate`` marks targets with zero context candidates; callers fall
    back to plain pair similarity for those.
    """

    target: tuple  # (probe Instance, gallery Instance)
    contexts: tuple  # K ContextPair entries, descending score
    k: int
    degenerate: bool = False


def member_index(scene: Scene, inst: Instance, role: str) -> int:
    """Index of the person of ``scene`` with the id of ``inst``."""
    for n, i in enumerate(scene.instances):
        if i.instance_id == inst.instance_id:
            return n
    raise UsageError(f"{role} {inst.instance_id} is not in scene {scene.scene_id}")


def enumerate_candidates(probe_scene: Scene, probe: Instance, gallery_scene: Scene, gallery: Instance):
    """Cross product of non-target persons between the two scenes."""
    member_index(probe_scene, probe, "probe")
    member_index(gallery_scene, gallery, "gallery")
    probe_others = [i for i in probe_scene.instances if i.instance_id != probe.instance_id]
    gallery_others = [i for i in gallery_scene.instances if i.instance_id != gallery.instance_id]
    return [(p, g) for p in probe_others for g in gallery_others]


def _ranks(*ids) -> list:
    """Each id's position among the distinct ids in sorted order, for one
    or more lists of ids ranked together."""
    rank = {v: r for r, v in enumerate(sorted(set().union(*ids)))}
    return [[rank[v] for v in group] for group in ids]


def _greedy(order, probe_ranks, gallery_ranks, k: int, taken) -> list:
    """The greedy one-to-one matching: one walk of the candidate indices in
    ``order`` (descending score, ties by (probe rank, gallery rank)) that
    returns the chosen ones in the order taken. A candidate whose probe or
    gallery rank is already taken, or whose gallery rank is in ``taken``,
    is skipped; at most k are taken."""
    chosen, used_p, used_g = [], set(), set(taken)
    for c in order:
        p, g = probe_ranks[c], gallery_ranks[c]
        if p in used_p or g in used_g:
            continue
        chosen.append(c)
        if len(chosen) == k:
            break
        used_p.add(p)
        used_g.add(g)
    return chosen


def select_top_k(candidates, scorer, k: int):
    """Greedy one-to-one matching by descending score.

    Repeatedly takes the best-scoring candidate whose probe and gallery
    members are both unused; ties break by (probe id, gallery id). Returns
    at most k ContextPairs, sorted by descending score.
    """
    if k < 1:
        raise UsageError(f"context K must be >= 1, got {k}")
    scores = [float(scorer(p, g)) for p, g in candidates]
    probe_ranks, gallery_ranks = _ranks([p.instance_id for p, _ in candidates],
                                        [g.instance_id for _, g in candidates])
    order = np.lexsort((gallery_ranks, probe_ranks, np.negative(scores))).tolist()
    chosen = _greedy(order, probe_ranks, gallery_ranks, k, ())
    return [ContextPair(*candidates[c], scores[c]) for c in chosen]


def pair_rng(seed: int, probe: Instance, gallery: Instance) -> np.random.Generator:
    """The seeded random stream of one (probe, gallery) pair, whatever the call order."""
    tag = f"{probe.instance_id}|{gallery.instance_id}".encode()
    return np.random.default_rng((seed, zlib.crc32(tag)))


def _replicate(n: int, k: int, seed: int, probe: Instance, gallery: Instance) -> list:
    """Positions into n < k chosen contexts that fill them up to k: k - n
    seeded random draws, each placed next to the context it copies, so the
    contexts stay in descending score order."""
    extra = pair_rng(seed, probe, gallery).integers(0, n, size=k - n)
    return np.repeat(np.arange(n), 1 + np.bincount(extra, minlength=n)).tolist()


def expand(
    probe_scene: Scene,
    probe: Instance,
    gallery_scene: Scene,
    gallery: Instance,
    scorer,
    k: int = DEFAULT_K,
    seed: int = 0,
) -> ExpandedPair:
    """Top-K context selection with random replication when contexts are scarce."""
    candidates = enumerate_candidates(probe_scene, probe, gallery_scene, gallery)
    chosen = select_top_k(candidates, scorer, k)
    if not chosen:
        return ExpandedPair(target=(probe, gallery), contexts=(), k=k, degenerate=True)
    if len(chosen) < k:
        chosen = [chosen[i] for i in _replicate(len(chosen), k, seed, probe, gallery)]
    return ExpandedPair(target=(probe, gallery), contexts=tuple(chosen), k=k)


def scene_contexts(table: np.ndarray, probe_scene: Scene, probe_row: int, gallery_scene: Scene,
                   k: int = DEFAULT_K, seed: int = 0) -> np.ndarray:
    """The graphs ``expand`` builds for the probe, person ``probe_row`` of
    ``probe_scene``, against every person of ``gallery_scene``, with the
    candidate scores read from ``table``: the score of every (probe scene
    person, gallery scene person) pair.

    Returns the (T, 2, K+1) integer node indices of the T gallery persons
    that have a context candidate, in scene order: row 0 indexes
    ``probe_scene`` and row 1 ``gallery_scene``, the target pair first and
    then the K contexts in context order. So ``nodes[:, 1, 0]`` are the
    targets' positions in ``gallery_scene``.

    Leaving a gallery person out does not reorder the other candidates, so
    the candidates are sorted once and each target's matching is one walk
    of that order that skips the target's column.
    """
    if k < 1:
        raise UsageError(f"context K must be >= 1, got {k}")
    probe = probe_scene.instances[probe_row]
    rows = [r for r, i in enumerate(probe_scene.instances) if i.instance_id != probe.instance_id]
    row_ranks, col_ranks = _ranks([probe_scene.instances[r].instance_id for r in rows],
                                  [i.instance_id for i in gallery_scene.instances])
    width = len(col_ranks)
    probe_ranks, gallery_ranks = [r for r in row_ranks for _ in col_ranks], col_ranks * len(rows)
    order = np.lexsort((gallery_ranks, probe_ranks, np.negative(table[rows].reshape(-1)))).tolist()
    nodes = []
    for t, target in enumerate(gallery_scene.instances):
        chosen = [(rows[c // width], c % width)
                  for c in _greedy(order, probe_ranks, gallery_ranks, k, (col_ranks[t],))]
        if chosen:
            if len(chosen) < k:
                chosen = [chosen[i] for i in _replicate(len(chosen), k, seed, probe, target)]
            nodes.append(list(zip((probe_row, t), *chosen)))
    return np.array(nodes, dtype=int).reshape(-1, 2, k + 1)
