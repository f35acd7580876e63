"""Retrieval evaluation: per-query ranking, average precision, mAP/top-1,
and gallery-size sweeps.

Galleries are sampled at scene level with every positive scene forced in,
so each retained query has at least one relevant entry. Score ties break
lexicographically by instance id to keep runs deterministic.
"""

from __future__ import annotations

import io
import zlib
from dataclasses import dataclass

import numpy as np

from .embeddings import Instance, Scene, labeled_pairs
from .errors import ConfigError, DataError

__all__ = [
    "RankedResult",
    "EvalReport",
    "NoRelevantError",
    "average_precision",
    "rank_gallery",
    "select_queries",
    "evaluate",
    "gallery_sweep",
    "check_gallery_size",
    "reports_csv",
]


class NoRelevantError(DataError):
    """A relevance list with no relevant entry; such queries are excluded."""


@dataclass(frozen=True)
class RankedResult:
    query: Instance
    ranked: tuple  # ((Instance, score), ...) by descending score
    relevance: tuple  # per-entry booleans


@dataclass(frozen=True)
class EvalReport:
    scorer: str
    gallery_size: int
    map: float
    top1: float
    per_query_ap: tuple
    num_queries: int
    excluded_queries: int


def average_precision(relevance) -> float:
    """Mean of precision@k over the relevant ranks."""
    relevance = [bool(r) for r in relevance]
    n_rel = sum(relevance)
    if n_rel == 0:
        raise NoRelevantError("relevance list has no relevant entry")
    total = 0.0
    hits = 0
    for k, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            total += hits / k
    return total / n_rel


def rank_gallery(query: Instance, gallery_scenes, scorer, probe_scene: Scene) -> RankedResult:
    """Score every instance of the gallery scenes against the query and rank.
    A scorer without ``score_gallery`` is called once per scene through
    ``score_scene``."""
    if hasattr(scorer, "score_gallery"):
        scored = scorer.score_gallery(probe_scene, query, gallery_scenes)
    else:
        scored = [e for scene in gallery_scenes for e in scorer.score_scene(probe_scene, query, scene)]
    entries = [(inst, float(score)) for inst, score in scored]
    entries.sort(key=lambda e: (-e[1], e[0].instance_id))
    relevance = tuple(
        inst.identity is not None and inst.identity == query.identity for inst, _ in entries
    )
    return RankedResult(query=query, ranked=tuple(entries), relevance=relevance)


def select_queries(scenes, max_queries: int = None, seed: int = 0):
    """Labeled instances in some cross-scene same-identity pair of
    ``labeled_pairs``.

    Returns (probe_scene, instance) tuples in deterministic order, optionally
    subsampled with a seeded generator.
    """
    matched = {inst.instance_id for pair in labeled_pairs(scenes)[1] for inst in pair}
    queries = [(s, inst) for s in sorted(scenes, key=lambda s: s.scene_id)
               for inst in sorted(s.instances, key=lambda i: i.instance_id) if inst.instance_id in matched]
    if max_queries is not None and len(queries) > max_queries:
        rng = np.random.default_rng((seed, 0x9E1))
        idx = rng.choice(len(queries), size=max_queries, replace=False)
        queries = [queries[i] for i in sorted(idx)]
    return queries


def _sample_gallery(query: Instance, probe_scene: Scene, scenes, gallery_size: int, seed: int):
    """Positive scenes forced in, seeded distractors fill up to gallery_size.
    One pass over the other scenes splits them, each list in corpus order."""
    if query.identity is None:
        return None
    positives, distractors = [], []
    for s in scenes:
        if s.scene_id != probe_scene.scene_id:
            (positives if query.identity in [i.identity for i in s.instances] else distractors).append(s)
    if not positives:
        return None
    n_fill = max(0, gallery_size - len(positives))
    if n_fill < len(distractors):
        rng = np.random.default_rng((seed, zlib.crc32(query.instance_id.encode())))
        idx = rng.choice(len(distractors), size=n_fill, replace=False)
        distractors = [distractors[i] for i in sorted(idx)]
    return positives + distractors


def check_gallery_size(gallery_size: int, scenes) -> None:
    if gallery_size < 1:
        raise ConfigError(f"gallery_size must be >= 1, got {gallery_size}")
    if gallery_size > len(scenes) - 1:  # a query's gallery leaves out the probe's own scene
        raise ConfigError(f"gallery_size {gallery_size} exceeds corpus of {len(scenes)} scenes less the probe's own")


def evaluate(queries, scenes, scorer, gallery_size: int, seed: int = 0) -> EvalReport:
    """mAP and top-1 over seeded scene-level galleries.

    ``queries`` holds (probe_scene, instance) tuples; queries without any
    cross-scene positive are counted as excluded, never silently dropped.
    """
    check_gallery_size(gallery_size, scenes)
    aps = []
    top1_hits = 0
    excluded = 0
    for probe_scene, query in queries:
        gallery = _sample_gallery(query, probe_scene, scenes, gallery_size, seed)
        if gallery is None:
            excluded += 1
            continue
        result = rank_gallery(query, gallery, scorer, probe_scene)
        try:
            aps.append(average_precision(result.relevance))
        except NoRelevantError:
            excluded += 1
            continue
        if result.relevance and result.relevance[0]:
            top1_hits += 1
    if not aps:
        raise DataError("no evaluable queries (all excluded)")
    return EvalReport(
        scorer=getattr(scorer, "name", type(scorer).__name__),
        gallery_size=gallery_size,
        map=float(np.mean(aps)),
        top1=top1_hits / len(aps),
        per_query_ap=tuple(aps),
        num_queries=len(aps),
        excluded_queries=excluded,
    )


def gallery_sweep(sizes, queries, scenes, scorer, seed: int = 0):
    """One EvalReport per gallery size; every size is checked before any query is ranked."""
    for size in sizes:
        check_gallery_size(size, scenes)
    return [evaluate(queries, scenes, scorer, size, seed=seed) for size in sizes]


def reports_csv(reports) -> str:
    out = io.StringIO()
    out.write("scorer,gallery_size,map,top1,num_queries,excluded_queries\n")
    for r in reports:
        out.write(
            f"{r.scorer},{r.gallery_size},{r.map:.6f},{r.top1:.6f},{r.num_queries},{r.excluded_queries}\n"
        )
    return out.getvalue()
