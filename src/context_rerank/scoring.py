"""Scorer implementations shared by evaluation and the CLI.

A scorer exposes ``name`` and ``score_scene(probe_scene, probe,
gallery_scene)`` yielding (instance, score) for every person in the
gallery scene. Frozen-parameter scorers are pure, so queries can be
processed concurrently.
"""

from __future__ import annotations

import zlib

import numpy as np

from .attention import AttentionParams, attention_weights_batch, order_pair, pair_descriptor
from .embeddings import Instance, Scene, cosine_matrix, uniform_weights
from .errors import UsageError
from .expansion import expand
from .graph import GcnParams, build_graph, gcn_score_batch, normalize_adjacency, star_adjacency
from .siamese import SiameseParams, side_matrices, siamese_score_batch

SCORER_NAMES = ("uniform", "attention", "graph", "siamese", "oracle", "random")


class UniformScorer:
    """Mean of the four part cosines (fixed 0.25 weights)."""

    name = "uniform"

    def pair_score(self, a: Instance, b: Instance) -> float:
        cos = cosine_matrix([a.embedding], [b.embedding])[0, 0]
        return float(cos @ uniform_weights())

    def score_scene(self, probe_scene, probe, gallery_scene):
        insts = list(gallery_scene.instances)
        if not insts:
            return []
        cos = cosine_matrix([probe.embedding], [i.embedding for i in insts])[0]
        scores = cos @ uniform_weights()
        return list(zip(insts, scores))


class AttentionScorer:
    """Part fusion with weights predicted by the relative attention head."""

    name = "attention"

    def __init__(self, params: AttentionParams):
        self.params = params

    def pair_score(self, a: Instance, b: Instance) -> float:
        return self.pair_matrix([a], [b])[0, 0]

    def pair_matrix(self, probe_insts, gallery_insts) -> np.ndarray:
        """All cross-pair similarities, canonical pair order applied per pair."""
        if not probe_insts or not gallery_insts:
            return np.zeros((len(probe_insts), len(gallery_insts)))
        cos = cosine_matrix(
            [i.embedding for i in probe_insts], [i.embedding for i in gallery_insts]
        )  # (na, nb, 4)
        descs = []
        for a in probe_insts:
            for b in gallery_insts:
                ea, eb = order_pair(a.embedding, b.embedding)
                descs.append(pair_descriptor(ea, eb))
        weights = attention_weights_batch(self.params, np.stack(descs))
        weights = weights.reshape(len(probe_insts), len(gallery_insts), -1)
        return np.einsum("ijr,ijr->ij", cos, weights)

    def score_scene(self, probe_scene, probe, gallery_scene):
        insts = list(gallery_scene.instances)
        if not insts:
            return []
        return list(zip(insts, self.pair_matrix([probe], insts)[0]))

    def scene_scorer(self, scenes):
        """A pair scorer for ``expand`` over the persons of ``scenes``. The
        first lookup in a scene pair scores every cross pair of the two
        scenes in one ``pair_matrix`` call; later lookups reuse it."""
        scene_of = {s.scene_id: s for s in scenes}
        tables = {}

        def score(a, b):
            key = (a.scene_id, b.scene_id)
            if key not in tables:
                rows, cols = scene_of[a.scene_id].instances, scene_of[b.scene_id].instances
                tables[key] = (
                    {i.instance_id: r for r, i in enumerate(rows)},
                    {i.instance_id: c for c, i in enumerate(cols)},
                    self.pair_matrix(list(rows), list(cols)),
                )
            row, col, sim = tables[key]
            return sim[row[a.instance_id], col[b.instance_id]]

        return score


class _ContextScorerBase:
    """Shared expansion machinery for the graph-based scorers."""

    def __init__(self, attn_params: AttentionParams, k: int = 3, seed: int = 0,
                 node_feat: str = "whole", norm: str = "sym"):
        self.attn = AttentionScorer(attn_params)
        self.k = k
        self.seed = seed
        self.node_feat = node_feat
        self.norm = norm

    def _expansions(self, probe_scene, probe, gallery_scene):
        """One ExpandedPair per gallery instance, reusing a single pairwise
        attention-similarity matrix for the scene pair."""
        insts = list(gallery_scene.instances)
        scorer = self.attn.scene_scorer((probe_scene, gallery_scene))
        expansions = [
            expand(probe_scene, probe, gallery_scene, target, scorer, k=self.k, seed=self.seed)
            for target in insts
        ]
        return insts, expansions

    def _fallback(self, probe, target) -> float:
        return (self.attn.pair_score(probe, target) + 1.0) / 2.0


class GraphScorer(_ContextScorerBase):
    """Paired-node star graph GCN match probability."""

    name = "graph"

    def __init__(self, attn_params, gcn_params: GcnParams, **kw):
        super().__init__(attn_params, **kw)
        self.gcn = gcn_params

    def pair_score(self, probe_scene, probe, gallery_scene, target) -> float:
        for inst, score in self.score_scene(probe_scene, probe, gallery_scene):
            if inst.instance_id == target.instance_id:
                return score
        raise UsageError(f"{target.instance_id} not in scene {gallery_scene.scene_id}")

    def score_scene(self, probe_scene, probe, gallery_scene):
        insts, expansions = self._expansions(probe_scene, probe, gallery_scene)
        scores = np.zeros(len(insts))
        batch, batch_idx = [], []
        a_hat = None
        for i, (target, ep) in enumerate(zip(insts, expansions)):
            if ep.degenerate:
                scores[i] = self._fallback(probe, target)
            else:
                g = build_graph(ep, node_feat=self.node_feat, norm=self.norm)
                a_hat = g.norm_adjacency
                batch.append(g.x)
                batch_idx.append(i)
        if batch:
            scores[batch_idx] = gcn_score_batch(self.gcn, a_hat, np.stack(batch))
        return list(zip(insts, scores))


class SiameseScorer(_ContextScorerBase):
    """Two shared-weight per-image graphs, concatenated readouts."""

    name = "siamese"

    def __init__(self, attn_params, siamese_params: SiameseParams, **kw):
        super().__init__(attn_params, **kw)
        self.siamese = siamese_params

    def score_scene(self, probe_scene, probe, gallery_scene):
        insts, expansions = self._expansions(probe_scene, probe, gallery_scene)
        scores = np.zeros(len(insts))
        batch_a, batch_b, batch_idx = [], [], []
        for i, (target, ep) in enumerate(zip(insts, expansions)):
            if ep.degenerate:
                scores[i] = self._fallback(probe, target)
            else:
                xa, xb = side_matrices(ep, self.node_feat)
                batch_a.append(xa)
                batch_b.append(xb)
                batch_idx.append(i)
        if batch_a:
            a_hat = normalize_adjacency(star_adjacency(batch_a[0].shape[0]), self.norm)
            scores[batch_idx] = siamese_score_batch(
                self.siamese, a_hat, np.stack(batch_a), np.stack(batch_b)
            )
        return list(zip(insts, scores))


class OracleScorer:
    """Ground-truth identity scorer; the evaluation upper bound."""

    name = "oracle"

    def score_scene(self, probe_scene, probe, gallery_scene):
        return [
            (i, 1.0 if (i.identity is not None and i.identity == probe.identity) else 0.0)
            for i in gallery_scene.instances
        ]


class RandomScorer:
    """Seeded per-pair uniform scores; the evaluation chance baseline."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def score_scene(self, probe_scene, probe, gallery_scene):
        out = []
        for i in gallery_scene.instances:
            tag = f"{probe.instance_id}|{i.instance_id}".encode()
            rng = np.random.default_rng((self.seed, zlib.crc32(tag)))
            out.append((i, float(rng.random())))
        return out
