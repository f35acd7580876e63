"""Scorer implementations shared by evaluation and the CLI.

A scorer exposes ``name`` and ``score_gallery(probe_scene, probe,
gallery_scenes)``, which returns (instance, score) for every person of the
gallery: scene order, then instance order within each scene.
``score_scene(probe_scene, probe, gallery_scene)`` is the same for one
scene. Scorers do not change their parameters, and the same sequence of
calls gives the same bits. The attention scorer keeps a memo of the last
probe side, which a call replaces whole and never edits; a score computed
from the memo can differ from a fresh scorer's in the last bits, because
BLAS groups the rows differently (``test_probe_memo_matches_fresh_scorer``
bounds the difference at 1e-12).
"""

from __future__ import annotations

import operator

import numpy as np

from .attention import AttentionParams, attention_head, slot_projections
from .autodiff import Tensor
from .embeddings import Instance, cosine_matrix, uniform_weights
from .errors import UsageError
from .expansion import member_index, pair_rng, scene_contexts
from .graph import GcnParams, gcn_score_batch, node_features

SCORER_NAMES = ("uniform", "attention", "graph", "siamese", "oracle", "random")


def _persons(gallery_scenes) -> list:
    return [i for scene in gallery_scenes for i in scene.instances]


class Scorer:
    """The scorer protocol: subclasses define ``name`` and ``score_gallery``.
    A subclass whose ``score_scene`` the benchmark traces repeats
    ``score_scene = Scorer.score_scene`` in its own body, where the tracer
    looks for it."""

    def score_scene(self, probe_scene, probe, gallery_scene):
        return self.score_gallery(probe_scene, probe, [gallery_scene])


class UniformScorer(Scorer):
    """Mean of the four part cosines (fixed 0.25 weights)."""

    name = "uniform"
    score_scene = Scorer.score_scene

    def score_gallery(self, probe_scene, probe, gallery_scenes):
        insts = _persons(gallery_scenes)
        if not insts:
            return []
        cos = cosine_matrix([probe.embedding], [i.embedding for i in insts])[0]
        return list(zip(insts, cos @ uniform_weights()))


class AttentionScorer(Scorer):
    """Part fusion with weights predicted by the relative attention head.

    The scorer keeps first-layer products of the last probe side, so its
    parameters must not change while it is in use.
    """

    name = "attention"
    score_scene = Scorer.score_scene

    def __init__(self, params: AttentionParams):
        self.params = params
        # the last probe side: (persons, (n, R, d) parts, keys, (2n, hidden)
        # first-slot then second-slot rows plus b1); replaced, never changed
        self._probe_side = None

    def pair_score(self, a: Instance, b: Instance) -> float:
        return self.pair_matrix([a], [b])[0, 0]

    def pair_matrix(self, probe_insts, gallery_insts) -> np.ndarray:
        """All cross-pair similarities, canonical pair order applied per pair.

        The first layer runs once per (person, slot) row, in one product
        with ``w1`` per call, and a pair's pre-activation sums the rows of
        its two persons. A gallery person gets rows only for the slots its
        pairs use. The probe side's parts, keys and rows for both slots are
        kept for the next call with the same persons (the same objects).
        """
        n_p, n_g = len(probe_insts), len(gallery_insts)
        if not n_p or not n_g:
            return np.zeros((n_p, n_g))
        side = self._probe_side
        if side is None or len(side[0]) != n_p or not all(map(operator.is_, side[0], probe_insts)):
            side = None
            probe_parts = np.array([i.embedding.parts for i in probe_insts])
            probe_keys = [i.embedding.key() for i in probe_insts]
        else:
            _, probe_parts, probe_keys, probe_rows = side
        parts = np.array([i.embedding.parts for i in gallery_insts])
        gallery_keys = [i.embedding.key() for i in gallery_insts]
        # order_pair: the probe takes the first slot where its key is not the larger
        first = [[pk <= gk for gk in gallery_keys] for pk in probe_keys]
        # a gallery person gets a row for each slot its pairs use
        slots = [(not all(col), any(col)) for col in zip(*first)]
        first_rows = [j for j, (f, _) in enumerate(slots) if f]
        second_rows = [j for j, (_, s) in enumerate(slots) if s]
        if side is None:
            # rows: probe first slot, gallery first slot, gallery second slot, probe second slot
            proj = slot_projections(self.params, np.concatenate([probe_parts, parts[first_rows]]),
                                    np.concatenate([parts[second_rows], probe_parts]))
            probe_rows = np.concatenate([proj[:n_p], proj[-n_p:]]) + self.params.b1.data.reshape(-1)
            self._probe_side = (tuple(probe_insts), probe_parts, probe_keys, probe_rows)
            proj = proj[n_p:-n_p]
        else:
            proj = slot_projections(self.params, parts[first_rows], parts[second_rows])
        # each pair's gallery row in proj, and its probe row (person i in the
        # first slot is row i, in the second row n_p + i)
        in_first = {j: n for n, j in enumerate(first_rows)}
        in_second = {j: n for n, j in enumerate(second_rows, len(first_rows))}
        gallery_idx = [in_second[j] if f else in_first[j] for row in first for j, f in enumerate(row)]
        probe_idx = [i if f else n_p + i for i, row in enumerate(first) for f in row]
        pre = proj.take(gallery_idx, axis=0)
        del proj  # at most two (pairs, hidden) arrays alive at once
        pre += probe_rows.take(probe_idx, axis=0)
        weights = attention_head(self.params, Tensor(pre)).data.reshape(n_p, n_g, -1)
        cos = np.einsum("ird,jrd->ijr", probe_parts, parts)
        return np.einsum("ijr,ijr->ij", cos, weights)

    def score_gallery(self, probe_scene, probe, gallery_scenes):
        """One ``pair_matrix`` of the probe against every gallery person."""
        insts = _persons(gallery_scenes)
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
                    self.pair_matrix(rows, cols),
                )
            row, col, sim = tables[key]
            return sim[row[a.instance_id], col[b.instance_id]]

        return score


class _ContextScorerBase(Scorer):
    """Shared expansion machinery of the graph-based scorers: every target
    gets its K context pairs, and ``gcn_score_batch`` runs ``params``' model
    on them. ``k=None`` takes K from the parameters' shapes, which also fix
    Â; another K fails in the readout's width check."""

    def __init__(self, attn_params: AttentionParams, params: GcnParams, k: int = None, seed: int = 0):
        k = params.n_nodes - 1 if k is None else k
        if k < 1:
            raise UsageError(f"context K must be >= 1, got {k}")
        self.attn = AttentionScorer(attn_params)
        self.params = params
        self.k = k
        self.seed = seed

    def score_gallery(self, probe_scene, probe, gallery_scenes):
        return [e for scene in gallery_scenes for e in self._score_targets(probe_scene, probe, scene)]

    def _score_targets(self, probe_scene, probe, gallery_scene):
        """Score every person of one gallery scene. Targets with context go
        to ``gcn_score_batch`` as stacked (B, K+1, f) probe-side and
        gallery-side node features; targets without context fall back to
        the rescaled pair similarity. One attention-similarity matrix of
        the scene pair serves the context choice of every target and the
        fallback. The probe is the person of ``probe_scene`` with its id."""
        insts = gallery_scene.instances
        if not insts:
            return []
        row = member_index(probe_scene, probe, "probe")
        table = self.attn.pair_matrix(probe_scene.instances, insts)
        n_p = len(probe_scene.instances)
        feats = node_features((*probe_scene.instances, *insts))
        scores = np.empty(len(insts))
        batch, side_a, side_b = [], [], []
        for t, chosen in enumerate(scene_contexts(table, probe_scene, row, gallery_scene, self.k, self.seed)):
            if chosen is None:
                scores[t] = (table[row, t] + 1.0) / 2.0
            else:
                batch.append(t)
                side_a.append([row] + [p for p, _ in chosen])
                side_b.append([n_p + t] + [n_p + g for _, g in chosen])
        if batch:
            xa, xb = feats[np.array(side_a)], feats[np.array(side_b)]
            scores[batch] = gcn_score_batch(self.params, xa, xb)
        return list(zip(insts, scores))


class GraphScorer(_ContextScorerBase):
    """Paired-node star graph GCN match probability."""

    name = "graph"
    score_scene = Scorer.score_scene


class SiameseScorer(_ContextScorerBase):
    """Two shared-weight per-image graphs, concatenated readouts."""

    name = "siamese"


class OracleScorer(Scorer):
    """Ground-truth identity scorer; the evaluation upper bound."""

    name = "oracle"

    def score_gallery(self, probe_scene, probe, gallery_scenes):
        return [
            (i, 1.0 if (i.identity is not None and i.identity == probe.identity) else 0.0)
            for i in _persons(gallery_scenes)
        ]


class RandomScorer(Scorer):
    """Seeded per-pair uniform scores; the evaluation chance baseline."""

    name = "random"

    def __init__(self, seed: int = 0):
        self.seed = seed

    def score_gallery(self, probe_scene, probe, gallery_scenes):
        return [(i, float(pair_rng(self.seed, probe, i).random())) for i in _persons(gallery_scenes)]
