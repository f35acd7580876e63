"""Scorer implementations shared by evaluation and the CLI.

A scorer exposes ``name`` and ``score_gallery(probe_scene, probe,
gallery_scenes)``, which returns (instance, score) for every person of the
gallery: scene order, then instance order within each scene.
``score_scene(probe_scene, probe, gallery_scene)`` is the same for one
scene. Scorers do not change their parameters, and a score depends only on
the call's inputs: the same call gives the same bits, whatever came before
it. The attention scorer splits ``w1`` into its two slot halves when it
is built and sums two first-layer rows per pair: a probe gets both of its
slot rows, and a gallery person only the rows of the slots its pairs put it
in, so against one probe it gets one. The scorer keeps the rows of the last
probe side, which a call replaces whole and never edits, and computes them
in the same product whether it keeps them or not.
"""

from __future__ import annotations

import operator

import numpy as np

from .attention import AttentionParams, attention_head, slot_halves, slot_rows
from .autodiff import Tensor
from .embeddings import Instance, cosine_matrix, uniform_weights
from .errors import ConfigError, UsageError
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

    The scorer splits ``w1`` when it is built and keeps first-layer products
    of the last probe side, so its parameters must not change while it is
    in use.
    """

    name = "attention"
    score_scene = Scorer.score_scene

    def __init__(self, params: AttentionParams):
        self.params = params
        self._halves = slot_halves(params)
        # the last probe side: (persons, (n, R, d) parts, keys, (2, n, hidden)
        # first-slot and second-slot rows plus b1); replaced, never changed
        self._probe_side = None

    def pair_score(self, a: Instance, b: Instance) -> float:
        return self.pair_matrix([a], [b])[0, 0]

    def pair_matrix(self, probe_insts, gallery_insts) -> np.ndarray:
        """All cross-pair similarities, canonical pair order applied per pair.

        A pair's first-layer pre-activation sums one row of each of its two
        persons: the first-slot row of the key-smaller one and the
        second-slot row of the other. Each probe gets both rows. A gallery
        person gets its second-slot row only if some probe's key is not
        larger than its own, and its first-slot row only if some probe's key
        is larger, so each half of ``w1`` multiplies only the gallery
        persons some pair puts in its slot. The probe side's rows are kept
        with its parts and keys for the next call with the same persons (the
        same objects). A kept probe side and a fresh one are the same
        product, so a call gives the same bits whatever came before it.
        """
        n_p, n_g = len(probe_insts), len(gallery_insts)
        if not n_p or not n_g:
            return np.zeros((n_p, n_g))
        side = self._probe_side
        if side is None or len(side[0]) != n_p or not all(map(operator.is_, side[0], probe_insts)):
            probe_parts = np.array([i.embedding.parts for i in probe_insts])
            probe_rows = slot_rows(self._halves, probe_parts) + self.params.b1.data.reshape(-1)
            side = self._probe_side = (tuple(probe_insts), probe_parts,
                                       [i.embedding.key() for i in probe_insts], probe_rows)
        _, probe_parts, probe_keys, probe_rows = side
        parts = np.array([i.embedding.parts for i in gallery_insts])
        # order_pair: the probe takes the first slot where its key is not the larger
        gallery_keys = [i.embedding.key() for i in gallery_insts]
        first = np.array([[pk <= gk for gk in gallery_keys] for pk in probe_keys])
        pre = np.empty((n_p, n_g, self._halves.shape[2]))
        for slot, pairs in ((1, first), (0, ~first)):
            need = pairs.any(axis=0)
            if need.all():
                rows = slot_rows(self._halves[slot], parts)
            elif need.any():
                rows = np.empty(pre.shape[1:])
                rows[need] = slot_rows(self._halves[slot], parts[need])
            else:
                continue
            # the gallery person in this slot pairs with the probe's row of the other
            np.add(rows, probe_rows[1 - slot][:, None], out=pre, where=pairs[..., None])
        weights = attention_head(self.params, Tensor(pre.reshape(n_p * n_g, -1))).data.reshape(n_p, n_g, -1)
        cos = np.einsum("ird,jrd->ijr", probe_parts, parts)
        return np.einsum("ijr,ijr->ij", cos, weights)

    def score_gallery(self, probe_scene, probe, gallery_scenes):
        """One ``pair_matrix`` of the probe against every gallery person."""
        insts = _persons(gallery_scenes)
        return list(zip(insts, self.pair_matrix([probe], insts)[0]))


class _ContextScorerBase(Scorer):
    """Shared expansion machinery of the graph-based scorers: every target
    gets its K context pairs, and ``gcn_score_batch`` runs ``params``' model
    on them. K comes from the parameters' shapes, which also fix Â; a ``k``
    that does not fit them is refused here, before any scoring."""

    def __init__(self, attn_params: AttentionParams, params: GcnParams, k: int = None, seed: int = 0):
        if k is not None and k + 1 != params.n_nodes:
            raise ConfigError(f"context K={k} gives graphs of {k + 1} nodes but the readout expects {params.n_nodes}")
        if params.n_nodes < 2:
            raise UsageError(f"context K must be >= 1, got {params.n_nodes - 1}")
        self.attn = AttentionScorer(attn_params)
        self.params = params
        self.k = params.n_nodes - 1
        self.seed = seed

    def score_gallery(self, probe_scene, probe, gallery_scenes):
        return [e for scene in gallery_scenes for e in self._score_targets(probe_scene, probe, scene)]

    def _score_targets(self, probe_scene, probe, gallery_scene):
        """Score every person of one gallery scene. The targets that have
        context go to ``gcn_score_batch`` with the node features the
        ``scene_contexts`` node rows pick from the two scenes; the others
        fall back to the rescaled pair similarity. One attention-similarity
        matrix of the scene pair serves the context choice of every target
        and the fallback. The probe is the person of ``probe_scene`` with its id."""
        insts = gallery_scene.instances
        if not insts:
            return []
        row = member_index(probe_scene, probe, "probe")
        table = self.attn.pair_matrix(probe_scene.instances, insts)
        scores = (table[row] + 1.0) / 2.0
        nodes = scene_contexts(table, probe_scene, row, gallery_scene, self.k, self.seed)
        if len(nodes):
            scores[nodes[:, 1, 0]] = gcn_score_batch(self.params, node_features(probe_scene.instances)[nodes[:, 0]],
                                                     node_features(insts)[nodes[:, 1]])
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
