import numpy as np
import pytest

from context_rerank.attention import attention_weights_batch, init_attention_params, order_pair, pair_descriptor
from context_rerank.embeddings import (
    Instance,
    PartEmbedding,
    Scene,
    fused_similarity,
    uniform_weights,
)
from context_rerank.evaluation import rank_gallery
from context_rerank.expansion import expand
from context_rerank.graph import (
    build_graph,
    gcn_forward,
    gcn_score_batch,
    init_gcn_params,
)
from context_rerank.scoring import (
    SCORER_NAMES,
    AttentionScorer,
    GraphScorer,
    OracleScorer,
    RandomScorer,
    SiameseScorer,
    UniformScorer,
)
from context_rerank.siamese import init_siamese_params


def make_instance(iid, scene_id, identity=None, d=8):
    rng = np.random.default_rng(abs(hash(iid)) % 2**32)
    parts = rng.standard_normal((4, d))
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    return Instance(iid, scene_id, (0, 0, 10, 20), identity, PartEmbedding.from_array(parts))


def make_scene(scene_id, ids, identities=None):
    identities = identities or [None] * len(ids)
    return Scene(
        scene_id, "cam0", tuple(make_instance(i, scene_id, ident) for i, ident in zip(ids, identities))
    )


def reference_expansion(attn, ps, probe, gs, target, k, seed):
    """One target's expansion with single-pair attention lookups, and the
    rescaled pair similarity used when it has no context."""
    scorer = AttentionScorer(attn)
    ep = expand(ps, probe, gs, target, scorer.pair_score, k=k, seed=seed)
    return ep, (scorer.pair_score(probe, target) + 1.0) / 2.0


def reference_graph_score(attn, gcn, ps, probe, gs, target, k, seed):
    """One target at a time: expand, build its graph, run the GCN on it."""
    ep, fallback = reference_expansion(attn, ps, probe, gs, target, k, seed)
    return fallback if ep.degenerate else gcn_forward(gcn, build_graph(ep))[1]


def reference_siamese_score(attn, siam, ps, probe, gs, target, k, seed):
    """One target at a time: expand, stack each side's whole-body features,
    run the siamese model on the pair of graphs."""
    ep, fallback = reference_expansion(attn, ps, probe, gs, target, k, seed)
    if ep.degenerate:
        return fallback
    pairs = [ep.target] + [(c.probe_ctx, c.gallery_ctx) for c in ep.contexts]
    xa = np.stack([a.embedding.parts[0] for a, _ in pairs])
    xb = np.stack([b.embedding.parts[0] for _, b in pairs])
    return float(gcn_score_batch(siam, xa[None], xb[None])[0])


@pytest.fixture()
def scene_pair():
    probe_scene = make_scene("sp", ["p0", "p1", "p2"], identities=[1, 2, 3])
    gallery_scene = make_scene("sg", ["g0", "g1", "g2"], identities=[1, 4, 5])
    return probe_scene, gallery_scene


class TestUniformScorer:
    def test_matches_fused_similarity(self, scene_pair):
        ps, gs = scene_pair
        probe = ps.instances[0]
        for inst, score in UniformScorer().score_scene(ps, probe, gs):
            expected = fused_similarity(probe.embedding, inst.embedding, uniform_weights())
            assert score == pytest.approx(expected, abs=1e-12)

    def test_empty_scene(self, scene_pair):
        ps, _ = scene_pair
        empty = Scene("se", "cam1", ())
        assert UniformScorer().score_scene(ps, ps.instances[0], empty) == []


class TestAttentionScorer:
    def test_matches_single_pair_path(self, scene_pair):
        ps, gs = scene_pair
        params = init_attention_params(np.random.default_rng(0), 8, hidden=6)
        scorer = AttentionScorer(params)
        probe = ps.instances[0]
        for inst, score in scorer.score_scene(ps, probe, gs):
            a, b = order_pair(probe.embedding, inst.embedding)
            w = attention_weights_batch(params, pair_descriptor(a, b)[None])[0]
            expected = fused_similarity(probe.embedding, inst.embedding, w)
            assert score == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("n_probe, n_gallery", [(1, 4), (4, 1), (3, 5)])
    def test_pair_matrix_matches_descriptor_reference(self, n_probe, n_gallery):
        params = init_attention_params(np.random.default_rng(8), 8, hidden=16)
        probes = [make_instance(f"mp{i}", "sp") for i in range(n_probe)]
        gallery = [make_instance(f"mg{i}", "sg") for i in range(n_gallery)]
        # identical embeddings: the first gallery person is a copy of the last probe
        gallery[0] = Instance("copy", "sg", (0, 0, 10, 20), None, probes[-1].embedding)
        m = AttentionScorer(params).pair_matrix(probes, gallery)
        assert m.shape == (n_probe, n_gallery)
        for i, p in enumerate(probes):
            for j, g in enumerate(gallery):
                w = attention_weights_batch(params, pair_descriptor(*order_pair(p.embedding, g.embedding))[None])[0]
                assert m[i, j] == pytest.approx(fused_similarity(p.embedding, g.embedding, w), abs=1e-12)

    def test_probe_memo_matches_fresh_scorer(self, scene_pair):
        # one scorer alternating two probe scenes, then a scene with the same
        # ids as the first but other embeddings (a second dataset)
        ps, gs = scene_pair
        params = init_attention_params(np.random.default_rng(9), 8, hidden=16)
        other = make_scene("so", ["o0", "o1"])
        twin = Scene("sp", "cam0", tuple(
            Instance(i.instance_id, "sp", i.box, i.identity, make_instance(i.instance_id + "'", "sp").embedding)
            for i in ps.instances))
        scorer = AttentionScorer(params)
        for probes in (ps.instances, other.instances, ps.instances, [ps.instances[1]], twin.instances, ps.instances):
            for gallery in (gs.instances, other.instances):
                expected = AttentionScorer(params).pair_matrix(probes, gallery)
                assert np.allclose(scorer.pair_matrix(probes, gallery), expected, rtol=0.0, atol=1e-12)

    def test_pair_matrix_shape_and_symmetry(self, scene_pair):
        ps, gs = scene_pair
        params = init_attention_params(np.random.default_rng(1), 8, hidden=6)
        scorer = AttentionScorer(params)
        m = scorer.pair_matrix(list(ps.instances), list(gs.instances))
        assert m.shape == (3, 3)
        m_t = scorer.pair_matrix(list(gs.instances), list(ps.instances))
        assert np.allclose(m, m_t.T, atol=1e-12)


class TestGraphScorer:
    def test_matches_per_target_reference(self, scene_pair):
        ps, gs = scene_pair
        rng = np.random.default_rng(2)
        attn = init_attention_params(rng, 8, hidden=6)
        gcn = init_gcn_params(rng, 3, 16, readout_dim=5)
        scorer = GraphScorer(attn, gcn, k=2, seed=7)
        probe = ps.instances[0]
        for inst, score in scorer.score_scene(ps, probe, gs):
            expected = reference_graph_score(attn, gcn, ps, probe, gs, inst, k=2, seed=7)
            assert score == pytest.approx(expected, abs=1e-12)

    def test_one_attention_table_per_scene(self, scene_pair):
        # the context choice and the degenerate fallback both read the one
        # similarity table of the scene pair
        ps, gs = scene_pair
        rng = np.random.default_rng(5)
        attn = init_attention_params(rng, 8, hidden=6)
        scorer = GraphScorer(attn, init_gcn_params(rng, 3, 16, readout_dim=5), k=2, seed=0)
        tables = []
        pair_matrix = scorer.attn.pair_matrix
        scorer.attn.pair_matrix = lambda a, b: tables.append((len(a), len(b))) or pair_matrix(a, b)
        single = make_scene("s1", ["x0"])
        scorer.score_scene(ps, ps.instances[0], gs)
        scorer.score_scene(single, single.instances[0], gs)
        assert tables == [(3, 3), (1, 3)]

    def test_degenerate_gallery_uses_fallback(self):
        ps = make_scene("sp", ["p0"])
        gs = make_scene("sg", ["g0"])
        rng = np.random.default_rng(3)
        attn = init_attention_params(rng, 8, hidden=6)
        gcn = init_gcn_params(rng, 3, 16, readout_dim=5)
        scorer = GraphScorer(attn, gcn, k=2, seed=0)
        [(inst, score)] = scorer.score_scene(ps, ps.instances[0], gs)
        expected = (AttentionScorer(attn).pair_score(ps.instances[0], inst) + 1.0) / 2.0
        assert score == pytest.approx(expected, abs=1e-12)


class TestSiameseScorer:
    def test_matches_per_target_reference(self, scene_pair):
        ps, gs = scene_pair
        rng = np.random.default_rng(4)
        attn = init_attention_params(rng, 8, hidden=6)
        siam = init_siamese_params(rng, 3, 8, readout_dim=5)
        scorer = SiameseScorer(attn, siam, k=2, seed=7)
        probe = ps.instances[0]
        for inst, score in scorer.score_scene(ps, probe, gs):
            expected = reference_siamese_score(attn, siam, ps, probe, gs, inst, k=2, seed=7)
            assert score == pytest.approx(expected, abs=1e-12)


class TestOracleAndRandom:
    def test_oracle_scores(self, scene_pair):
        ps, gs = scene_pair
        scores = dict(
            (i.instance_id, s)
            for i, s in OracleScorer().score_scene(ps, ps.instances[0], gs)
        )
        assert scores == {"g0": 1.0, "g1": 0.0, "g2": 0.0}

    def test_oracle_ignores_unlabeled(self):
        ps = make_scene("sp", ["p0"], identities=[None])
        gs = make_scene("sg", ["g0"], identities=[None])
        [(_, score)] = OracleScorer().score_scene(ps, ps.instances[0], gs)
        assert score == 0.0

    def test_random_is_seed_stable_and_order_free(self, scene_pair):
        ps, gs = scene_pair
        scorer = RandomScorer(seed=5)
        s1 = scorer.score_scene(ps, ps.instances[0], gs)
        s2 = scorer.score_scene(ps, ps.instances[0], gs)
        assert [(i.instance_id, s) for i, s in s1] == [(i.instance_id, s) for i, s in s2]
        assert RandomScorer(seed=6).score_scene(ps, ps.instances[0], gs) != s1


def build_scorer(name, attn_class=AttentionScorer):
    rng = np.random.default_rng(11)
    attn = init_attention_params(rng, 8, hidden=16)
    if name == "graph":
        return GraphScorer(attn, init_gcn_params(rng, 3, 16, readout_dim=5), k=2, seed=7)
    if name == "siamese":
        return SiameseScorer(attn, init_siamese_params(rng, 3, 8, readout_dim=5), k=2, seed=7)
    return {"uniform": UniformScorer, "attention": lambda: attn_class(attn), "oracle": OracleScorer,
            "random": lambda: RandomScorer(seed=3)}[name]()


def gallery_with_empty_scene():
    return [make_scene("ga", ["a0", "a1", "a2"], identities=[1, 4, 5]), Scene("ge", "cam1", ()),
            make_scene("gb", ["b0", "b1"], identities=[2, 1]), make_scene("gc", ["c0"], identities=[6])]


class SceneOnly:
    """Forwards ``score_scene`` alone, like a wrapper that checks each scene's scores."""

    def __init__(self, inner):
        self.inner, self.name = inner, inner.name

    def score_scene(self, probe_scene, probe, gallery_scene):
        return self.inner.score_scene(probe_scene, probe, gallery_scene)


class TestScoreGallery:
    @pytest.mark.parametrize("name", SCORER_NAMES)
    def test_equals_concatenated_scenes(self, scene_pair, name):
        # batching the gallery changes BLAS blocking for uniform and attention only
        ps, _ = scene_pair
        scorer = build_scorer(name)
        gallery = gallery_with_empty_scene()
        for probe in ps.instances:
            whole = scorer.score_gallery(ps, probe, gallery)
            per_scene = [e for scene in gallery for e in scorer.score_scene(ps, probe, scene)]
            assert [i.instance_id for i, _ in whole] == ["a0", "a1", "a2", "b0", "b1", "c0"]
            assert [i.instance_id for i, _ in per_scene] == ["a0", "a1", "a2", "b0", "b1", "c0"]
            if name in ("uniform", "attention"):
                assert np.allclose([s for _, s in whole], [s for _, s in per_scene], rtol=0.0, atol=1e-12)
            else:
                assert [s for _, s in whole] == [s for _, s in per_scene]
            assert scorer.score_gallery(ps, probe, []) == []

    @pytest.mark.parametrize("name", SCORER_NAMES)
    def test_rank_gallery_through_scene_only_wrapper(self, scene_pair, name):
        ps, _ = scene_pair
        scorer = build_scorer(name)
        gallery = gallery_with_empty_scene()
        for probe in ps.instances:
            direct = rank_gallery(probe, gallery, scorer, ps)
            wrapped = rank_gallery(probe, gallery, SceneOnly(scorer), ps)
            assert [i.instance_id for i, _ in direct.ranked] == [i.instance_id for i, _ in wrapped.ranked]
            assert direct.relevance == wrapped.relevance
            assert np.allclose([s for _, s in direct.ranked], [s for _, s in wrapped.ranked], rtol=0.0, atol=1e-12)

    def test_attention_runs_one_pair_matrix_per_query(self, scene_pair):
        class Counting(AttentionScorer):
            calls = 0

            def pair_matrix(self, probe_insts, gallery_insts):
                self.calls += 1
                return super().pair_matrix(probe_insts, gallery_insts)

        ps, _ = scene_pair
        scorer = build_scorer("attention", attn_class=Counting)
        for probe in ps.instances:
            rank_gallery(probe, gallery_with_empty_scene(), scorer, ps)
        assert scorer.calls == len(ps.instances)
