import itertools

import numpy as np
import pytest

from context_rerank.autodiff import SgdConfig, Tensor
from context_rerank.dataio import SynthConfig, generate_synthetic
from context_rerank.embeddings import Instance, PartEmbedding, Scene, labeled_pairs
from context_rerank.attention import init_attention_params
from context_rerank.errors import ConfigError, DataError, UsageError
from context_rerank.expansion import expand, member_index
from context_rerank.graph import (
    ContextGraph,
    GcnParams,
    GraphSample,
    build_graph,
    build_graph_samples,
    build_labeled_expansions,
    gcn_forward,
    gcn_logits,
    gcn_score_batch,
    init_gcn_params,
    normalize_adjacency,
    sample_loss,
    side_matrices,
    star_adjacency,
    train_gcn,
)
from context_rerank.scoring import AttentionScorer, GraphScorer
from context_rerank.siamese import SiameseParams, train_siamese


def make_instance(iid, scene_id, identity=None, d=8, seed=None):
    rng = np.random.default_rng(seed if seed is not None else abs(hash(iid)) % 2**32)
    parts = rng.standard_normal((4, d))
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    return Instance(iid, scene_id, (0, 0, 10, 20), identity, PartEmbedding.from_array(parts))


def make_scene(scene_id, ids, cam="cam0", identities=None):
    identities = identities or [None] * len(ids)
    return Scene(
        scene_id, cam, tuple(make_instance(i, scene_id, ident) for i, ident in zip(ids, identities))
    )


def random_graph(rng, n, f):
    a = star_adjacency(n)
    return ContextGraph(
        x=rng.standard_normal((n, f)),
        adjacency=a,
        norm_adjacency=normalize_adjacency(a),
    )


def table_lookup(scenes, pair_matrix):
    """A per-pair scorer for ``expand`` that reads each score from its scene
    pair's ``pair_matrix`` table, one table per scene pair."""
    scene_of = {s.scene_id: s for s in scenes}
    tables = {}

    def score(a, b):
        ps, gs = scene_of[a.scene_id], scene_of[b.scene_id]
        if (ps.scene_id, gs.scene_id) not in tables:
            tables[ps.scene_id, gs.scene_id] = pair_matrix(ps.instances, gs.instances)
        return tables[ps.scene_id, gs.scene_id][member_index(ps, a, "probe"), member_index(gs, b, "gallery")]

    return score


def random_sample(rng, n, f, label):
    """A GraphSample with (n, f) random sides."""
    return GraphSample(rng.standard_normal((n, f)), rng.standard_normal((n, f)), label)


class TestStarAdjacency:
    def test_exhaustive_oracle_n2_to_n8(self):
        # independently re-derive every entry from the star rule
        for n in range(2, 9):
            a = star_adjacency(n)
            for i, j in itertools.product(range(n), repeat=2):
                expected = 1.0 if (i == 0 or j == 0 or i == j) else 0.0
                assert abs(a[i, j] - expected) <= 1e-12, (n, i, j)

    def test_symmetric(self):
        for n in range(1, 9):
            a = star_adjacency(n)
            assert np.array_equal(a, a.T)

    def test_rejects_empty(self):
        with pytest.raises(UsageError):
            star_adjacency(0)

    def test_three_context_hand_values(self):
        # N = 4: target degree 4, context degree 2, worked by hand
        a = star_adjacency(4)
        assert np.array_equal(a, [[1, 1, 1, 1], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1]])
        a_hat = normalize_adjacency(a, "sym")
        assert a_hat[0, 0] == pytest.approx(0.25, abs=1e-12)
        for j in range(1, 4):
            assert a_hat[0, j] == pytest.approx(1.0 / (2.0 * np.sqrt(2.0)), abs=1e-12)
            assert a_hat[j, j] == pytest.approx(0.5, abs=1e-12)

    def test_single_context_pair(self):
        assert np.array_equal(star_adjacency(2), [[1, 1], [1, 1]])

    def test_k4_hand_normalization(self):
        # N = 5: target degree 5, context degree 2
        a_hat = normalize_adjacency(star_adjacency(5), "sym")
        assert a_hat[0, 0] == pytest.approx(1.0 / 5.0, abs=1e-12)
        for j in range(1, 5):
            assert a_hat[0, j] == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-12)
            assert a_hat[j, 0] == pytest.approx(1.0 / np.sqrt(10.0), abs=1e-12)
            assert a_hat[j, j] == pytest.approx(0.5, abs=1e-12)

    def test_bad_mode_rejected(self):
        for mode in ("colwise", "row"):
            with pytest.raises(ConfigError):
                normalize_adjacency(star_adjacency(3), mode)

    @pytest.mark.parametrize("init", [init_gcn_params, SiameseParams.init])
    def test_params_carry_the_normalized_star_of_their_k(self, init):
        for k in range(1, 5):
            params = init(np.random.default_rng(k), k + 1, 2, readout_dim=3)
            assert np.array_equal(params.a_hat, normalize_adjacency(star_adjacency(k + 1)))
            assert params.a_hat is params.a_hat


class TestBuildGraph:
    def _expansion(self, n_ctx=3, k=3):
        ps = make_scene("sp", ["pt"] + [f"p{i}" for i in range(n_ctx)])
        gs = make_scene("sg", ["gt"] + [f"g{i}" for i in range(n_ctx)])
        rng = np.random.default_rng(0)
        scores = {(p.instance_id, g.instance_id): float(rng.random()) for p in ps.instances for g in gs.instances}
        scorer = lambda p, g: scores[(p.instance_id, g.instance_id)]
        return expand(ps, ps.instances[0], gs, gs.instances[0], scorer, k=k, seed=0)

    def test_target_in_row_zero_whole_features(self):
        ep = self._expansion()
        g = build_graph(ep)
        assert g.x.shape == (4, 16)
        probe, gallery = ep.target
        expected = np.concatenate([probe.embedding.parts[0], gallery.embedding.parts[0]])
        assert np.array_equal(g.x[0], expected)

    def test_degenerate_rejected(self):
        ps = make_scene("sp", ["pt"])
        gs = make_scene("sg", ["gt"])
        ep = expand(ps, ps.instances[0], gs, gs.instances[0], lambda p, g: 0.0, k=3, seed=0)
        with pytest.raises(UsageError):
            build_graph(ep)

    def test_rows_are_the_two_side_matrices_side_by_side(self):
        ep = self._expansion()
        x = build_graph(ep).x
        assert np.array_equal(x, np.concatenate(side_matrices(ep), axis=1))
        pairs = [ep.target] + [(c.probe_ctx, c.gallery_ctx) for c in ep.contexts]
        reference = np.stack([np.concatenate([a.embedding.parts[0], b.embedding.parts[0]]) for a, b in pairs])
        assert np.array_equal(x, reference)


class TestGcnForward:
    def test_linear_gcn_oracle(self):
        # with identity weights and non-negative node features every ReLU
        # passes its input, so each layer must reproduce plain matrix
        # propagation A_hat @ X exactly
        rng = np.random.default_rng(21)
        for n, f in [(2, 3), (4, 6), (8, 4)]:
            a = star_adjacency(n)
            graph = ContextGraph(x=rng.uniform(0.0, 1.0, (n, f)), adjacency=a, norm_adjacency=normalize_adjacency(a))
            params = init_gcn_params(rng, n, f, n_layers=3, readout_dim=5)
            for i in range(3):
                params.layers[i] = Tensor(np.eye(f), requires_grad=True)
            expected = graph.x.copy()
            for _ in range(3):
                expected = graph.norm_adjacency @ expected

            # re-run the readout by hand on the expected propagation
            got_logits, got_score = gcn_forward(params, graph)
            flat = expected.reshape(-1, 1)
            h = np.maximum(params.readout_w.data @ flat + params.readout_b.data, 0.0)
            logits = params.cls_w.data @ h + params.cls_b.data
            assert np.allclose(got_logits.data.reshape(-1), logits.reshape(-1), atol=1e-12)
            e = np.exp(logits - logits.max())
            assert got_score == pytest.approx(float((e / e.sum())[1, 0]), abs=1e-12)

    def test_score_is_probability(self):
        rng = np.random.default_rng(3)
        graph = random_graph(rng, 5, 6)
        params = init_gcn_params(rng, 5, 6, readout_dim=7)
        _, score = gcn_forward(params, graph)
        assert 0.0 <= score <= 1.0

    def test_dimension_mismatch_rejected(self):
        rng = np.random.default_rng(4)
        params = init_gcn_params(rng, 5, 6, readout_dim=7)
        with pytest.raises(ConfigError):
            gcn_forward(params, random_graph(rng, 5, 8))
        with pytest.raises(ConfigError):
            gcn_forward(params, random_graph(rng, 4, 6))

    def test_batch_scores_match_single_forward(self):
        rng = np.random.default_rng(6)
        n, f = 4, 6
        params = init_gcn_params(rng, n, f, readout_dim=9)
        graphs = [random_graph(rng, n, f) for _ in range(5)]
        singles = [gcn_forward(params, g)[1] for g in graphs]
        xa, xb = np.split(np.stack([g.x for g in graphs]), 2, axis=2)
        batched = gcn_score_batch(params, xa, xb)
        assert np.allclose(batched, singles, atol=1e-12)

    @pytest.mark.parametrize("cls", [GcnParams, SiameseParams], ids=lambda cls: cls.__name__)
    def test_batch_loss_is_mean_of_sample_losses_with_mean_gradient(self, cls):
        # for the siamese model this checks the interleaved sides on gradients too
        rng = np.random.default_rng(7)
        n, f = 4, 3
        params = cls.init(rng, n, cls.NODE_SIDES * f, readout_dim=9)
        samples = [random_sample(rng, n, f, i % 2) for i in range(5)]
        singles, grads = [], []
        for s in samples:
            loss = sample_loss(params, [s])
            loss.backward()
            singles.append(loss.item())
            grads.append([t.grad.copy() for t in params.tensors()])
            for t in params.tensors():
                t.grad = None
        loss = sample_loss(params, samples)
        loss.backward()
        assert loss.item() == pytest.approx(np.mean(singles), abs=1e-12)
        for i, t in enumerate(params.tensors()):
            assert np.allclose(t.grad, np.mean([g[i] for g in grads], axis=0), atol=1e-12)

    def test_sample_loss_reads_the_sides_next_to_each_other(self):
        rng = np.random.default_rng(16)
        n, f = 3, 2
        params = init_gcn_params(rng, n, 2 * f, readout_dim=4)
        a_hat = normalize_adjacency(star_adjacency(n))
        samples = [random_sample(rng, n, f, i % 2) for i in range(3)]
        x = np.stack([np.concatenate([s.xa, s.xb], axis=1) for s in samples])
        expected = gcn_logits(params, a_hat, Tensor(x)).cross_entropy_binary([s.label for s in samples])
        assert sample_loss(params, samples).item() == expected.item()


# both trainers take GraphSamples and check them alike
TRAINERS = (train_gcn, train_siamese)


class TestTraining:
    def _samples(self, rng, n=4, f=3, count=24):
        samples = []
        for i in range(count):
            label = i % 2
            s = random_sample(rng, n, f, label)
            # separable toy signal: positives get a positive-mean target row
            s.xa[0] += 2.0 if label else -2.0
            s.xb[0] += 2.0 if label else -2.0
            samples.append(s)
        return samples

    def test_loss_decreases_on_separable_data(self):
        rng = np.random.default_rng(8)
        samples = self._samples(rng)
        losses = []
        train_gcn(samples, SgdConfig(learning_rate=0.2, epochs=15, schedule=(), seed=0, batch_size=8), epoch_losses=losses)
        assert losses[-1] < losses[0]
        assert losses[-1] < 0.3

    def test_training_is_deterministic(self):
        rng = np.random.default_rng(9)
        samples = self._samples(rng, count=12)
        cfg = SgdConfig(learning_rate=0.05, epochs=3, seed=5, batch_size=6)
        p1 = train_gcn(samples, cfg)
        p2 = train_gcn(samples, cfg)
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a.data, b.data)

    def test_rejects_single_label(self):
        rng = np.random.default_rng(10)
        samples = [random_sample(rng, 3, 2, 1) for _ in range(4)]
        for train in TRAINERS:
            with pytest.raises(DataError, match="both labels"):
                train(samples, SgdConfig(epochs=1))

    def test_rejects_mixed_k(self):
        rng = np.random.default_rng(11)
        samples = [random_sample(rng, 3, 2, 1), random_sample(rng, 4, 2, 0)]
        for train in TRAINERS:
            with pytest.raises(DataError, match="share K"):
                train(samples, SgdConfig(epochs=1))

    def test_rejects_empty(self):
        for train in TRAINERS:
            with pytest.raises(DataError, match="no graph samples"):
                train([], SgdConfig(epochs=1))


class TestGraphScore:
    """Scene scoring through GraphScorer, the graph model's only scoring path."""

    def test_degenerate_falls_back_to_rescaled_similarity(self):
        # a zero output layer gives the attention head uniform weights, and the
        # gallery person matches the probe on three parts and opposes it on the
        # fourth, so the pair similarity is 0.5 and the fallback (0.5 + 1) / 2
        probe = make_instance("pt", "sp", seed=1)
        parts = probe.embedding.parts * np.array([[1.0], [1.0], [1.0], [-1.0]])
        target = Instance("gt", "sg", (0, 0, 10, 20), None, PartEmbedding.from_array(parts))
        ps, gs = Scene("sp", "cam0", (probe,)), Scene("sg", "cam1", (target,))
        rng = np.random.default_rng(12)
        attn = init_attention_params(rng, 8, hidden=6)
        attn.w2.data[:] = 0.0
        params = init_gcn_params(rng, 2, 16, readout_dim=5)
        [(inst, score)] = GraphScorer(attn, params, k=1, seed=0).score_scene(ps, probe, gs)
        assert inst is target
        assert score == pytest.approx(0.75, abs=1e-12)

    def test_graph_score_in_unit_interval(self):
        ps = make_scene("sp", ["pt", "p1", "p2", "p3"])
        gs = make_scene("sg", ["gt", "g1", "g2", "g3"])
        rng = np.random.default_rng(13)
        attn = init_attention_params(rng, 8, hidden=6)
        params = init_gcn_params(rng, 4, 16, readout_dim=5)
        scored = GraphScorer(attn, params, k=3, seed=0).score_scene(ps, ps.instances[0], gs)
        assert [i.instance_id for i, _ in scored] == ["gt", "g1", "g2", "g3"]
        assert all(0.0 <= s <= 1.0 for _, s in scored)


class TestBuildGraphSamples:
    def _scenes(self):
        scenes = []
        for s in range(4):
            scenes.append(
                make_scene(
                    f"s{s}",
                    [f"s{s}a", f"s{s}b", f"s{s}c"],
                    cam=f"cam{s % 2}",
                    identities=[1, 2, 3],
                )
            )
        return scenes

    def test_labels_present_and_shared_k(self):
        def table(probe_insts, gallery_insts):
            return np.array([[np.dot(p.embedding.parts[0], g.embedding.parts[0]) for g in gallery_insts]
                             for p in probe_insts])

        samples = build_graph_samples(self._scenes(), table, k=2, seed=0, neg_ratio=1.0)
        labels = {s.label for s in samples}
        assert labels == {0, 1}
        assert {x.shape for s in samples for x in (s.xa, s.xb)} == {(3, 8)}

    @pytest.fixture(scope="class")
    def sparse_corpus(self):
        """Scenes of one or two persons, so that some positives have a person
        alone in its scene and many targets have fewer than K contexts."""
        ds = generate_synthetic(SynthConfig(num_identities=30, num_cameras=3, scenes_per_camera=10,
                                            instances_per_scene=2, group_size_mean=1, dim=8, seed=5))
        assert any(len(s.instances) == 1 for s in ds.scenes)
        return ds.scenes, init_attention_params(np.random.default_rng(3), 8, hidden=16)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_samples_match_the_per_target_reference(self, sparse_corpus, k):
        scenes, attn = sparse_corpus
        pair_matrix = AttentionScorer(attn).pair_matrix
        targets = build_labeled_expansions(scenes, seed=3, neg_ratio=1.5)
        samples = build_graph_samples(scenes, pair_matrix, k=k, seed=3, neg_ratio=1.5)
        assert len(samples) == len(targets)
        scene_of = {s.scene_id: s for s in scenes}
        reference = table_lookup(scenes, AttentionScorer(attn).pair_matrix)
        for ((a, b), label), sample in zip(targets, samples):
            ep = expand(scene_of[a.scene_id], a, scene_of[b.scene_id], b, reference, k=k, seed=3)
            xa, xb = side_matrices(ep)
            assert np.array_equal(sample.xa, xa) and np.array_equal(sample.xb, xb)
            assert sample.label == label

    def test_one_table_call_per_scene_pair_one_probe_scene_at_a_time(self, sparse_corpus):
        scenes, attn = sparse_corpus
        pair_matrix = AttentionScorer(attn).pair_matrix
        calls = []

        def recording(probe_insts, gallery_insts):
            calls.append((probe_insts, gallery_insts))
            return pair_matrix(probe_insts, gallery_insts)

        targets = build_labeled_expansions(scenes, seed=3, neg_ratio=1.5)
        build_graph_samples(scenes, recording, k=2, seed=3, neg_ratio=1.5)
        scene_of = {s.scene_id: s for s in scenes}
        pairs = [(p[0].scene_id, g[0].scene_id) for p, g in calls]
        assert sorted(pairs) == sorted({(a.scene_id, b.scene_id) for (a, b), _ in targets})
        for (p, g), (ps, gs) in zip(calls, pairs):
            assert p is scene_of[ps].instances and g is scene_of[gs].instances
        runs = [ps for n, (ps, _) in enumerate(pairs) if n == 0 or pairs[n - 1][0] != ps]
        assert len(runs) == len(set(runs))

    def test_targets_are_the_pairs_expand_finds_context_for(self, sparse_corpus):
        scenes, _ = sparse_corpus
        scene_of = {s.scene_id: s for s in scenes}

        def degenerate(a, b):
            return expand(scene_of[a.scene_id], a, scene_of[b.scene_id], b, lambda p, g: 0.0, k=1).degenerate

        targets = build_labeled_expansions(scenes, seed=3)
        assert not any(degenerate(a, b) for (a, b), _ in targets)
        positives = {(a.instance_id, b.instance_id) for (a, b), label in targets if label == 1}
        skipped = [(a, b) for a, b in labeled_pairs(scenes)[1] if (a.instance_id, b.instance_id) not in positives]
        assert skipped and all(degenerate(a, b) for a, b in skipped)

    def test_checkpoint_roundtrip_of_params(self, tmp_path):
        from context_rerank.autodiff import load_checkpoint, save_checkpoint

        rng = np.random.default_rng(14)
        params = init_gcn_params(rng, 4, 6, readout_dim=5)
        path = tmp_path / "gcn.ckpt"
        save_checkpoint(path, params.to_entries())
        restored = GcnParams.from_entries(load_checkpoint(path))
        for a, b in zip(params.tensors(), restored.tensors()):
            assert np.array_equal(a.data, b.data)
