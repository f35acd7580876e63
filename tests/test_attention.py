import numpy as np
import pytest

from context_rerank import attention
from context_rerank.attention import (
    AttentionParams,
    VerificationConfig,
    attention_forward,
    attention_weights_batch,
    build_training_pairs,
    init_attention_params,
    order_pair,
    pair_descriptor,
    pair_loss,
    train_attention,
)
from context_rerank.autodiff import SgdConfig, Tensor, load_checkpoint, save_checkpoint
from context_rerank.dataio import SynthConfig, generate_synthetic
from context_rerank.embeddings import Instance, PartEmbedding, Scene, labeled_pairs
from context_rerank.errors import ConfigError, DataError, DimensionError, UsageError
from context_rerank.scoring import AttentionScorer
from reference import fused_similarity, part_cosines, verification_loss


def make_embedding(seed=0, d=8):
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((4, d))
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    return PartEmbedding.from_array(parts)


def make_params(seed=0, d=8, hidden=6):
    return init_attention_params(np.random.default_rng(seed), d, hidden)


def attention_weights(params, a, b):
    """Weights of one pair, through the batched inference path."""
    return attention_weights_batch(params, pair_descriptor(*order_pair(a, b))[None])[0]


def as_instance(emb, iid):
    return Instance(iid, "s", (0, 0, 5, 9), None, emb)


def reference_weights(params, a, b):
    """The head written out for one pair as column-vector NumPy."""
    x = pair_descriptor(*order_pair(a, b)).reshape(-1, 1)
    h = np.maximum(params.w1.data @ x + params.b1.data, 0.0)
    logits = (params.w2.data @ h + params.b2.data).reshape(-1)
    e = np.exp(logits - logits.max())
    return e / e.sum()


class TestDescriptor:
    def test_layout_interleaves_parts(self):
        a, b = make_embedding(1, d=3), make_embedding(2, d=3)
        flat = pair_descriptor(a, b)
        assert flat.shape == (2 * 4 * 3,)
        assert np.array_equal(flat[0:3], a.parts[0])
        assert np.array_equal(flat[3:6], b.parts[0])
        assert np.array_equal(flat[18:21], a.parts[3])
        assert np.array_equal(flat[21:24], b.parts[3])

    def test_order_pair_is_involution(self):
        a, b = make_embedding(3), make_embedding(4)
        assert order_pair(a, b) == order_pair(b, a)

    def test_dimension_mismatch_rejected(self):
        params = make_params(d=8)
        with pytest.raises(DimensionError):
            attention_forward(params, Tensor(np.zeros((1, 10))))


class TestWeights:
    def test_weights_are_a_distribution(self):
        params = make_params(5)
        w = attention_weights(params, make_embedding(6), make_embedding(7))
        assert w.shape == (4,)
        assert np.all(w > 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_symmetry_under_argument_swap(self):
        params = make_params(8)
        a, b = make_embedding(9), make_embedding(10)
        assert np.array_equal(attention_weights(params, a, b), attention_weights(params, b, a))
        scorer, ia, ib = AttentionScorer(params), as_instance(a, "a"), as_instance(b, "b")
        assert scorer.pair_score(ia, ib) == scorer.pair_score(ib, ia)

    def test_batch_matches_single(self):
        params = make_params(11)
        embs = [(make_embedding(20 + i), make_embedding(40 + i)) for i in range(5)]
        descs = np.stack([pair_descriptor(*order_pair(a, b)) for a, b in embs])
        batch = attention_weights_batch(params, descs)
        for row, (a, b) in zip(batch, embs):
            assert np.allclose(row, reference_weights(params, a, b), atol=1e-12)

    def test_similarity_is_weighted_cosine(self):
        params = make_params(12)
        a, b = make_embedding(13), make_embedding(14)
        w = reference_weights(params, a, b)
        assert AttentionScorer(params).pair_score(as_instance(a, "a"), as_instance(b, "b")) == pytest.approx(
            float(w @ part_cosines(a, b)), abs=1e-12
        )


class TestVerificationLoss:
    def test_positive_branch(self):
        cfg = VerificationConfig(margin=0.3)
        assert verification_loss(0.9, 1, cfg) == pytest.approx(0.1)
        assert verification_loss(-1.0, 1, cfg) == pytest.approx(2.0)

    def test_negative_branch_hinge(self):
        cfg = VerificationConfig(margin=0.3)
        assert verification_loss(0.5, -1, cfg) == pytest.approx(0.8)
        assert verification_loss(-0.3, -1, cfg) == 0.0
        assert verification_loss(-0.9, -1, cfg) == 0.0

    def test_bad_label(self):
        with pytest.raises(UsageError):
            verification_loss(0.5, 0, VerificationConfig())

    def test_bad_margin(self):
        with pytest.raises(ConfigError):
            VerificationConfig(margin=1.0)
        with pytest.raises(ConfigError):
            VerificationConfig(margin=-0.1)

    def test_pair_loss_matches_scalar_formula(self):
        params = make_params(15)
        cfg = VerificationConfig(margin=0.3)
        a, b = make_embedding(16), make_embedding(17)
        s = fused_similarity(a, b, attention_weights(params, a, b))
        for y in (1, -1):
            loss = pair_loss(params, [(a, b, y)], cfg)
            assert loss.item() == pytest.approx(verification_loss(s, y, cfg), abs=1e-12)

    def test_batch_loss_is_mean_of_pair_losses_with_mean_gradient(self):
        params = make_params(19)
        cfg = VerificationConfig(margin=0.3)
        batch = [(make_embedding(60 + i), make_embedding(80 + i), 1 if i % 2 else -1) for i in range(5)]
        singles, grads = [], []
        for pair in batch:
            loss = pair_loss(params, [pair], cfg)
            loss.backward()
            singles.append(loss.item())
            grads.append([t.grad.copy() for t in params.tensors()])
            for t in params.tensors():
                t.grad = None
        loss = pair_loss(params, batch, cfg)
        loss.backward()
        assert loss.item() == pytest.approx(np.mean(singles), abs=1e-12)
        for i, t in enumerate(params.tensors()):
            assert np.allclose(t.grad, np.mean([g[i] for g in grads], axis=0), atol=1e-12)

    def test_batch_descriptors_are_the_per_pair_rows(self, monkeypatch):
        params = make_params(21)
        batch = [(make_embedding(100 + i), make_embedding(120 + i), 1 if i % 2 else -1) for i in range(7)]
        seen = []
        monkeypatch.setattr(attention, "attention_forward", lambda p, x: seen.append(x.data) or attention_forward(p, x))
        pair_loss(params, batch, VerificationConfig())
        assert np.array_equal(seen[0], np.stack([pair_descriptor(*order_pair(a, b)) for a, b, _ in batch]))


def make_corpus(n_scenes=6, per_scene=3, n_ids=6, d=8, seed=0):
    rng = np.random.default_rng(seed)
    protos = rng.standard_normal((n_ids, 4, d))
    protos /= np.linalg.norm(protos, axis=2, keepdims=True)
    scenes = []
    for s in range(n_scenes):
        insts = []
        ids = rng.choice(n_ids, size=per_scene, replace=False)
        for n, ident in enumerate(ids):
            parts = protos[ident] + 0.2 * rng.standard_normal((4, d))
            parts /= np.linalg.norm(parts, axis=1, keepdims=True)
            insts.append(
                Instance(f"s{s}i{n}", f"s{s}", (0, 0, 5, 9), int(ident), PartEmbedding.from_array(parts))
            )
        scenes.append(Scene(f"s{s}", f"cam{s % 2}", tuple(insts)))
    return scenes


class TestTraining:
    def test_build_pairs_labels_and_structure(self):
        scenes = make_corpus()
        pairs = build_training_pairs(scenes, np.random.default_rng(0))
        pos = [p for p in pairs if p[2] == 1]
        neg = [p for p in pairs if p[2] == -1]
        assert pos and neg
        for a, b, y in pos:
            assert a.identity == b.identity and a.scene_id != b.scene_id
        for a, b, y in neg:
            assert a.identity != b.identity

    @staticmethod
    def per_draw_pairs(scenes, rng):
        """Reference: the negatives drawn one pair of indices at a time."""
        labeled, pairs = labeled_pairs(scenes)
        positives = [(a, b, 1) for a, b in pairs]
        target, n = 10 * len(positives), len(labeled)
        negatives, seen, attempts = [], set(), 0
        while len(negatives) < target and attempts < 50 * target:
            attempts += 1
            i, j = rng.integers(0, n, size=2)
            a, b = labeled[i], labeled[j]
            key = (min(a.instance_id, b.instance_id), max(a.instance_id, b.instance_id))
            if i != j and a.identity != b.identity and key not in seen:
                seen.add(key)
                negatives.append((a, b, -1))
        if not negatives:
            raise DataError("no cross-identity pairs available for training")
        return positives + negatives

    def assert_same_pairs(self, scenes, seed):
        expected = self.per_draw_pairs(scenes, np.random.default_rng(seed))
        got = build_training_pairs(scenes, np.random.default_rng(seed))
        assert len(got) == len(expected)
        assert all(a is c and b is d and y == z for (a, b, y), (c, d, z) in zip(got, expected))
        return got

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negatives_match_the_per_draw_loop(self, seed):
        scenes = generate_synthetic(SynthConfig(seed=seed)).scenes
        self.assert_same_pairs(scenes, (seed, 0xA11))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_negatives_match_the_per_draw_loop_when_the_draw_cap_binds(self, seed):
        # two identities in eight scenes: 56 positives want 560 negatives,
        # but only 64 cross-identity pairs exist
        scenes = make_corpus(n_scenes=8, per_scene=2, n_ids=2, seed=seed)
        pairs = self.assert_same_pairs(scenes, seed)
        n_pos = sum(y == 1 for _, _, y in pairs)
        assert n_pos == 56 and len(pairs) - n_pos < 10 * n_pos

    @pytest.mark.parametrize("seed", [0, 1])
    def test_no_cross_identity_pair_is_data_error(self, seed):
        scenes = make_corpus(n_scenes=4, per_scene=1, n_ids=1, seed=seed)
        for build in (self.per_draw_pairs, build_training_pairs):
            with pytest.raises(DataError, match="no cross-identity pairs"):
                build(scenes, np.random.default_rng(seed))

    def test_build_pairs_requires_positives(self):
        scenes = make_corpus(n_scenes=1)
        with pytest.raises(DataError):
            build_training_pairs(scenes, np.random.default_rng(0))

    def test_training_reduces_loss_with_zero_margin(self):
        # margin 0 removes the hinge floor, so the mean loss can go low
        scenes = make_corpus(seed=3)
        pairs = build_training_pairs(scenes, np.random.default_rng(1))
        losses = []
        train_attention(
            pairs,
            SgdConfig(learning_rate=0.1, epochs=12, schedule=(), seed=0, batch_size=16),
            VerificationConfig(margin=0.0),
            hidden=8,
            epoch_losses=losses,
        )
        assert losses[-1] < losses[0]

    def test_training_is_deterministic(self):
        scenes = make_corpus(seed=4)
        pairs = build_training_pairs(scenes, np.random.default_rng(2))
        cfg = SgdConfig(learning_rate=0.05, epochs=2, seed=7, batch_size=8)
        p1 = train_attention(pairs, cfg, hidden=6)
        p2 = train_attention(pairs, cfg, hidden=6)
        for a, b in zip(p1.tensors(), p2.tensors()):
            assert np.array_equal(a.data, b.data)

    def test_training_rejects_single_class(self):
        scenes = make_corpus()
        pairs = build_training_pairs(scenes, np.random.default_rng(0))
        with pytest.raises(DataError):
            train_attention([p for p in pairs if p[2] == 1], SgdConfig(epochs=1))


def test_params_checkpoint_roundtrip(tmp_path):
    params = make_params(18)
    path = tmp_path / "attn.ckpt"
    save_checkpoint(path, params.to_entries())
    restored = AttentionParams.from_entries(load_checkpoint(path))
    for a, b in zip(params.tensors(), restored.tensors()):
        assert np.array_equal(a.data, b.data)
    with pytest.raises(DataError):
        AttentionParams.from_entries({"attention/w1": params.w1.data})
