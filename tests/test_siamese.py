import numpy as np
import pytest

from context_rerank.autodiff import SgdConfig, Tensor, load_checkpoint, save_checkpoint
from context_rerank.embeddings import Instance, PartEmbedding, Scene
from context_rerank.errors import ConfigError, DataError
from context_rerank.expansion import expand
from context_rerank.attention import init_attention_params
from context_rerank.graph import (
    GraphSample,
    gcn_score_batch,
    init_gcn_params,
    normalize_adjacency,
    sample_loss,
    side_matrices,
    star_adjacency,
)
from context_rerank.scoring import SiameseScorer
from context_rerank.siamese import (
    SiameseParams,
    init_siamese_params,
    samples_from_expansions,
    siamese_forward,
    train_siamese,
)


def make_instance(iid, scene_id, identity=None, d=8):
    rng = np.random.default_rng(abs(hash(iid)) % 2**32)
    parts = rng.standard_normal((4, d))
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    return Instance(iid, scene_id, (0, 0, 10, 20), identity, PartEmbedding.from_array(parts))


def make_scene(scene_id, ids):
    return Scene(scene_id, "cam0", tuple(make_instance(i, scene_id) for i in ids))


def random_sides(rng, n, f):
    return rng.standard_normal((n, f)), rng.standard_normal((n, f))


def reference_logits(params, xa, xb):
    """The siamese forward written out for one pair as column-vector NumPy."""

    def branch(x):
        return np.maximum(params.readout_w.data @ _propagate(params, x).reshape(-1, 1) + params.readout_b.data, 0.0)

    return (params.cls_w.data @ np.concatenate([branch(xa), branch(xb)]) + params.cls_b.data).reshape(-1)


def forward(params, sides):
    """Logits of a list of (xa, xb) pairs through one batched forward."""
    xa = Tensor(np.stack([s[0] for s in sides]))
    xb = Tensor(np.stack([s[1] for s in sides]))
    return siamese_forward(params, xa, xb).data


class TestForward:
    def test_swapping_sides_swaps_branches_exactly(self):
        # shared weights: the branch readouts are the same function of each side
        rng = np.random.default_rng(0)
        params = init_siamese_params(rng, 4, 6, readout_dim=5)
        xa, xb = random_sides(rng, 4, 6)
        logits_ab, logits_ba = forward(params, [(xa, xb), (xb, xa)])
        half = params.cls_w.shape[1] // 2
        w_swapped = np.concatenate(
            [params.cls_w.data[:, half:], params.cls_w.data[:, :half]], axis=1
        )
        # applying the swapped classifier to (a,b) equals the original on (b,a)
        ha = np.maximum(
            params.readout_w.data
            @ _propagate(params, xa).reshape(-1, 1)
            + params.readout_b.data,
            0.0,
        )
        hb = np.maximum(
            params.readout_w.data
            @ _propagate(params, xb).reshape(-1, 1)
            + params.readout_b.data,
            0.0,
        )
        manual_ba = w_swapped @ np.concatenate([ha, hb]) + params.cls_b.data
        assert np.allclose(logits_ba, manual_ba.reshape(-1), atol=1e-12)
        assert not np.allclose(logits_ab, logits_ba)

    def test_score_in_unit_interval(self):
        rng = np.random.default_rng(1)
        params = init_siamese_params(rng, 3, 5, readout_dim=4)
        sides = [random_sides(rng, 3, 5) for _ in range(10)]
        scores = gcn_score_batch(
            params, np.stack([s[0] for s in sides]), np.stack([s[1] for s in sides])
        )
        assert np.all((scores > 0.0) & (scores < 1.0))

    def test_batch_matches_single(self):
        rng = np.random.default_rng(2)
        n, f = 4, 5
        params = init_siamese_params(rng, n, f, readout_dim=6)
        sides = [random_sides(rng, n, f) for _ in range(5)]
        singles = []
        for xa, xb in sides:
            logits = reference_logits(params, xa, xb)
            e = np.exp(logits - logits.max())
            singles.append((e / e.sum())[1])
        batched = gcn_score_batch(
            params, np.stack([s[0] for s in sides]), np.stack([s[1] for s in sides])
        )
        assert np.allclose(batched, singles, atol=1e-12)

    def test_sample_loss_is_the_forward_loss_bit_for_bit(self):
        # the one loss of both graph models runs the siamese forward through params.logits
        rng = np.random.default_rng(9)
        n, f = 3, 4
        params = init_siamese_params(rng, n, f, readout_dim=5)
        samples = [GraphSample(*random_sides(rng, n, f), label=i % 2) for i in range(4)]
        loss = sample_loss(params, samples)
        loss.backward()
        grads = [t.grad.copy() for t in params.tensors()]
        for t in params.tensors():
            t.grad = None
        xa, xb = (Tensor(np.stack([getattr(s, side) for s in samples])) for side in ("xa", "xb"))
        expected = siamese_forward(params, xa, xb).cross_entropy_binary([s.label for s in samples])
        expected.backward()
        assert loss.item() == expected.item()
        for grad, t in zip(grads, params.tensors()):
            assert np.array_equal(grad, t.grad)

    def test_mismatched_node_count_is_config_error(self):
        rng = np.random.default_rng(7)
        params = init_siamese_params(rng, 3, 5, readout_dim=4)
        with pytest.raises(ConfigError):
            forward(params, [random_sides(rng, 4, 5)])
        with pytest.raises(ConfigError):
            forward(params, [random_sides(rng, 3, 6)])


def _propagate(params, x):
    a_hat = normalize_adjacency(star_adjacency(x.shape[0]))
    z = x
    for w in params.layers:
        z = np.maximum(a_hat @ z @ w.data, 0.0)
    return z


class TestSideMatrices:
    def test_target_first_then_contexts(self):
        ps = make_scene("sp", ["pt", "p1", "p2"])
        gs = make_scene("sg", ["gt", "g1", "g2"])
        scorer = lambda p, g: float(np.dot(p.embedding.parts[0], g.embedding.parts[0]))
        ep = expand(ps, ps.instances[0], gs, gs.instances[0], scorer, k=2, seed=0)
        xa, xb = side_matrices(ep)
        assert xa.shape == (3, 8)
        assert np.array_equal(xa[0], ps.instances[0].embedding.parts[0])
        assert np.array_equal(xb[0], gs.instances[0].embedding.parts[0])

    def test_samples_from_expansions_labels(self):
        ps = make_scene("sp", ["pt", "p1"])
        gs = make_scene("sg", ["gt", "g1"])
        ep = expand(ps, ps.instances[0], gs, gs.instances[0], lambda p, g: 0.5, k=1, seed=0)
        samples = samples_from_expansions([(ep, 1), (ep, 0)])
        assert [s.label for s in samples] == [1, 0]
        assert samples[0].xa.shape == (2, 8)


class TestTraining:
    def _samples(self, rng, n=3, f=5, count=20):
        out = []
        for i in range(count):
            label = i % 2
            xa, xb = random_sides(rng, n, f)
            if label:
                xb = xa + 0.05 * rng.standard_normal((n, f))
            out.append(GraphSample(xa=xa, xb=xb, label=label))
        return out

    def test_loss_decreases(self):
        rng = np.random.default_rng(3)
        samples = self._samples(rng)
        losses = []
        train_siamese(
            samples,
            SgdConfig(learning_rate=0.2, epochs=12, schedule=(), seed=0, batch_size=5),
            epoch_losses=losses,
        )
        assert losses[-1] < losses[0]

    def test_rejects_single_label(self):
        rng = np.random.default_rng(4)
        samples = [GraphSample(*random_sides(rng, 3, 4), label=1) for _ in range(4)]
        with pytest.raises(DataError, match="both labels"):
            train_siamese(samples, SgdConfig(epochs=1))


class TestGraphScore:
    def test_degenerate_fallback(self):
        # uniform attention weights (zero output layer) and a gallery person
        # that matches the probe on the whole body and opposes it on the other
        # parts: pair similarity -0.5, fallback (-0.5 + 1) / 2
        probe = make_instance("pt", "sp")
        parts = probe.embedding.parts * np.array([[1.0], [-1.0], [-1.0], [-1.0]])
        target = Instance("gt", "sg", (0, 0, 10, 20), None, PartEmbedding.from_array(parts))
        ps, gs = Scene("sp", "cam0", (probe,)), Scene("sg", "cam1", (target,))
        rng = np.random.default_rng(5)
        attn = init_attention_params(rng, 8, hidden=6)
        attn.w2.data[:] = 0.0
        params = init_siamese_params(rng, 2, 8, readout_dim=4)
        [(inst, score)] = SiameseScorer(attn, params, k=1, seed=0).score_scene(ps, probe, gs)
        assert inst is target
        assert score == pytest.approx(0.25, abs=1e-12)


def test_checkpoint_roundtrip(tmp_path):
    rng = np.random.default_rng(6)
    params = init_siamese_params(rng, 3, 5, readout_dim=4)
    path = tmp_path / "siam.ckpt"
    save_checkpoint(path, params.to_entries())
    restored = SiameseParams.from_entries(load_checkpoint(path))
    for a, b in zip(params.tensors(), restored.tensors()):
        assert np.array_equal(a.data, b.data)


def test_params_differ_from_the_gcn_only_in_prefix_and_classifier_fan_in():
    siam = init_siamese_params(np.random.default_rng(8), 3, 5, readout_dim=4)
    gcn = init_gcn_params(np.random.default_rng(8), 3, 5, readout_dim=4)
    names = ["layer0", "layer1", "layer2", "readout_w", "readout_b", "cls_w", "cls_b"]
    assert list(siam.to_entries()) == [f"siamese/{n}" for n in names]
    assert siam.cls_w.shape == (2, 8) and gcn.cls_w.shape == (2, 4)
    for a, b in zip(siam.tensors()[:5], gcn.tensors()[:5]):
        assert np.array_equal(a.data, b.data)
