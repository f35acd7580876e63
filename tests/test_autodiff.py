import numpy as np
import pytest

from context_rerank.autodiff import (
    SgdConfig,
    Tensor,
    load_checkpoint,
    max_rel_error,
    numeric_gradient,
    save_checkpoint,
    sgd_step,
)
from context_rerank.errors import ConfigError, DimensionError, NumericError, UsageError


def test_matmul_identity():
    m = Tensor([[1.0, 2.0], [3.0, 4.0]])
    eye = Tensor(np.eye(2))
    assert np.array_equal((eye @ m).data, m.data)


def test_matmul_hand_example():
    a = Tensor([[1.0, 2.0], [3.0, 4.0]])
    b = Tensor([[0.0], [1.0]])
    assert np.array_equal((a @ b).data, [[2.0], [4.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError, match=r"\(2, 3\).*\(2, 3\)"):
        Tensor(np.zeros((2, 3))) @ Tensor(np.zeros((2, 3)))


def test_matmul_gradient_is_ones_times_bt():
    rng = np.random.default_rng(7)
    a = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (4, 2)))
    (a @ b).sum().backward()
    assert np.allclose(a.grad, np.ones((3, 2)) @ b.data.T)
    numeric = numeric_gradient(lambda x: float((x @ b.data).sum()), a.data.copy())
    assert max_rel_error(a.grad, numeric) < 1e-6


def test_relu_values_and_subgradient_at_zero():
    x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
    y = x.relu()
    assert np.array_equal(y.data, [0.0, 0.0, 2.0])
    y.sum().backward()
    assert np.array_equal(x.grad, [0.0, 0.0, 1.0])


def test_elementwise_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    xv = rng.uniform(0.1, 1, 5)
    yv = rng.uniform(0.1, 1, 5)
    x = Tensor(xv, requires_grad=True)
    y = Tensor(yv, requires_grad=True)
    ((x + y) * x - y.affine(0.5)).sum().backward()
    num_x = numeric_gradient(lambda v: float(((v + yv) * v - 0.5 * yv).sum()), xv.copy())
    assert max_rel_error(x.grad, num_x) < 1e-6


def test_broadcast_gradients_sum_back_to_operand_shapes():
    rng = np.random.default_rng(4)
    xv, yv = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, 4)
    x = Tensor(xv, requires_grad=True)
    y = Tensor(yv, requires_grad=True)
    (x * y - y + x).sum().backward()
    assert x.grad.shape == (3, 4) and y.grad.shape == (4,)
    assert np.allclose(x.grad, yv + 1.0)
    assert np.allclose(y.grad, xv.sum(axis=0) - 3.0)
    with pytest.raises(DimensionError):
        Tensor(np.zeros((3, 4))) + Tensor(np.zeros(3))


def test_stacked_matmul_matches_per_matrix_products():
    rng = np.random.default_rng(6)
    a = Tensor(rng.uniform(-1, 1, (5, 3, 4)), requires_grad=True)
    w = Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True)
    out = a @ w
    for i in range(5):
        assert np.array_equal(out.data[i], a.data[i] @ w.data)
    out.sum().backward()
    assert np.allclose(w.grad, sum(a.data[i].T @ np.ones((3, 2)) for i in range(5)))
    assert np.allclose(a.grad, np.broadcast_to(np.ones((3, 2)) @ w.data.T, (5, 3, 4)))
    with pytest.raises(DimensionError):
        a @ Tensor(np.zeros((5, 4, 2)))


def test_linear_is_x_wt_plus_b_with_gradients():
    rng = np.random.default_rng(7)
    xv, wv, bv = rng.uniform(-1, 1, (3, 4)), rng.uniform(-1, 1, (2, 4)), rng.uniform(-1, 1, (2, 1))
    x, w, b = (Tensor(v, requires_grad=True) for v in (xv, wv, bv))
    out = x.linear(w, b)
    assert np.array_equal(out.data, xv @ wv.T + bv.reshape(-1))
    out.sum().backward()
    assert np.allclose(x.grad, np.ones((3, 2)) @ wv)
    assert np.allclose(w.grad, np.ones((2, 3)) @ xv)
    assert np.array_equal(b.grad, [[3.0], [3.0]])
    with pytest.raises(DimensionError):
        x.linear(Tensor(np.zeros((2, 3))), b)
    with pytest.raises(DimensionError):
        x.linear(w, Tensor(np.zeros(3)))


def test_left_mul_is_per_matrix_product_with_transposed_adjoint():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (3, 3))
    x = Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=True)
    out = x.left_mul(a)
    assert np.allclose(out.data, np.stack([a @ m for m in x.data]), atol=1e-15)
    pick = rng.uniform(-1, 1, (2, 3, 4))
    (out * Tensor(pick)).sum().backward()
    assert np.allclose(x.grad, np.stack([a.T @ p for p in pick]))
    with pytest.raises(DimensionError):
        x.left_mul(np.eye(4))


def test_row_softmax_sum_and_concat_on_batches():
    rows = Tensor([[0.0, np.log(3.0)], [5.0, 5.0]])
    assert np.allclose(rows.softmax().data, [[0.25, 0.75], [0.5, 0.5]])
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    y = Tensor(np.ones((2, 1)), requires_grad=True)
    both = x.concat(y)
    assert both.shape == (2, 4)
    (both.sum(axis=-1) * Tensor([1.0, 2.0])).sum().backward()
    assert np.array_equal(x.grad, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])
    assert np.array_equal(y.grad, [[1.0], [2.0]])


def test_cross_entropy_batch_is_mean_of_rows():
    rng = np.random.default_rng(10)
    xv = rng.uniform(-2, 2, (4, 2))
    labels = [0, 1, 1, 0]
    x = Tensor(xv, requires_grad=True)
    loss = x.cross_entropy_binary(labels)
    rows = [Tensor(xv[i]).cross_entropy_binary(labels[i]).item() for i in range(4)]
    assert loss.item() == pytest.approx(np.mean(rows), abs=1e-15)
    loss.backward()

    def f(v):
        m = v.max(axis=1, keepdims=True)
        lse = (m + np.log(np.exp(v - m).sum(axis=1, keepdims=True)))[:, 0]
        return float(np.mean(lse - v[np.arange(4), labels]))

    assert max_rel_error(x.grad, numeric_gradient(f, xv.copy())) < 1e-6
    with pytest.raises(DimensionError):
        x.cross_entropy_binary([0, 1])


def test_softmax_uniform_for_equal_inputs():
    s = Tensor([3.3, 3.3, 3.3, 3.3]).softmax()
    assert np.allclose(s.data, 0.25, atol=1e-15)


def test_softmax_closed_form():
    s = Tensor([np.log(1.0), np.log(3.0)]).softmax()
    assert np.allclose(s.data, [0.25, 0.75])


def test_softmax_sums_to_one_and_rejects_nan():
    rng = np.random.default_rng(0)
    for _ in range(20):
        s = Tensor(rng.uniform(-50, 50, 6)).softmax()
        assert abs(s.data.sum() - 1.0) < 1e-12
    with pytest.raises(NumericError):
        Tensor([np.nan, 0.0]).softmax()


def test_softmax_jacobian_matches_finite_differences():
    rng = np.random.default_rng(5)
    xv = rng.uniform(-1, 1, 4)
    for j in range(4):
        x = Tensor(xv, requires_grad=True)
        pick = np.zeros(4)
        pick[j] = 1.0
        (x.softmax() * Tensor(pick)).sum().backward()

        def f(v):
            e = np.exp(v - v.max())
            return float((e / e.sum())[j])

        assert max_rel_error(x.grad, numeric_gradient(f, xv.copy())) < 1e-6


def test_cross_entropy_symmetric_logits():
    loss = Tensor([0.0, 0.0]).cross_entropy_binary(1)
    assert abs(loss.item() - np.log(2.0)) < 1e-12


def test_cross_entropy_confident_logit():
    # -log(sigmoid(20)) evaluated in closed form
    expected = float(np.log1p(np.exp(-20.0)))
    loss = Tensor([0.0, 20.0]).cross_entropy_binary(1)
    assert abs(loss.item() - expected) < 1e-12
    assert abs(loss.item() - 2.061e-9) < 1e-11


def test_cross_entropy_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    for label in (0, 1):
        xv = rng.uniform(-1, 1, 2)
        x = Tensor(xv, requires_grad=True)
        x.cross_entropy_binary(label).backward()

        def f(v):
            m = v.max()
            return float(m + np.log(np.exp(v - m).sum()) - v[label])

        assert max_rel_error(x.grad, numeric_gradient(f, xv.copy())) < 1e-6


def test_cross_entropy_rejects_bad_label():
    with pytest.raises(UsageError):
        Tensor([0.0, 0.0]).cross_entropy_binary(2)


class TestSgd:
    def test_single_step(self):
        p = Tensor([1.0], requires_grad=True)
        p.grad = np.array([2.0])
        sgd_step([p], 0.1)
        assert np.allclose(p.data, [0.8])
        assert p.grad is None

    def test_missing_grad_is_usage_error(self):
        with pytest.raises(UsageError):
            sgd_step([Tensor([1.0], requires_grad=True)], 0.1)

    def test_schedule_halves_after_epoch_10(self):
        cfg = SgdConfig(learning_rate=0.1, schedule=((10, 0.5),), epochs=20)
        assert cfg.lr_at_epoch(10) == pytest.approx(0.1)
        assert cfg.lr_at_epoch(11) == pytest.approx(0.05)
        assert cfg.lr_at_epoch(20) == pytest.approx(0.05)

    def test_two_steps_on_square(self):
        # f(p) = p^2, grad 2p: 1 -> 0.8 -> 0.64
        p = Tensor([1.0], requires_grad=True)
        for expected in (0.8, 0.64):
            (p * p).sum().backward()
            sgd_step([p], 0.1)
            assert np.allclose(p.data, [expected])

    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigError):
            SgdConfig(learning_rate=0.0)
        with pytest.raises(ConfigError):
            SgdConfig(epochs=0)
        with pytest.raises(ConfigError):
            SgdConfig(schedule=((10, 0.5), (5, 0.5)))


def test_backward_requires_scalar():
    with pytest.raises(UsageError):
        Tensor([1.0, 2.0], requires_grad=True).backward()


def test_checkpoint_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    entries = {
        "a/w": rng.standard_normal((3, 5)),
        "a/b": rng.standard_normal(4),
        "scalar": np.array(3.14159),
    }
    path = tmp_path / "params.ckpt"
    save_checkpoint(path, entries)
    loaded = load_checkpoint(path)
    assert set(loaded) == set(entries)
    for name in entries:
        assert loaded[name].shape == entries[name].shape
        assert loaded[name].tobytes() == entries[name].tobytes()
    # byte-identical on re-save
    path2 = tmp_path / "params2.ckpt"
    save_checkpoint(path2, loaded)
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_rejects_garbage(tmp_path):
    from context_rerank.errors import DataError

    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"not a checkpoint at all")
    with pytest.raises(DataError):
        load_checkpoint(path)


def _two_entry_checkpoint(tmp_path):
    path = tmp_path / "two.ckpt"
    save_checkpoint(path, {"m/w": np.arange(6.0).reshape(2, 3), "m/b": np.array([0.5, -0.5])})
    return path, path.read_bytes()


def _field_boundaries(blob):
    """Byte offsets where each field of the checkpoint layout starts or ends."""
    import struct

    cuts = [8, 12, 16]
    off = 16
    while off < len(blob):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        cuts.append(off)
        off += name_len
        cuts.append(off)
        (ndim,) = struct.unpack_from("<I", blob, off)
        off += 4
        cuts.append(off)
        shape = struct.unpack_from(f"<{ndim}I", blob, off)
        off += 4 * ndim
        cuts.append(off)
        off += 8 * int(np.prod(shape))
        cuts.append(off)
    return cuts


def test_checkpoint_cut_at_every_field_boundary_is_data_error(tmp_path):
    from context_rerank.errors import DataError

    path, blob = _two_entry_checkpoint(tmp_path)
    cuts = _field_boundaries(blob)
    assert cuts[-1] == len(blob)
    for cut in sorted(set(cuts[:-1]) | {0, 3, 20, len(blob) - 8, len(blob) - 1}):
        path.write_bytes(blob[:cut])
        with pytest.raises(DataError, match=str(path)):
            load_checkpoint(path)


def test_checkpoint_with_trailing_bytes_is_data_error(tmp_path):
    from context_rerank.errors import DataError

    path, blob = _two_entry_checkpoint(tmp_path)
    for junk in (b"\x00", b"junk bytes", blob[8:]):
        path.write_bytes(blob + junk)
        with pytest.raises(DataError, match="trailing"):
            load_checkpoint(path)


def test_checkpoint_with_bad_entry_name_is_data_error(tmp_path):
    from context_rerank.errors import DataError

    path, blob = _two_entry_checkpoint(tmp_path)
    path.write_bytes(blob[:20] + b"\xff" + blob[21:])
    with pytest.raises(DataError, match="utf-8"):
        load_checkpoint(path)
