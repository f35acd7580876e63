import tracemalloc

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
    ((x + y) * x + y.affine(-0.5)).sum().backward()
    num_x = numeric_gradient(lambda v: float(((v + yv) * v - 0.5 * yv).sum()), xv.copy())
    assert max_rel_error(x.grad, num_x) < 1e-6


def test_elementwise_ops_refuse_operands_of_two_shapes():
    with pytest.raises(DimensionError, match=r"\(3, 4\).*\(4,\)"):
        Tensor(np.zeros((3, 4))) + Tensor(np.zeros(4))
    with pytest.raises(DimensionError, match=r"\(3, 4\).*\(3, 1\)"):
        Tensor(np.zeros((3, 4))) * Tensor(np.zeros((3, 1)))


def test_propagate_matches_per_matrix_products():
    rng = np.random.default_rng(6)
    a = rng.uniform(-1, 1, (3, 3))
    x = Tensor(rng.uniform(-1, 1, (5, 3, 4)))
    w = Tensor(rng.uniform(-1, 1, (4, 2)))
    out = x.propagate(a, w)
    assert out.shape == (5, 3, 2)
    for i in range(5):
        assert np.allclose(out.data[i], a @ x.data[i] @ w.data, atol=1e-15)


def test_propagate_gradients_match_finite_differences():
    rng = np.random.default_rng(8)
    a = rng.uniform(-1, 1, (3, 3))
    xv, wv, pick = rng.uniform(-1, 1, (2, 3, 4)), rng.uniform(-1, 1, (4, 5)), rng.uniform(-1, 1, (2, 3, 5))
    x, w = Tensor(xv, requires_grad=True), Tensor(wv, requires_grad=True)
    (x.propagate(a, w) * Tensor(pick)).sum().backward()

    def f(xs, ws):
        return float(sum((a @ m @ ws * p).sum() for m, p in zip(xs, pick)))

    assert max_rel_error(x.grad, numeric_gradient(lambda v: f(v, wv), xv.copy())) < 1e-6
    assert max_rel_error(w.grad, numeric_gradient(lambda v: f(xv, v), wv.copy())) < 1e-6


def test_propagate_shape_mismatch_names_all_three_shapes():
    x = Tensor(np.zeros((2, 3, 4)))
    with pytest.raises(DimensionError, match=r"\(4, 4\) x \(2, 3, 4\) x \(4, 5\)"):
        x.propagate(np.eye(4), Tensor(np.zeros((4, 5))))
    with pytest.raises(DimensionError, match=r"\(3, 3\) x \(2, 3, 4\) x \(3, 5\)"):
        x.propagate(np.eye(3), Tensor(np.zeros((3, 5))))
    with pytest.raises(DimensionError, match=r"\(3, 3\) x \(3, 4\) x \(4, 5\)"):
        Tensor(np.zeros((3, 4))).propagate(np.eye(3), Tensor(np.zeros((4, 5))))


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


def test_row_softmax_and_sum_on_batches():
    rows = Tensor([[0.0, np.log(3.0)], [5.0, 5.0]])
    assert np.allclose(rows.softmax().data, [[0.25, 0.75], [0.5, 0.5]])
    x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    (x.sum(axis=-1) * Tensor([1.0, 2.0])).sum().backward()
    assert np.array_equal(x.grad, [[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]])


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

    def test_step_is_bit_equal_to_the_full_size_update(self):
        rng = np.random.default_rng(3)
        for shape in [(512, 512), (3, 5), (1, 20000), (20000, 1), (7,), ()]:
            data, grad = rng.standard_normal(shape), rng.standard_normal(shape)
            expected = data - 0.37 * grad
            p = Tensor(data, requires_grad=True)
            p.grad = grad
            sgd_step([p], 0.37)
            assert p.data is data and np.array_equal(data, expected)

    def test_step_makes_no_parameter_sized_temporary(self):
        rng = np.random.default_rng(4)
        p = Tensor(rng.standard_normal((512, 512)), requires_grad=True)
        p.grad = rng.standard_normal((512, 512))
        tracemalloc.start()
        try:
            sgd_step([p], 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < p.data.nbytes / 4

    @pytest.mark.parametrize("layout", ["fortran", "transposed"])
    def test_step_updates_a_non_contiguous_parameter_in_place(self, layout):
        rng = np.random.default_rng(5)
        base = rng.standard_normal((300, 40))
        view = np.asfortranarray(base) if layout == "fortran" else base.T
        grad = rng.standard_normal(view.shape)
        expected = view - 0.5 * grad
        p = Tensor(view, requires_grad=True)
        p.grad = grad
        sgd_step([p], 0.5)
        assert p.data is view and np.array_equal(view, expected)
        if layout == "transposed":
            assert np.array_equal(base, expected.T)

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


def test_backward_runs_a_tape_once():
    x = Tensor([1.0], requires_grad=True)
    loss = x.affine(2.0).sum()
    loss.backward()
    assert np.array_equal(x.grad, [2.0])
    with pytest.raises(UsageError, match="already ran"):
        loss.backward()
    assert np.array_equal(x.grad, [2.0])


def test_new_loss_through_a_released_node_is_usage_error():
    x = Tensor([1.0, 2.0], requires_grad=True)
    y = x.affine(3.0)
    y.sum().backward()
    with pytest.raises(UsageError, match="already ran"):
        (y * y).sum().backward()
    assert np.array_equal(x.grad, [3.0, 3.0])


def test_tensor_used_twice_gets_the_sum_of_both_gradients():
    xv = np.array([0.5, -2.0, 3.0])
    x = Tensor(xv, requires_grad=True)
    (x * x).sum().backward()
    assert np.array_equal(x.grad, 2.0 * xv)
    x.grad = None
    (x + x).sum().backward()
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_parents_sharing_a_gradient_array_stay_independent():
    x, y = Tensor(np.zeros(3), requires_grad=True), Tensor(np.zeros(3), requires_grad=True)
    (x + y).sum().backward()
    assert np.shares_memory(x.grad, y.grad)  # add hands both parents one array
    (x * Tensor([1.0, 2.0, 3.0])).sum().backward()
    assert np.array_equal(x.grad, [2.0, 3.0, 4.0])
    assert np.array_equal(y.grad, [1.0, 1.0, 1.0])


def test_sgd_step_writes_into_no_gradient_array():
    p, q = Tensor([1.0, 2.0], requires_grad=True), Tensor([3.0, 4.0], requires_grad=True)
    (p + q).sum().backward()
    grads = [p.grad, q.grad]
    for g in grads:
        g.flags.writeable = False  # a write would raise
    sgd_step([p, q], 0.5)
    assert np.array_equal(p.data, [0.5, 1.5]) and np.array_equal(q.data, [2.5, 3.5])
    assert all(np.array_equal(g, [1.0, 1.0]) for g in grads)
    assert p.grad is None and q.grad is None


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


def test_checkpoint_with_repeated_entry_name_is_data_error(tmp_path):
    from context_rerank.errors import DataError

    # the second entry renamed to the first: read as a dict, the later value would win
    path, blob = _two_entry_checkpoint(tmp_path)
    at = blob.index(b"m/b")
    path.write_bytes(blob[:at] + b"m/w" + blob[at + 3:])
    with pytest.raises(DataError, match=f"entry 'm/w' at byte {at} repeats an earlier entry") as e:
        load_checkpoint(path)
    assert str(e.value).startswith(f"{path}: ")


def test_checkpoint_with_bad_entry_name_is_data_error(tmp_path):
    from context_rerank.errors import DataError

    path, blob = _two_entry_checkpoint(tmp_path)
    path.write_bytes(blob[:20] + b"\xff" + blob[21:])
    with pytest.raises(DataError, match="utf-8"):
        load_checkpoint(path)
