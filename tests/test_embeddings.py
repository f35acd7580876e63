import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from context_rerank.embeddings import (
    Instance,
    PartEmbedding,
    Scene,
    fused_similarity,
    labeled_pairs,
    part_cosine,
    uniform_weights,
)
from context_rerank.errors import DataError, UsageError


def unit_parts(rng, d=8):
    parts = rng.standard_normal((4, d))
    return parts / np.linalg.norm(parts, axis=1, keepdims=True)


def make_embedding(seed=0, d=8):
    return PartEmbedding.from_array(unit_parts(np.random.default_rng(seed), d))


def test_from_array_renormalizes_small_deviation():
    parts = unit_parts(np.random.default_rng(1)) * (1.0 + 5e-4)
    emb = PartEmbedding.from_array(parts)
    assert np.allclose(np.linalg.norm(emb.parts, axis=1), 1.0, atol=1e-12)


def test_from_array_rejects_bad_norm():
    parts = unit_parts(np.random.default_rng(1)) * 0.5
    with pytest.raises(DataError, match="norm"):
        PartEmbedding.from_array(parts)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_from_array_rejects_non_finite_parts(bad):
    parts = unit_parts(np.random.default_rng(1))
    parts[2, 3] = bad
    with pytest.raises(DataError, match="'middle' has norm (nan|inf)"):
        PartEmbedding.from_array(parts)


def test_part_cosine_identical_antipodal_orthogonal():
    e = make_embedding(2)
    assert part_cosine(e, e, 0) == pytest.approx(1.0, abs=1e-12)
    neg = PartEmbedding.from_array(-e.parts)
    assert part_cosine(e, neg, 1) == pytest.approx(-1.0, abs=1e-12)
    d = e.dim
    a = np.zeros((4, d))
    b = np.zeros((4, d))
    a[:, 0] = 1.0
    b[:, 1] = 1.0
    ea, eb = PartEmbedding.from_array(a), PartEmbedding.from_array(b)
    assert part_cosine(ea, eb, 3) == 0.0


def test_part_cosine_rejects_bad_index():
    e = make_embedding(3)
    with pytest.raises(UsageError):
        part_cosine(e, e, 4)


def test_uniform_weights():
    w = uniform_weights()
    assert np.array_equal(w, [0.25, 0.25, 0.25, 0.25])
    assert w.sum() == 1.0


def test_fused_similarity_is_mean_with_uniform_weights():
    a, b = make_embedding(4), make_embedding(5)
    cosines = [part_cosine(a, b, r) for r in range(4)]
    assert fused_similarity(a, b, uniform_weights()) == pytest.approx(np.mean(cosines), abs=1e-12)


def test_fused_similarity_hand_arithmetic():
    # construct embeddings with known part cosines (1.0, 0.8, 0.6, 0.4)
    d = 8
    a = np.zeros((4, d))
    b = np.zeros((4, d))
    for r, c in enumerate((1.0, 0.8, 0.6, 0.4)):
        a[r, 0] = 1.0
        b[r, 0] = c
        b[r, 1] = np.sqrt(1.0 - c * c)
    ea, eb = PartEmbedding.from_array(a), PartEmbedding.from_array(b)
    assert fused_similarity(ea, eb, uniform_weights()) == pytest.approx(0.7, abs=1e-12)


def test_fused_similarity_self_is_one_for_any_weights():
    e = make_embedding(6)
    w = np.array([0.1, 0.2, 0.3, 0.4])
    assert fused_similarity(e, e, w) == pytest.approx(1.0, abs=1e-9)


def test_fused_similarity_rejects_bad_weights():
    a, b = make_embedding(7), make_embedding(8)
    with pytest.raises(UsageError):
        fused_similarity(a, b, np.array([0.5, 0.5, 0.5, 0.5]))
    with pytest.raises(UsageError):
        fused_similarity(a, b, np.array([1.5, -0.5, 0.0, 0.0]))


@settings(deadline=None, max_examples=50)
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
def test_fused_similarity_symmetric_and_bounded(seed_a, seed_b):
    a, b = make_embedding(seed_a), make_embedding(seed_b)
    rng = np.random.default_rng(seed_a ^ seed_b)
    w = rng.dirichlet(np.ones(4))
    s_ab = fused_similarity(a, b, w)
    assert s_ab == fused_similarity(b, a, w)
    assert -1.0 - 1e-9 <= s_ab <= 1.0 + 1e-9
    # brute-force re-summation oracle
    brute = sum(w[r] * float(np.dot(a.parts[r], b.parts[r])) for r in range(4))
    assert s_ab == pytest.approx(brute, abs=1e-12)


def test_fused_similarity_linear_in_weights():
    a, b = make_embedding(10), make_embedding(11)
    w1 = np.array([0.7, 0.1, 0.1, 0.1])
    w2 = np.array([0.1, 0.1, 0.1, 0.7])
    mid = 0.5 * w1 + 0.5 * w2
    assert fused_similarity(a, b, mid) == pytest.approx(
        0.5 * fused_similarity(a, b, w1) + 0.5 * fused_similarity(a, b, w2), abs=1e-12
    )


def test_instance_and_scene_validation():
    e = make_embedding(12)
    with pytest.raises(DataError):
        Instance("i1", "s1", (0, 0, -5, 10), 1, e)
    inst = Instance("i1", "s1", (0, 0, 5, 10), 1, e)
    with pytest.raises(DataError):
        Scene("other", "cam0", (inst,))
    Scene("s1", "cam0", (inst,))


def test_equality_and_hash_follow_the_parts():
    a, b = make_embedding(3), make_embedding(3)
    other = make_embedding(4)
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != other
    inst, copy = (Instance("i1", "s1", (0, 0, 5, 10), 1, e) for e in (a, b))
    assert inst == copy and inst in [copy] and len({inst, copy}) == 1
    assert inst != Instance("i1", "s1", (0, 0, 5, 10), 1, other)
    assert {Scene("s1", "cam0", (inst,)), Scene("s1", "cam0", (copy,))} == {Scene("s1", "cam0", (inst,))}


def test_labeled_pairs_order():
    # persons sorted by id; identities in order of their first person; pairs
    # (a, b) with a before b, same-scene and unlabeled persons left out
    def scene(scene_id, people):
        return Scene(scene_id, "cam0", tuple(
            Instance(iid, scene_id, (0, 0, 5, 9), ident, make_embedding(n)) for n, (iid, ident) in enumerate(people)
        ))

    scenes = [
        scene("s1", [("b1", 7), ("a1", 3), ("c1", None)]),
        scene("s0", [("a0", 3), ("b0", 7), ("d0", 3)]),
        scene("s2", [("a2", 3)]),
    ]
    labeled, pairs = labeled_pairs(scenes)
    assert [i.instance_id for i in labeled] == ["a0", "a1", "a2", "b0", "b1", "d0"]
    assert [(a.instance_id, b.instance_id) for a, b in pairs] == [
        ("a0", "a1"), ("a0", "a2"), ("a1", "a2"), ("a1", "d0"), ("a2", "d0"), ("b0", "b1"),
    ]
