import itertools
import zlib

import numpy as np
import pytest

from context_rerank.embeddings import Instance, PartEmbedding, Scene
from context_rerank.errors import UsageError
from context_rerank.expansion import ContextPair, enumerate_candidates, expand, scene_contexts, select_top_k


def make_instance(iid, scene_id, identity=None, seed=None):
    rng = np.random.default_rng(seed if seed is not None else abs(hash(iid)) % 2**32)
    parts = rng.standard_normal((4, 8))
    parts /= np.linalg.norm(parts, axis=1, keepdims=True)
    return Instance(iid, scene_id, (0, 0, 10, 20), identity, PartEmbedding.from_array(parts))


def make_scene(scene_id, ids, cam="cam0"):
    return Scene(scene_id, cam, tuple(make_instance(i, scene_id) for i in ids))


def table_scorer(scores, default=0.0):
    return lambda p, g: scores.get((p.instance_id, g.instance_id), default)


def greedy_oracle(cands, scores, k):
    """The greedy rule replayed by brute force: sort by (-score, probe id,
    gallery id), then take each pair whose ids are both unused."""
    order = sorted(cands, key=lambda c: (-scores[(c[0].instance_id, c[1].instance_id)],
                                         c[0].instance_id, c[1].instance_id))
    expected = []
    used_p, used_g = set(), set()
    for p, g in order:
        if len(expected) == k or p.instance_id in used_p or g.instance_id in used_g:
            continue
        expected.append((p.instance_id, g.instance_id))
        used_p.add(p.instance_id)
        used_g.add(g.instance_id)
    return expected


def random_scenes(rng, max_persons=5):
    """A scene pair of 1..max_persons persons each, ids not in scene order."""
    n_p, n_g = rng.integers(1, max_persons + 1, size=2)
    ps = make_scene("sp", [f"p{i}" for i in rng.permutation(n_p)])
    gs = make_scene("sg", [f"g{i}" for i in rng.permutation(n_g)])
    return ps, gs


def random_scores(rng, ps, gs, levels):
    """Scores on a grid of ``levels`` values, so a coarse grid makes ties."""
    return {(p.instance_id, g.instance_id): float(rng.integers(levels)) / levels
            for p in ps.instances for g in gs.instances}


class TestEnumerate:
    def test_cross_product_size(self):
        probe_scene = make_scene("sp", ["p0", "p1", "p2", "p3"])
        gallery_scene = make_scene("sg", ["g0", "g1", "g2"])
        cands = enumerate_candidates(probe_scene, probe_scene.instances[0], gallery_scene, gallery_scene.instances[0])
        assert len(cands) == 3 * 2

    def test_singleton_probe_scene_gives_empty(self):
        probe_scene = make_scene("sp", ["p0"])
        gallery_scene = make_scene("sg", ["g0", "g1"])
        assert enumerate_candidates(probe_scene, probe_scene.instances[0], gallery_scene, gallery_scene.instances[0]) == []

    def test_target_must_be_in_scene(self):
        probe_scene = make_scene("sp", ["p0"])
        stray = make_instance("x", "sp")
        gallery_scene = make_scene("sg", ["g0"])
        with pytest.raises(UsageError):
            enumerate_candidates(probe_scene, stray, gallery_scene, gallery_scene.instances[0])

    def test_membership_is_by_id(self):
        # an equal-id person with its own embedding object is the scene's person
        probe_scene = make_scene("sp", ["p0", "p1"])
        gallery_scene = make_scene("sg", ["g0", "g1"])
        twin = make_instance("p0", "sp", seed=99)
        cands = enumerate_candidates(probe_scene, twin, gallery_scene, gallery_scene.instances[0])
        assert [(p.instance_id, g.instance_id) for p, g in cands] == [("p1", "g1")]

    def test_no_candidate_contains_a_target(self):
        rng = np.random.default_rng(0)
        for trial in range(20):
            np_ids = [f"p{i}" for i in range(rng.integers(1, 5))]
            ng_ids = [f"g{i}" for i in range(rng.integers(1, 5))]
            ps = make_scene("sp", np_ids)
            gs = make_scene("sg", ng_ids)
            probe = ps.instances[rng.integers(len(ps.instances))]
            gallery = gs.instances[rng.integers(len(gs.instances))]
            for p, g in enumerate_candidates(ps, probe, gs, gallery):
                assert p.instance_id != probe.instance_id
                assert g.instance_id != gallery.instance_id


class TestSelectTopK:
    def test_greedy_trace(self):
        ps = make_scene("sp", ["p1", "p2"])
        gs = make_scene("sg", ["g1", "g2"])
        p1, p2 = ps.instances
        g1, g2 = gs.instances
        scorer = table_scorer({("p1", "g1"): 0.9, ("p1", "g2"): 0.8, ("p2", "g2"): 0.7}, default=-1.0)
        chosen = select_top_k([(p1, g1), (p1, g2), (p2, g2)], scorer, 2)
        assert [(c.probe_ctx.instance_id, c.gallery_ctx.instance_id, c.score) for c in chosen] == [
            ("p1", "g1", 0.9),
            ("p2", "g2", 0.7),
        ]

    def test_fewer_candidates_than_k(self):
        ps = make_scene("sp", ["p1"])
        gs = make_scene("sg", ["g1"])
        chosen = select_top_k([(ps.instances[0], gs.instances[0])], lambda p, g: 0.5, 3)
        assert len(chosen) == 1

    def test_one_to_one_no_instance_reuse(self):
        ps = make_scene("sp", [f"p{i}" for i in range(4)])
        gs = make_scene("sg", [f"g{i}" for i in range(4)])
        rng = np.random.default_rng(5)
        scores = {(p.instance_id, g.instance_id): float(rng.random()) for p in ps.instances for g in gs.instances}
        chosen = select_top_k(list(itertools.product(ps.instances, gs.instances)), table_scorer(scores), 4)
        probe_ids = [c.probe_ctx.instance_id for c in chosen]
        gallery_ids = [c.gallery_ctx.instance_id for c in chosen]
        assert len(set(probe_ids)) == len(probe_ids)
        assert len(set(gallery_ids)) == len(gallery_ids)

    def test_matches_exhaustive_greedy_oracle(self):
        # all <=4x4 score tables; the coarse grid (3 levels) ties scores of
        # pairs whose ids are not in scene order
        rng = np.random.default_rng(11)
        for levels in [1000] * 30 + [3] * 30:
            ps, gs = random_scenes(rng, 4)
            scores = random_scores(rng, ps, gs, levels)
            cands = list(itertools.product(ps.instances, gs.instances))
            k = int(rng.integers(1, 5))
            got = select_top_k(cands, table_scorer(scores), k)
            assert [(c.probe_ctx.instance_id, c.gallery_ctx.instance_id) for c in got] == greedy_oracle(cands, scores, k)


class TestExpand:
    def _scenes(self):
        ps = make_scene("sp", ["pt", "p1"])
        gs = make_scene("sg", ["gt", "g1"])
        return ps, gs

    def test_replication_fills_to_k(self):
        ps, gs = self._scenes()
        ep = expand(ps, ps.instances[0], gs, gs.instances[0], lambda p, g: 0.4, k=3, seed=0)
        assert len(ep.contexts) == 3
        assert not ep.degenerate
        ids = {(c.probe_ctx.instance_id, c.gallery_ctx.instance_id) for c in ep.contexts}
        assert ids == {("p1", "g1")}

    def test_enough_contexts_no_replication(self):
        ps = make_scene("sp", ["pt"] + [f"p{i}" for i in range(4)])
        gs = make_scene("sg", ["gt"] + [f"g{i}" for i in range(4)])
        rng = np.random.default_rng(1)
        scores = {(p.instance_id, g.instance_id): float(rng.random()) for p in ps.instances for g in gs.instances}
        ep = expand(ps, ps.instances[0], gs, gs.instances[0], table_scorer(scores), k=3, seed=0)
        assert len(ep.contexts) == 3
        pairs = [(c.probe_ctx.instance_id, c.gallery_ctx.instance_id) for c in ep.contexts]
        assert len(set(pairs)) == 3
        assert [c.score for c in ep.contexts] == sorted((c.score for c in ep.contexts), reverse=True)

    def test_zero_contexts_flagged_degenerate(self):
        ps = make_scene("sp", ["pt"])
        gs = make_scene("sg", ["gt"])
        ep = expand(ps, ps.instances[0], gs, gs.instances[0], lambda p, g: 0.0, k=3, seed=0)
        assert ep.degenerate
        assert ep.contexts == ()

    def test_deterministic_under_fixed_seed(self):
        ps = make_scene("sp", ["pt", "p1", "p2"])
        gs = make_scene("sg", ["gt", "g1"])
        rng = np.random.default_rng(2)
        scores = {(p.instance_id, g.instance_id): float(rng.random()) for p in ps.instances for g in gs.instances}
        runs = [
            expand(ps, ps.instances[0], gs, gs.instances[0], table_scorer(scores), k=5, seed=123)
            for _ in range(3)
        ]
        first = [(c.probe_ctx.instance_id, c.gallery_ctx.instance_id, c.score) for c in runs[0].contexts]
        for ep in runs[1:]:
            assert [(c.probe_ctx.instance_id, c.gallery_ctx.instance_id, c.score) for c in ep.contexts] == first


    def test_replication_is_sorted_random_draws(self):
        # reference: K - n seeded draws from the n chosen contexts, sorted
        # with them by (-score, probe id, gallery id)
        rng = np.random.default_rng(31)
        for trial in range(40):
            ps, gs = random_scenes(rng, 3)
            scores = random_scores(rng, ps, gs, 3)
            probe, target = ps.instances[0], gs.instances[0]
            k = 5
            ep = expand(ps, probe, gs, target, table_scorer(scores), k=k, seed=trial)
            chosen = select_top_k(enumerate_candidates(ps, probe, gs, target), table_scorer(scores), k)
            if not chosen:
                assert ep.degenerate
                continue
            tag = f"{probe.instance_id}|{target.instance_id}".encode()
            draws = np.random.default_rng((trial, zlib.crc32(tag))).integers(0, len(chosen), size=k - len(chosen))
            expected = sorted(chosen + [chosen[i] for i in draws],
                              key=lambda c: (-c.score, c.probe_ctx.instance_id, c.gallery_ctx.instance_id))
            assert [(c.probe_ctx.instance_id, c.gallery_ctx.instance_id, c.score) for c in ep.contexts] == [
                (c.probe_ctx.instance_id, c.gallery_ctx.instance_id, c.score) for c in expected]


class TestSceneContexts:
    def test_matches_expand_per_target(self):
        # every target of a scene pair from one table, against expand with
        # per-pair lookups: ties, ids out of scene order, replication and
        # degenerate targets included; then an all-tie grid, where only the
        # id ranks order the candidates, and crowded scenes of up to 12
        # persons a side
        rng = np.random.default_rng(21)
        trials = [(1000, 5)] * 40 + [(3, 5)] * 40 + [(1, 5)] * 20 + [(1000, 12)] * 20
        for trial, (levels, persons) in enumerate(trials):
            ps, gs = random_scenes(rng, persons)
            scores = random_scores(rng, ps, gs, levels)
            table = np.array([[scores[(p.instance_id, g.instance_id)] for g in gs.instances]
                              for p in ps.instances])
            row = int(rng.integers(len(ps.instances)))
            probe = ps.instances[row]
            k = int(rng.integers(1, 5))
            nodes = scene_contexts(table, ps, row, gs, k=k, seed=trial)
            expected = []
            for target in gs.instances:
                ep = expand(ps, probe, gs, target, table_scorer(scores), k=k, seed=trial)
                if not ep.degenerate:
                    pairs = [(probe, target)] + [(c.probe_ctx, c.gallery_ctx) for c in ep.contexts]
                    expected.append([[ps.instances.index(p) for p, _ in pairs],
                                     [gs.instances.index(g) for _, g in pairs]])
            assert nodes.dtype.kind == "i"
            assert nodes.shape == (len(expected), 2, k + 1)
            assert nodes.tolist() == expected

    def test_no_candidate_gives_an_empty_integer_array(self):
        ps, gs = make_scene("sp", ["p0"]), make_scene("sg", ["g0", "g1"])
        nodes = scene_contexts(np.zeros((1, 2)), ps, 0, gs, k=3)
        assert nodes.shape == (0, 2, 4)
        assert nodes.dtype.kind == "i"
