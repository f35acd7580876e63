import itertools

import numpy as np
import pytest

from context_rerank.dataio import Dataset, SynthConfig, generate_synthetic, validate
from context_rerank.embeddings import Instance, PartEmbedding, Scene
from context_rerank.errors import ConfigError, DataError
from context_rerank.evaluation import (
    NoRelevantError,
    average_precision,
    evaluate,
    gallery_sweep,
    rank_gallery,
    reports_csv,
    select_queries,
)
from context_rerank.scoring import OracleScorer, RandomScorer, UniformScorer


def brute_force_ap(relevance):
    # textbook definition, written independently of the implementation
    precisions = []
    hits = 0
    for k, rel in enumerate(relevance, start=1):
        if rel:
            hits += 1
            precisions.append(hits / k)
    return sum(precisions) / len(precisions)


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert average_precision([True, True, False, False]) == 1.0

    def test_single_relevant_at_rank_k(self):
        for k in range(1, 6):
            rel = [False] * (k - 1) + [True]
            assert average_precision(rel) == pytest.approx(1.0 / k)

    def test_hand_example(self):
        # relevant at ranks 1 and 3: (1/1 + 2/3) / 2
        assert average_precision([True, False, True]) == pytest.approx(5.0 / 6.0)

    def test_no_relevant_raises(self):
        with pytest.raises(NoRelevantError):
            average_precision([False, False])

    def test_exhaustive_oracle_all_length_10_lists(self):
        # every boolean relevance list of length 10 with >= 1 relevant entry
        for bits in itertools.product([False, True], repeat=10):
            if not any(bits):
                continue
            assert average_precision(bits) == pytest.approx(brute_force_ap(bits), abs=1e-12)


@pytest.fixture(scope="module")
def small_dataset():
    cfg = SynthConfig(
        num_identities=30,
        num_cameras=3,
        scenes_per_camera=12,
        instances_per_scene=4,
        dim=16,
        seed=7,
    )
    return generate_synthetic(cfg)


class TestEvaluate:
    def test_oracle_scorer_is_perfect(self, small_dataset):
        queries = select_queries(small_dataset.scenes, 40, seed=1)
        rep = evaluate(queries, small_dataset.scenes, OracleScorer(), 10, seed=1)
        assert rep.map == pytest.approx(1.0)
        assert rep.top1 == pytest.approx(1.0)

    def test_random_scorer_near_simulated_baseline(self, small_dataset):
        queries = select_queries(small_dataset.scenes, 60, seed=2)
        rep = evaluate(queries, small_dataset.scenes, RandomScorer(seed=3), 10, seed=2)

        # Monte-Carlo oracle: shuffle each query's relevance labels uniformly
        rng = np.random.default_rng(0)
        sims = []
        for probe_scene, query in queries:
            res = rank_gallery(
                query,
                [s for s in small_dataset.scenes if s.scene_id != probe_scene.scene_id][:10],
                OracleScorer(),
                probe_scene,
            )
            labels = np.array(res.relevance)
            if not labels.any():
                continue
            for _ in range(40):
                rng.shuffle(labels)
                sims.append(average_precision(labels))
        assert abs(rep.map - np.mean(sims)) < 0.05

    def test_same_seed_identical_report(self, small_dataset):
        queries = select_queries(small_dataset.scenes, 30, seed=4)
        r1 = evaluate(queries, small_dataset.scenes, UniformScorer(), 12, seed=9)
        r2 = evaluate(queries, small_dataset.scenes, UniformScorer(), 12, seed=9)
        assert r1 == r2

    def test_positives_always_present(self, small_dataset):
        # forced-in positive scenes mean no query silently loses its matches
        queries = select_queries(small_dataset.scenes, 30, seed=5)
        rep = evaluate(queries, small_dataset.scenes, UniformScorer(), 5, seed=5)
        assert rep.num_queries + rep.excluded_queries == len(queries)
        assert rep.num_queries > 0

    def test_gallery_size_bounds(self, small_dataset):
        queries = select_queries(small_dataset.scenes, 10, seed=6)
        with pytest.raises(ConfigError):
            evaluate(queries, small_dataset.scenes, UniformScorer(), 0)
        with pytest.raises(ConfigError):
            evaluate(queries, small_dataset.scenes, UniformScorer(), len(small_dataset.scenes) + 1)

    def test_select_queries_all_have_cross_scene_match(self, small_dataset):
        for probe_scene, q in select_queries(small_dataset.scenes):
            others = [
                i
                for s in small_dataset.scenes
                if s.scene_id != probe_scene.scene_id
                for i in s.instances
            ]
            assert any(i.identity == q.identity for i in others)


def grouping_corpus():
    """Scenes (id, camera, persons as (instance id, identity)) that cover
    each way a labeled person can or cannot have a cross-scene match.
    Instance ids do not sort in scene order."""
    rng = np.random.default_rng(0)

    def person(iid, scene_id, identity):
        parts = rng.standard_normal((4, 8))
        parts /= np.linalg.norm(parts, axis=1, keepdims=True)
        return Instance(iid, scene_id, (0, 0, 4, 8), identity, PartEmbedding.from_array(parts))

    layout = [
        ("sA", "cam0", [("z1", 1), ("z2", 1), ("m3", 2)]),  # identity 1 twice here and nowhere else
        ("sB", "cam0", [("b1", 2), ("y2", None)]),  # identity 2 again on the same camera; unlabeled y2
        ("sC", "cam1", [("k1", 3), ("a2", 5)]),
        ("sD", "cam2", [("c1", 3)]),  # singleton scene; identity 3 across cameras
        ("sE", "cam2", [("e1", 5), ("e2", 6)]),  # identity 5 across cameras; identity 6 seen once
    ]
    return [Scene(sid, cam, tuple(person(iid, sid, ident) for iid, ident in people))
            for sid, cam, people in layout]


class TestIdentityGrouping:
    def test_queries_are_the_persons_with_a_cross_scene_match(self):
        queries = select_queries(grouping_corpus())
        assert [(s.scene_id, q.instance_id) for s, q in queries] == [
            ("sA", "m3"), ("sB", "b1"), ("sC", "a2"), ("sC", "k1"), ("sD", "c1"), ("sE", "e1"),
        ]

    def test_validate_counts(self):
        report = validate(Dataset(d=8, scenes=tuple(grouping_corpus())))
        assert report == {
            "num_scenes": 5,
            "num_instances": 10,
            "num_identities": 5,
            "singleton_scenes": 1,
            "positive_pairs": 3,  # (m3, b1), (k1, c1) and (a2, e1)
            "cross_camera_positive_pairs": 2,  # (k1, c1) and (a2, e1)
            "graph_trainable_pairs": 2,  # (m3, b1) and (a2, e1); (k1, c1) touches the singleton sD
            "warnings": [],
        }


class TestSweepAndCsv:
    def test_sweep_one_report_per_size(self, small_dataset):
        queries = select_queries(small_dataset.scenes, 20, seed=7)
        reports = gallery_sweep([5, 10, 15], queries, small_dataset.scenes, UniformScorer(), seed=7)
        assert [r.gallery_size for r in reports] == [5, 10, 15]

    def test_sweep_checks_every_size_before_ranking(self, small_dataset):
        calls = []

        class Recording(UniformScorer):
            def score_gallery(self, probe_scene, probe, gallery_scenes):
                calls.append(probe.instance_id)
                return super().score_gallery(probe_scene, probe, gallery_scenes)

        queries = select_queries(small_dataset.scenes, 10, seed=8)
        with pytest.raises(ConfigError, match="gallery_size 999 exceeds corpus of"):
            gallery_sweep([5, 10, 999], queries, small_dataset.scenes, Recording(), seed=8)
        assert calls == []

    def test_gallery_size_is_at_most_the_scenes_less_the_probes_own(self, small_dataset):
        # a query's gallery leaves out the probe's scene, so the largest
        # gallery has every other scene and one more is refused
        scenes = small_dataset.scenes
        sizes = []

        class Recording(UniformScorer):
            def score_gallery(self, probe_scene, probe, gallery_scenes):
                sizes.append(len(gallery_scenes))
                return super().score_gallery(probe_scene, probe, gallery_scenes)

        queries = select_queries(scenes, 5, seed=3)
        assert evaluate(queries, scenes, Recording(), len(scenes) - 1).gallery_size == len(scenes) - 1
        assert sizes == [len(scenes) - 1] * len(queries)
        with pytest.raises(ConfigError, match=f"gallery_size {len(scenes)} exceeds corpus of {len(scenes)} scenes"):
            evaluate(queries, scenes, Recording(), len(scenes))
        assert len(sizes) == len(queries)

    def test_csv_layout(self, small_dataset):
        queries = select_queries(small_dataset.scenes, 10, seed=8)
        reports = gallery_sweep([5, 10], queries, small_dataset.scenes, UniformScorer(), seed=8)
        lines = reports_csv(reports).strip().split("\n")
        assert lines[0] == "scorer,gallery_size,map,top1,num_queries,excluded_queries"
        assert len(lines) == 3
        assert lines[1].startswith("uniform,5,")
