import json

import numpy as np
import pytest

from context_rerank.dataio import (
    Dataset,
    DatasetManifest,
    SynthConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    validate,
)
from context_rerank.embeddings import Instance, PartEmbedding, Scene
from context_rerank.errors import ConfigError, DataError

SMALL = dict(
    num_identities=20,
    num_cameras=3,
    scenes_per_camera=8,
    instances_per_scene=4,
    dim=16,
    seed=11,
)


class TestManifest:
    def test_rejects_wrong_part_count(self):
        with pytest.raises(DataError):
            DatasetManifest(1, 16, r=3)

    def test_rejects_tiny_dimension(self):
        with pytest.raises(DataError):
            DatasetManifest(1, 1)


class TestRoundTrip:
    def test_save_load_structurally_identical(self, tmp_path):
        ds = generate_synthetic(SynthConfig(**SMALL))
        path = tmp_path / "ds.jsonl"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.d == ds.d
        assert len(loaded.scenes) == len(ds.scenes)
        for s1, s2 in zip(ds.scenes, loaded.scenes):
            assert s1.scene_id == s2.scene_id
            assert s1.camera_id == s2.camera_id
            for i1, i2 in zip(s1.instances, s2.instances):
                assert i1.instance_id == i2.instance_id
                assert i1.identity == i2.identity
                assert i1.box == i2.box
                assert i1.embedding.parts.tobytes() == i2.embedding.parts.tobytes()

    def test_save_is_byte_deterministic(self, tmp_path):
        ds = generate_synthetic(SynthConfig(**SMALL))
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_dataset(ds, p1)
        save_dataset(ds, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_scene_list_is_valid(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        save_dataset(Dataset(d=8, scenes=()), path)
        loaded = load_dataset(path)
        assert loaded.scenes == ()

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "zero.jsonl"
        path.write_text("")
        with pytest.raises(DataError, match="header"):
            load_dataset(path)

    def test_parse_error_names_line(self, tmp_path):
        ds = generate_synthetic(SynthConfig(**SMALL))
        path = tmp_path / "broken.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines[3] = "{not json"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=":4:"):
            load_dataset(path)

    def test_corrupt_norm_names_instance(self, tmp_path):
        ds = generate_synthetic(SynthConfig(**SMALL))
        path = tmp_path / "badnorm.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        iid = rec["instances"][0]["instance_id"]
        half = np.frombuffer(bytes.fromhex(rec["instances"][0]["parts"]), dtype="<f8") * 0.5
        rec["instances"][0]["parts"] = half.tobytes().hex()
        lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=iid):
            load_dataset(path)

    def test_non_finite_part_names_file_and_instance(self, tmp_path):
        ds = generate_synthetic(SynthConfig(**SMALL))
        path = tmp_path / "nan.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[1])
        iid = rec["instances"][0]["instance_id"]
        parts = np.frombuffer(bytes.fromhex(rec["instances"][0]["parts"]), dtype="<f8").copy()
        parts[5] = np.nan
        rec["instances"][0]["parts"] = parts.tobytes().hex()
        lines[1] = json.dumps(rec, sort_keys=True, separators=(",", ":"))
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"{iid} .*nan.jsonl:2.*norm nan"):
            load_dataset(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        ds = generate_synthetic(SynthConfig(**SMALL))
        path = tmp_path / "dup.jsonl"
        save_dataset(ds, path)
        lines = path.read_text().splitlines()
        lines.append(lines[1])
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(path)


def _set(rec, key, value):
    rec[key] = value


MALFORMED = {
    # name: (line to edit, edit of its JSON record)
    "missing_key": (2, lambda rec: rec["instances"][0].pop("box")),
    "non_hex_parts": (2, lambda rec: _set(rec["instances"][0], "parts", "zz" + rec["instances"][0]["parts"][2:])),
    "string_identity": (2, lambda rec: _set(rec["instances"][0], "identity", "7")),
    "two_element_box": (2, lambda rec: _set(rec["instances"][0], "box", [1.0, 2.0])),
    "non_list_instances": (2, lambda rec: _set(rec, "instances", 5)),
    "string_header_d": (1, lambda rec: _set(rec, "d", "x")),
    "float_identity": (2, lambda rec: _set(rec["instances"][0], "identity", 1.5)),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("name", sorted(MALFORMED))
    def test_is_data_error_naming_file_and_line(self, tmp_path, name):
        line, edit = MALFORMED[name]
        path = tmp_path / "bad.jsonl"
        save_dataset(generate_synthetic(SynthConfig(**SMALL)), path)
        lines = path.read_text().splitlines()
        rec = json.loads(lines[line - 1])
        edit(rec)
        lines[line - 1] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=f"bad.jsonl:{line}:"):
            load_dataset(path)

    def test_non_utf8_names_file(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        save_dataset(generate_synthetic(SynthConfig(**SMALL)), path)
        raw = path.read_bytes()
        second = raw.index(b"\n") + 1
        path.write_bytes(raw[:second] + b"\xff" + raw[second + 1:])
        with pytest.raises(DataError, match="bad.jsonl: not utf-8"):
            load_dataset(path)


class TestGenerator:
    def test_deterministic_per_seed(self, tmp_path):
        cfg = SynthConfig(**SMALL)
        p1, p2 = tmp_path / "r1.jsonl", tmp_path / "r2.jsonl"
        save_dataset(generate_synthetic(cfg), p1)
        save_dataset(generate_synthetic(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_different_seed_differs(self):
        a = generate_synthetic(SynthConfig(**SMALL))
        b = generate_synthetic(SynthConfig(**{**SMALL, "seed": 12}))
        assert a != b

    def test_noiseless_same_identity_cosines_are_one(self):
        cfg = SynthConfig(**{**SMALL, "view_noise_sigma": 0.0, "part_dropout_prob": 0.0})
        ds = generate_synthetic(cfg)
        by_identity = {}
        for s in ds.scenes:
            for i in s.instances:
                by_identity.setdefault(i.identity, []).append(i)
        checked = 0
        for insts in by_identity.values():
            for i in range(1, len(insts)):
                cos = np.einsum("rd,rd->r", insts[0].embedding.parts, insts[i].embedding.parts)
                assert np.allclose(cos, 1.0, atol=1e-9)
                checked += 1
        assert checked > 0

    def test_same_identity_cosine_decreases_with_sigma(self):
        # Monte-Carlo over a sigma grid; mean whole-part cosine must fall
        means = []
        for sigma in (0.0, 0.5, 1.5):
            ds = generate_synthetic(
                SynthConfig(**{**SMALL, "view_noise_sigma": sigma, "part_dropout_prob": 0.0})
            )
            by_identity = {}
            for s in ds.scenes:
                for i in s.instances:
                    by_identity.setdefault(i.identity, []).append(i)
            cosines = []
            for insts in by_identity.values():
                for i in range(len(insts)):
                    for j in range(i + 1, len(insts)):
                        cosines.append(
                            float(np.dot(insts[i].embedding.parts[0], insts[j].embedding.parts[0]))
                        )
            means.append(np.mean(cosines))
        assert means[0] > means[1] > means[2]

    def test_all_embeddings_unit_norm(self):
        ds = generate_synthetic(SynthConfig(**SMALL))
        for s in ds.scenes:
            for i in s.instances:
                assert np.allclose(np.linalg.norm(i.embedding.parts, axis=1), 1.0, atol=1e-12)

    def test_full_co_travel_guarantees_context(self):
        cfg = SynthConfig(**{**SMALL, "co_travel_prob": 1.0, "group_size_mean": 3.0})
        ds = generate_synthetic(cfg)
        scene_of = {s.scene_id: s for s in ds.scenes}
        by_identity = {}
        for s in ds.scenes:
            for i in s.instances:
                by_identity.setdefault(i.identity, []).append(i)
        for insts in by_identity.values():
            for i in range(len(insts)):
                for j in range(i + 1, len(insts)):
                    a, b = insts[i], insts[j]
                    if a.scene_id == b.scene_id:
                        continue
                    sa, sb = scene_of[a.scene_id], scene_of[b.scene_id]
                    if sa.camera_id == sb.camera_id:
                        continue
                    assert len(sa.instances) > 1 and len(sb.instances) > 1

    def test_infeasible_config_rejected(self):
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "instances_per_scene": 50})
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "co_travel_prob": 1.5})
        with pytest.raises(ConfigError):
            SynthConfig(**{**SMALL, "view_noise_sigma": -0.1})


class TestValidate:
    def test_generator_defaults_have_no_warnings(self):
        report = validate(generate_synthetic(SynthConfig(dim=16)))
        assert report["warnings"] == []
        assert report["num_identities"] == 200

    def test_identity_count_matches_config(self):
        cfg = SynthConfig(**SMALL)
        report = validate(generate_synthetic(cfg))
        assert report["num_identities"] <= cfg.num_identities
        assert report["num_identities"] > 0

    @pytest.mark.parametrize("change", [{"num_cameras": 1}, {"co_travel_prob": 0.0}])
    def test_corpus_without_a_positive_pair_warns_of_that(self, change):
        report = validate(generate_synthetic(SynthConfig(**{**SMALL, **change})))
        assert report["positive_pairs"] == 0
        assert report["singleton_scenes"] == 0
        assert report["warnings"] == ["no positive pair: no identity appears in two scenes, "
                                      "so no query can be evaluated"]

    def test_singleton_only_dataset_warns(self):
        rng = np.random.default_rng(0)
        scenes = []
        for s in range(3):
            parts = rng.standard_normal((4, 8))
            parts /= np.linalg.norm(parts, axis=1, keepdims=True)
            inst = Instance(f"s{s}i0", f"s{s}", (0, 0, 4, 4), 1, PartEmbedding.from_array(parts))
            scenes.append(Scene(f"s{s}", f"cam{s}", (inst,)))
        report = validate(Dataset(d=8, scenes=tuple(scenes)))
        assert report["singleton_scenes"] == 3
        assert report["graph_trainable_pairs"] == 0
        assert report["warnings"] == ["zero graph-trainable pairs: every positive pair involves a singleton scene"]
