import inspect
import logging

import numpy as np
import pytest

from context_rerank.attention import (
    DEFAULT_HIDDEN,
    DEFAULT_PAIR_NEG_RATIO,
    AttentionParams,
    VerificationConfig,
    init_attention_params,
    train_attention,
)
from context_rerank.autodiff import SgdConfig, load_checkpoint, save_checkpoint
from context_rerank.cli import _build_configs, build_parser, run
from context_rerank.dataio import load_dataset
from context_rerank.evaluation import rank_gallery
from context_rerank.graph import (
    DEFAULT_TARGET_NEG_RATIO,
    READOUT_DIM,
    GcnParams,
    build_graph_samples,
    build_labeled_expansions,
)
from context_rerank.scoring import GraphScorer, SiameseScorer
from context_rerank.siamese import SiameseParams

GEN_ARGS = [
    "gen",
    "--identities", "16",
    "--cameras", "3",
    "--scenes-per-camera", "6",
    "--instances-per-scene", "4",
    "--dim", "16",
    "--seed", "5",
]

TRAIN_ARGS = ["--lr", "0.1", "--epochs", "2", "--batch-size", "16", "--seed", "5", "--hidden", "8"]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Dataset plus small trained checkpoints shared by the CLI tests: the
    paired and the siamese graph model are trained with K=2."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "ds.jsonl"
    attn = root / "attn.ckpt"
    gcn = root / "gcn.ckpt"
    siamese = root / "siamese.ckpt"
    assert run(GEN_ARGS + ["--out", str(data)]) == 0
    assert run(["train-attn", "--data", str(data), "--out", str(attn)] + TRAIN_ARGS) == 0
    assert (
        run(
            ["train-gcn", "--data", str(data), "--attn", str(attn), "--out", str(gcn),
             "--context-k", "2", "--lr", "0.1", "--epochs", "2", "--batch-size", "16", "--seed", "5"]
        )
        == 0
    )
    assert run(["train-gcn", "--data", str(data), "--attn", str(attn), "--out", str(siamese),
                "--mode", "siamese", "--context-k", "2", "--epochs", "1", "--batch-size", "16", "--seed", "5"]) == 0
    return {"root": root, "data": data, "attn": attn, "gcn": gcn, "siamese": siamese}


class TestGen:
    def test_gen_is_byte_deterministic(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(GEN_ARGS + ["--out", str(p1)]) == 0
        assert run(GEN_ARGS + ["--out", str(p2)]) == 0
        assert p1.read_bytes() == p2.read_bytes()

    def test_gen_seed_changes_output(self, tmp_path):
        p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert run(GEN_ARGS + ["--out", str(p1)]) == 0
        assert run(GEN_ARGS[:-1] + ["6", "--out", str(p2)]) == 0
        assert p1.read_bytes() != p2.read_bytes()

    def test_infeasible_config_exits_2(self, tmp_path):
        code = run(GEN_ARGS + ["--instances-per-scene", "50", "--out", str(tmp_path / "x.jsonl")])
        assert code == 2

    @pytest.mark.parametrize("flags", [["--cameras", "1"], ["--co-travel-prob", "0"]], ids="_".join)
    def test_corpus_without_a_positive_pair_exits_2_writing_nothing(self, tmp_path, caplog, flags):
        # no identity in two scenes: eval would find no query to rank
        out = tmp_path / "new" / "x.jsonl"
        assert run(["gen", "--identities", "24", *flags, "--out", str(out)]) == 2
        assert "no identity is in two scenes" in caplog.text
        assert "--cameras" in caplog.text and "--co-travel-prob" in caplog.text
        assert "no positive pair" in caplog.text
        assert "singleton scene" not in caplog.text
        assert not (tmp_path / "new").exists()


class TestTraining:
    def test_train_attn_deterministic(self, workspace, tmp_path):
        rerun = tmp_path / "attn2.ckpt"
        assert run(["train-attn", "--data", str(workspace["data"]), "--out", str(rerun)] + TRAIN_ARGS) == 0
        assert rerun.read_bytes() == workspace["attn"].read_bytes()

    def test_train_gcn_siamese_mode(self, workspace, tmp_path):
        out = tmp_path / "siam.ckpt"
        code = run(
            ["train-gcn", "--data", str(workspace["data"]), "--attn", str(workspace["attn"]),
             "--out", str(out), "--mode", "siamese", "--context-k", "2",
             "--lr", "0.1", "--epochs", "1", "--batch-size", "16", "--seed", "5"]
        )
        assert code == 0
        assert out.exists()

    def test_missing_data_file_exits_3(self, tmp_path):
        code = run(["train-attn", "--data", str(tmp_path / "nope.jsonl"),
                    "--out", str(tmp_path / "o.ckpt")] + TRAIN_ARGS)
        assert code == 3

    def test_malformed_dataset_exits_3_naming_line(self, workspace, tmp_path, caplog):
        lines = workspace["data"].read_text().splitlines()
        lines[2] = lines[2].replace('"identity":', '"identity":1.5,"was":', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert run(["eval", "--data", str(bad), "--scorer", "uniform"]) == 3
        assert "bad.jsonl:3:" in caplog.text

    def test_incompatible_checkpoint_dims_exit_3(self, workspace, tmp_path):
        other = tmp_path / "other.jsonl"
        assert run(GEN_ARGS[:-4] + ["--dim", "8", "--seed", "5", "--out", str(other)]) == 0
        code = run(
            ["train-gcn", "--data", str(other), "--attn", str(workspace["attn"]),
             "--out", str(tmp_path / "o.ckpt"), "--epochs", "1", "--seed", "5"]
        )
        assert code == 3


    @pytest.mark.parametrize("scorer, checkpoint, width", [("graph", "gcn", 32), ("siamese", "siamese", 16)])
    def test_graph_checkpoint_for_another_dim_exits_3(self, workspace, tmp_path, caplog, scorer, checkpoint, width):
        # d=8 data and attention, a graph checkpoint trained on d=16 data
        other, attn = tmp_path / "other.jsonl", tmp_path / "attn8.ckpt"
        assert run(GEN_ARGS[:-4] + ["--dim", "8", "--seed", "5", "--out", str(other)]) == 0
        save_checkpoint(attn, init_attention_params(np.random.default_rng(0), 8, hidden=8).to_entries())
        code = run(["eval", "--data", str(other), "--scorer", scorer, "--attn", str(attn),
                    "--gcn", str(workspace[checkpoint]), "--gallery-size", "5", "--max-queries", "4"])
        assert code == 3
        assert f"graph checkpoint {workspace[checkpoint]} takes node features of width {width}, " \
               f"dataset has d=8" in caplog.text

# (entry, damage, expected shape) for the workspace checkpoints: hidden width 8
# (TRAIN_ARGS), paired GCN layers of 2 x 16 features, readout READOUT_DIM
WRONG_SHAPES = [
    ("attention/w1", lambda a: a.reshape(-1), "2-D"),
    ("attention/b1", lambda a: np.vstack([a, a[:1]]), "(8, 1)"),
    ("attention/w2", lambda a: a[:, :-1], "(4, 8)"),
    ("attention/b2", lambda a: a[:-1], "(4, 1)"),
    ("gcn/layer1", lambda a: a[:-1, :-1], "(32, 32)"),
    ("gcn/readout_b", lambda a: a[:-1], f"({READOUT_DIM}, 1)"),
    # a one-node graph (K = 0): the readout must read the probe pair and a context
    ("gcn/readout_w", lambda a: a[:, :32], f"({READOUT_DIM}, a multiple of 32 >= 64)"),
    ("gcn/cls_b", lambda a: np.vstack([a, a[:1]]), "(2, 1)"),
]


class TestEvalAndRerank:
    def test_eval_uniform_writes_csv(self, workspace, tmp_path):
        out = tmp_path / "eval.csv"
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "uniform",
                    "--gallery-size", "5", "--max-queries", "10", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("scorer,gallery_size,")
        assert lines[1].startswith("uniform,5,")

    def test_eval_graph_deterministic(self, workspace, tmp_path):
        outs = []
        for name in ("g1.csv", "g2.csv"):
            out = tmp_path / name
            code = run(["eval", "--data", str(workspace["data"]), "--scorer", "graph",
                        "--attn", str(workspace["attn"]), "--gcn", str(workspace["gcn"]),
                        "--context-k", "2", "--gallery-size", "5", "--max-queries", "8",
                        "--out", str(out)])
            assert code == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_graph_scorer_requires_checkpoints(self, workspace):
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "graph",
                    "--gallery-size", "5"])
        assert code == 2

    @pytest.mark.parametrize("scorer, checkpoint", [("graph", "gcn"), ("siamese", "siamese")])
    def test_context_k_defaults_to_the_checkpoint_k(self, workspace, tmp_path, scorer, checkpoint):
        outs = []
        for flags in ([], ["--context-k", "2"]):
            out = tmp_path / "eval.csv"
            code = run(["eval", "--data", str(workspace["data"]), "--scorer", scorer,
                        "--attn", str(workspace["attn"]), "--gcn", str(workspace[checkpoint]),
                        "--gallery-size", "5", "--max-queries", "8", "--out", str(out)] + flags)
            assert code == 0
            outs.append(out.read_text())
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("flags", [["--context-k", "3"]])
    def test_graph_checkpoint_mismatch_exits_2(self, workspace, flags, caplog):
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "graph",
                    "--attn", str(workspace["attn"]), "--gcn", str(workspace["gcn"]),
                    "--gallery-size", "5", "--max-queries", "4"] + flags)
        assert code == 2
        assert "readout expects 3" in caplog.text

    def test_siamese_checkpoint_mismatch_exits_2(self, workspace, caplog):
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "siamese",
                    "--attn", str(workspace["attn"]), "--gcn", str(workspace["siamese"]), "--context-k", "3",
                    "--gallery-size", "5", "--max-queries", "4"])
        assert code == 2
        assert "readout expects 3" in caplog.text

    @pytest.mark.parametrize("scorer, flag, kind", [
        ("graph", "--gcn", "siamese"),
        ("siamese", "--gcn", "gcn"),
        ("attention", "--attn", "gcn"),
    ])
    def test_checkpoint_of_another_kind_exits_2(self, workspace, tmp_path, caplog, scorer, flag, kind):
        # the paired checkpoint renamed as a siamese one: only the kind is read
        entries = load_checkpoint(workspace["gcn"])
        given = tmp_path / f"{kind}.ckpt"
        save_checkpoint(given, {name.replace("gcn/", f"{kind}/"): v for name, v in entries.items()})
        paths = {"--attn": workspace["attn"], "--gcn": workspace["gcn"], flag: given}
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", scorer, "--context-k", "2",
                    "--attn", str(paths["--attn"]), "--gcn", str(paths["--gcn"]),
                    "--gallery-size", "5", "--max-queries", "4"])
        assert code == 2
        assert f"{flag} {given} is not a" in caplog.text
        assert f"entry prefixes are ['{kind}']" in caplog.text

    @pytest.mark.parametrize("damage", ["cut20", "cut_last8", "append"])
    def test_damaged_checkpoint_exits_3_naming_file(self, workspace, tmp_path, damage, caplog):
        blob = workspace["gcn"].read_bytes()
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes({"cut20": blob[:20], "cut_last8": blob[:-8], "append": blob + b"junk"}[damage])
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "graph",
                    "--attn", str(workspace["attn"]), "--gcn", str(bad), "--context-k", "2",
                    "--gallery-size", "5", "--max-queries", "4"])
        assert code == 3
        assert str(bad) in caplog.text

    @pytest.mark.parametrize("name, damage, expected", WRONG_SHAPES, ids=[name for name, _, _ in WRONG_SHAPES])
    def test_checkpoint_entry_of_wrong_shape_exits_3(self, workspace, tmp_path, caplog, name, damage, expected):
        flag = "--attn" if name.startswith("attention/") else "--gcn"
        entries = load_checkpoint(workspace[flag[2:]])
        entries[name] = damage(entries[name])
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, entries)
        paths = {"--attn": workspace["attn"], "--gcn": workspace["gcn"], flag: bad}
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "graph", "--context-k", "2",
                    "--attn", str(paths["--attn"]), "--gcn", str(paths["--gcn"]),
                    "--gallery-size", "5", "--max-queries", "4"])
        assert code == 3
        assert (f"{bad}: checkpoint entry '{name}' has shape {entries[name].shape}, expected {expected}"
                in caplog.text)

    @pytest.mark.parametrize("damage, message", [
        (lambda e: e["gcn/cls_b"].fill(np.nan), "checkpoint entry 'gcn/cls_b' holds a non-finite value"),
        (lambda e: e["gcn/layer1"].__setitem__((0, 1), -np.inf),
         "checkpoint entry 'gcn/layer1' holds a non-finite value"),
        # a layer lost in the middle of the stack: layer0-2 are read, layer4 is not
        (lambda e: e.update({"gcn/layer4": e["gcn/layer2"]}), "checkpoint entry 'gcn/layer4' is not a gcn parameter"),
        (lambda e: e.update({"gcn/typo_w": e["gcn/cls_w"]}), "checkpoint entry 'gcn/typo_w' is not a gcn parameter"),
    ], ids=["nan", "inf", "layer_gap", "unknown_name"])
    def test_checkpoint_entry_it_cannot_use_exits_3(self, workspace, tmp_path, caplog, damage, message):
        entries = load_checkpoint(workspace["gcn"])
        damage(entries)
        bad = tmp_path / "bad.ckpt"
        save_checkpoint(bad, entries)
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "graph", "--context-k", "2",
                    "--attn", str(workspace["attn"]), "--gcn", str(bad), "--gallery-size", "5", "--max-queries", "4"])
        assert code == 3
        assert f"{bad}: {message}" in caplog.text

    def test_rerank_ranked_csv(self, workspace, tmp_path, capsys):
        # find a probe id from the dataset file
        import json

        lines = workspace["data"].read_text().splitlines()
        probe_id = json.loads(lines[1])["instances"][0]["instance_id"]
        out = tmp_path / "rank.csv"
        code = run(["rerank", "--data", str(workspace["data"]), "--probe", probe_id,
                    "--scorer", "uniform", "--gallery-size", "5", "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")
        assert rows[0] == "rank,instance_id,scene_id,score,relevant"
        scores = [float(r.split(",")[3]) for r in rows[1:]]
        assert scores == sorted(scores, reverse=True)

    @pytest.mark.parametrize("scorer", ["graph", "siamese"])
    def test_rerank_context_scorer_ranks_every_other_scene(self, workspace, tmp_path, scorer):
        dataset = load_dataset(workspace["data"])
        probe_scene = dataset.scenes[0]
        probe = probe_scene.instances[0]
        out = tmp_path / "rank.csv"
        checkpoint = workspace["gcn" if scorer == "graph" else "siamese"]
        code = run(["rerank", "--data", str(workspace["data"]), "--probe", probe.instance_id,
                    "--scorer", scorer, "--attn", str(workspace["attn"]), "--gcn", str(checkpoint),
                    "--context-k", "2", "--gallery-size", str(len(dataset.scenes) - 1), "--seed", "5",
                    "--out", str(out)])
        assert code == 0
        rows = out.read_text().strip().split("\n")[1:]
        others = [s for s in dataset.scenes if s.scene_id != probe_scene.scene_id]
        ranked_ids = [r.split(",")[1] for r in rows]
        assert sorted(ranked_ids) == sorted(i.instance_id for s in others for i in s.instances)
        assert all(0.0 <= float(r.split(",")[3]) <= 1.0 for r in rows)

        attn = AttentionParams.from_entries(load_checkpoint(workspace["attn"]))
        if scorer == "graph":
            model = GraphScorer(attn, GcnParams.from_entries(load_checkpoint(checkpoint)), k=2, seed=5)
        else:
            model = SiameseScorer(attn, SiameseParams.from_entries(load_checkpoint(checkpoint)), k=2, seed=5)
        result = rank_gallery(probe, others, model, probe_scene)
        assert rows == [f"{rank},{inst.instance_id},{inst.scene_id},{score:.6f},{int(rel)}"
                        for rank, ((inst, score), rel) in enumerate(zip(result.ranked, result.relevance), start=1)]

    def test_rerank_unknown_probe_exits_3(self, workspace):
        code = run(["rerank", "--data", str(workspace["data"]), "--probe", "missing",
                    "--scorer", "uniform"])
        assert code == 3

    @pytest.mark.parametrize("command", ["eval", "rerank"])
    def test_gallery_above_the_corpus_exits_2(self, workspace, tmp_path, caplog, command):
        dataset = load_dataset(workspace["data"])
        n = len(dataset.scenes)
        probe = ["--probe", dataset.scenes[0].instances[0].instance_id] if command == "rerank" else []
        out = tmp_path / "out.csv"
        code = run([command, "--data", str(workspace["data"]), "--scorer", "uniform", *probe,
                    "--gallery-size", str(n), "--out", str(out)])
        assert code == 2
        assert f"gallery_size {n} exceeds corpus of {n} scenes less the probe's own" in caplog.text
        assert not out.exists()

    def test_sweep_rows_per_size(self, workspace, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(["sweep", "--data", str(workspace["data"]), "--scorer", "uniform",
                    "--sizes", "4,8", "--max-queries", "8", "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "4"
        assert lines[2].split(",")[1] == "8"

    def test_sweep_bad_sizes_exits_2(self, workspace):
        code = run(["sweep", "--data", str(workspace["data"]), "--scorer", "uniform",
                    "--sizes", "a,b"])
        assert code == 2


@pytest.mark.parametrize("argv, named", [
    (["eval", "--scorer", "uniform", "--data", "{data}", "--gallery-size", "5", "--out", "{dir}"], "{dir}"),
    (["eval", "--scorer", "uniform", "--data", "{dir}"], "{dir}"),
    (["eval", "--scorer", "attention", "--data", "{data}", "--attn", "{dir}"], "{dir}"),
    (["train-attn", "--data", "{data}", "--out", "{data}/x.ckpt"] + TRAIN_ARGS, "{data}"),
    (["train-gcn", "--data", "{data}", "--attn", "{attn}", "--out", "{data}/x.ckpt", "--epochs", "1"], "{data}"),
    (GEN_ARGS + ["--out", "{data}/ds.jsonl"], "{data}"),
    (["eval", "--scorer", "uniform", "--data", "{missing}", "--out", "{data}/x.csv"], "{data}"),
    (["eval", "--scorer", "uniform", "--data", "{missing}", "--per-query", "{data}/pq.csv"], "{data}"),
    (["sweep", "--scorer", "uniform", "--data", "{missing}", "--out", "{data}/x.csv"], "{data}"),
    (["rerank", "--probe", "p", "--scorer", "uniform", "--data", "{missing}", "--out", "{data}/x.csv"], "{data}"),
    (["train-attn", "--data", "{missing}", "--out", "{dir}"], "{dir}"),
], ids=["eval_out_dir", "eval_data_dir", "eval_attn_dir", "train_attn_out_under_file",
        "train_gcn_out_under_file", "gen_out_under_file", "eval_out_under_file_no_data",
        "eval_per_query_under_file_no_data", "sweep_out_under_file_no_data",
        "rerank_out_under_file_no_data", "train_attn_out_dir_no_data"])
def test_unusable_path_exits_3_naming_it(workspace, tmp_path, caplog, argv, named):
    # a directory where a file is read or written, or a file where a directory must be;
    # an unusable output is reported before any input is read and before any training epoch
    caplog.set_level(logging.INFO)
    paths = {"data": workspace["data"], "attn": workspace["attn"], "dir": tmp_path,
             "missing": tmp_path / "missing.jsonl"}
    assert run([a.format(**paths) for a in argv]) == 3
    assert f"cannot use path {named.format(**paths)}" in caplog.text
    assert " epoch " not in caplog.text


def test_missing_output_directory_is_made(workspace, tmp_path):
    out = tmp_path / "new" / "x.csv"
    assert run(["eval", "--data", str(workspace["data"]), "--scorer", "uniform", "--gallery-size", "5",
                "--max-queries", "4", "--out", str(out)]) == 0
    assert out.read_text().startswith("scorer,")


def test_missing_per_query_directory_is_made(workspace, tmp_path):
    out = tmp_path / "new" / "pq.csv"
    assert run(["eval", "--data", str(workspace["data"]), "--scorer", "uniform", "--gallery-size", "5",
                "--max-queries", "4", "--per-query", str(out)]) == 0
    assert out.read_text().startswith("query_index,ap\n")


@pytest.mark.parametrize("argv, message", [
    (["eval", "--scorer", "uniform", "--gallery-size", "9999"], "gallery_size 9999 exceeds corpus"),
    (["sweep", "--scorer", "uniform", "--sizes", "5,9999"], "gallery_size 9999 exceeds corpus"),
    (["rerank", "--scorer", "uniform", "--probe", "{probe}", "--gallery-size", "9999"],
     "gallery_size 9999 exceeds corpus"),
    (["eval", "--scorer", "graph", "--attn", "{attn}", "--gcn", "{gcn}", "--context-k", "3"],
     "readout expects 3"),
    (["train-gcn", "--attn", "{attn}", "--epochs", "1", "--neg-ratio", "0.001"], "gives no negative"),
    (["train-gcn", "--attn", "{attn}", "--epochs", "1", "--neg-ratio", "1e300"], "--neg-ratio 1e+300 asks for more negatives than the 1444 labeled pairs"),
], ids=["eval_gallery", "sweep_sizes", "rerank_gallery", "eval_context_k", "train_gcn_neg_ratio",
        "train_gcn_huge_neg_ratio"])
def test_value_refused_against_the_input_exits_2_making_no_directory(workspace, tmp_path, caplog, argv, message):
    # checked once the input is read: the output's parent is made only when the command writes
    probe = load_dataset(workspace["data"]).scenes[0].instances[0].instance_id
    argv = [a.format(probe=probe, **workspace) for a in argv]
    out = tmp_path / "new" / "sub" / "out"
    assert run(argv[:1] + ["--data", str(workspace["data"]), "--out", str(out)] + argv[1:]) == 2
    assert message in caplog.text
    assert list(tmp_path.iterdir()) == []


def with_missing_inputs(tmp_path, argv):
    """``argv`` plus its command's required paths, input files that do not
    exist, and an output file ``tmp_path / "new" / "out"`` where the command
    has one. A missing dataset would exit 3, so exit 2 shows that a check
    came first; a rejected command must not make the new directory."""
    paths = {"--data": tmp_path / "missing.jsonl", "--out": tmp_path / "new" / "out",
             "--attn": tmp_path / "missing.ckpt"}
    required = {"gen": ["--out"], "train-attn": ["--data", "--out"], "train-gcn": ["--data", "--attn", "--out"],
                "eval": ["--data", "--out"], "sweep": ["--data", "--out"], "rerank": ["--data", "--out"],
                "gradcheck": []}[argv[0]]
    return argv + [a for f in required for a in (f, str(paths[f]))]


@pytest.mark.parametrize("argv", [
    ["train-attn", "--hidden", "0"],
    ["train-attn", "--neg-ratio", "0"],
    ["train-gcn", "--max-positives", "-1"],
    ["train-gcn", "--max-positives", "0"],
    ["train-gcn", "--context-k", "0"],
    ["eval", "--max-queries", "-1"],
    ["eval", "--gallery-size", "0"],
    ["eval", "--scorer", "uniform", "--context-k", "0"],
    ["sweep", "--max-queries", "-1"],
    ["sweep", "--context-k", "0"],
    ["rerank", "--probe", "p", "--gallery-size", "-1"],
    ["rerank", "--probe", "p", "--context-k", "0"],
    ["gradcheck", "--trials", "0"],
], ids="_".join)
def test_out_of_range_count_exits_2_before_any_work(tmp_path, caplog, argv):
    flag, value = argv[-2], argv[-1]
    assert run(with_missing_inputs(tmp_path, argv)) == 2
    assert f"{flag} must be >= 1, got {value}" in caplog.text
    assert not (tmp_path / "new").exists()


BAD_VALUES = [
    *[([command, "--seed", "-1"], "--seed must be >= 0, got -1")
      for command in ("gen", "train-attn", "train-gcn", "eval", "sweep")],
    (["rerank", "--probe", "p", "--seed", "-1"], "--seed must be >= 0, got -1"),
    (["gradcheck", "--seed", "-12"], "--seed must be >= 0, got -12"),
    *[(["train-gcn", "--neg-ratio", v], f"--neg-ratio must be finite and > 0, got {float(v)}")
      for v in ("nan", "inf", "0", "-1")],
    *[(["gen", flag, v], f"{field} must be finite, got {v}")
      for flag, field in (("--group-size-mean", "group_size_mean"), ("--noise-sigma", "view_noise_sigma"))
      for v in ("nan", "inf")],
    (["train-attn", "--lr", "nan"], "learning_rate must be finite and positive, got nan"),
    (["train-gcn", "--lr", "inf"], "learning_rate must be finite and positive, got inf"),
    *[([command, "--lr-drop-epoch", "-3"], "--lr-drop-epoch must be >= 0, got -3")
      for command in ("train-attn", "train-gcn")],
    (["train-attn", "--margin", "2"], "margin must be in [0, 1), got 2.0"),
    (["train-attn", "--epochs", "0"], "epochs must be >= 1, got 0"),
    (["gen", "--co-travel-prob", "2"], "co_travel_prob must be in [0, 1], got 2.0"),
    (["gen", "--noise-sigma", "1e300"], "view_noise_sigma must be in [0, 1e150], got 1e+300"),
    (["eval", "--scorer", "attention"], "this scorer needs --attn"),
    (["rerank", "--probe", "p", "--attn", "missing.ckpt"], "scorer 'graph' needs --gcn"),
    (["sweep", "--sizes", "0,5"], "--sizes must be >= 1, got 0"),
    *[(["gen", "--lookalike-group", v], f"lookalike_group must be positive, got {v}") for v in ("0", "-2")],
]


@pytest.mark.parametrize("argv, message", BAD_VALUES, ids=["_".join(argv) for argv, _ in BAD_VALUES])
def test_bad_value_exits_2_before_any_work(tmp_path, caplog, argv, message):
    assert run(with_missing_inputs(tmp_path, argv)) == 2
    assert message in caplog.text
    assert not (tmp_path / "new").exists()


def test_neg_ratio_without_negatives_exits_2(workspace, tmp_path, caplog):
    out = tmp_path / "gcn.ckpt"
    code = run(["train-gcn", "--data", str(workspace["data"]), "--attn", str(workspace["attn"]),
                "--out", str(out), "--context-k", "2", "--epochs", "1", "--neg-ratio", "0.001"])
    assert code == 2
    assert "--neg-ratio 0.001 gives no negative" in caplog.text
    assert not out.exists()


class TestGradcheckCommand:
    def test_passes_and_prints_components(self, capsys):
        code = run(["gradcheck", "--trials", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for component in ("propagation", "softmax", "attention_end_to_end", "gcn_pipeline", "siamese_pipeline"):
            assert component in out
        assert "[pass]" in out
        assert "FAIL" not in out


class TestParser:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_every_subcommand_has_help(self, capsys):
        for cmd in ("gen", "train-attn", "train-gcn", "rerank", "eval", "sweep", "gradcheck"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([cmd, "--help"])
            assert exc.value.code == 0
            assert capsys.readouterr().out

    def test_training_defaults_are_the_library_defaults(self, capsys):
        sgd = SgdConfig()
        (drop_epoch, _), = sgd.schedule
        sgd_flags = {"lr": sgd.learning_rate, "epochs": sgd.epochs, "lr_drop_epoch": drop_epoch,
                     "batch_size": sgd.batch_size, "seed": sgd.seed}
        attn_flags = {"hidden": DEFAULT_HIDDEN, "margin": VerificationConfig().margin,
                      "neg_ratio": DEFAULT_PAIR_NEG_RATIO}
        for fn in (build_graph_samples, build_labeled_expansions):
            assert inspect.signature(fn).parameters["neg_ratio"].default == DEFAULT_TARGET_NEG_RATIO
        assert inspect.signature(train_attention).parameters["neg_ratio"].default == DEFAULT_PAIR_NEG_RATIO
        gcn_flags = {**sgd_flags, "neg_ratio": DEFAULT_TARGET_NEG_RATIO}
        for cmd, required, want in (("train-attn", [], {**sgd_flags, **attn_flags}),
                                    ("train-gcn", ["--attn", "a"], gcn_flags)):
            args = build_parser().parse_args([cmd, "--data", "d", "--out", "o", *required])
            assert {name: getattr(args, name) for name in want} == want
            _build_configs(args)
            assert args.sgd.schedule == sgd.schedule
            with pytest.raises(SystemExit):
                build_parser().parse_args([cmd, "--help"])
            help_text = " ".join(capsys.readouterr().out.split())
            for value in want.values():
                assert f"(default {value})" in help_text
