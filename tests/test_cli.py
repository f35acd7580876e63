import numpy as np
import pytest

from context_rerank.cli import build_parser, run

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
    """Dataset plus small trained checkpoints shared by the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "ds.jsonl"
    attn = root / "attn.ckpt"
    gcn = root / "gcn.ckpt"
    assert run(GEN_ARGS + ["--out", str(data)]) == 0
    assert run(["train-attn", "--data", str(data), "--out", str(attn)] + TRAIN_ARGS) == 0
    assert (
        run(
            ["train-gcn", "--data", str(data), "--attn", str(attn), "--out", str(gcn),
             "--context-k", "2", "--lr", "0.1", "--epochs", "2", "--batch-size", "16", "--seed", "5"]
        )
        == 0
    )
    return {"root": root, "data": data, "attn": attn, "gcn": gcn}


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

    @pytest.mark.parametrize("flags", [["--context-k", "3"], ["--context-k", "2", "--node-feat", "allparts"]])
    def test_graph_checkpoint_mismatch_exits_2(self, workspace, flags, caplog):
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "graph",
                    "--attn", str(workspace["attn"]), "--gcn", str(workspace["gcn"]),
                    "--gallery-size", "5", "--max-queries", "4"] + flags)
        assert code == 2
        assert "does not match parameters" in caplog.text or "readout expects" in caplog.text

    def test_siamese_checkpoint_mismatch_exits_2(self, workspace, tmp_path, caplog):
        siam = tmp_path / "siam.ckpt"
        assert run(["train-gcn", "--data", str(workspace["data"]), "--attn", str(workspace["attn"]),
                    "--out", str(siam), "--mode", "siamese", "--context-k", "2",
                    "--epochs", "1", "--batch-size", "16", "--seed", "5"]) == 0
        code = run(["eval", "--data", str(workspace["data"]), "--scorer", "siamese",
                    "--attn", str(workspace["attn"]), "--gcn", str(siam), "--context-k", "3",
                    "--gallery-size", "5", "--max-queries", "4"])
        assert code == 2
        assert "readout expects 3" in caplog.text

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

    def test_rerank_unknown_probe_exits_3(self, workspace):
        code = run(["rerank", "--data", str(workspace["data"]), "--probe", "missing",
                    "--scorer", "uniform"])
        assert code == 3

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


class TestGradcheckCommand:
    def test_passes_and_prints_components(self, capsys):
        code = run(["gradcheck", "--trials", "3", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        for component in ("matmul", "softmax", "attention_end_to_end", "gcn_pipeline", "siamese_pipeline"):
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
