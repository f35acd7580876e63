"""Acceptance suite: one test per acceptance criterion.

Each test emits a single ``ACCEPTANCE <name>: PASS|FAIL`` line — replayed
in the terminal summary after the run — and asserts the same condition. The heavyweight pipeline artifacts (default
dataset, trained checkpoints) are built once per session through the CLI,
exactly as a user would.
"""

import itertools
import time

import numpy as np
import pytest

from context_rerank.autodiff import SgdConfig
from context_rerank.cli import run
from context_rerank.dataio import SynthConfig, generate_synthetic, load_dataset
from context_rerank.evaluation import average_precision, evaluate, select_queries
from context_rerank.gradcheck import run_all
from context_rerank.graph import (
    build_graph_samples,
    gcn_forward,
    init_gcn_params,
    normalize_adjacency,
    star_adjacency,
    train_gcn,
)
from context_rerank.scoring import AttentionScorer, GraphScorer, OracleScorer, UniformScorer
from context_rerank.attention import AttentionParams, build_training_pairs, train_attention, VerificationConfig
from context_rerank.autodiff import load_checkpoint, Tensor

pytestmark = pytest.mark.acceptance

# pipeline hyperparameters used by the ablation artifacts (ledgered choices:
# the GCN needs a higher learning rate and more epochs than the attention
# head to converge on this corpus)
GCN_FLAGS = ["--lr", "0.3", "--epochs", "25", "--lr-drop-epoch", "15",
             "--neg-ratio", "2", "--seed", "42"]
ATTN_FLAGS = ["--lr", "0.1", "--epochs", "20", "--seed", "42", "--hidden", "512", "--neg-ratio", "1"]
GALLERY = "50"
MAX_QUERIES = "100"


def report(name: str, ok: bool, detail: str = ""):
    from conftest import ACCEPTANCE_LINES

    line = f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else "")
    ACCEPTANCE_LINES.append(line)
    print("\n" + line)
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def pipeline(tmp_path_factory):
    """Default dataset + trained checkpoints + per-scorer eval CSVs, all via
    the CLI with default generator settings; wall time recorded per stage."""
    root = tmp_path_factory.mktemp("pipeline")
    data = root / "synth.jsonl"
    attn = root / "attn.ckpt"
    gcn = root / "gcn.ckpt"
    timings = {}

    t = time.time()
    assert run(["gen", "--out", str(data)]) == 0
    timings["gen"] = time.time() - t

    t = time.time()
    assert run(["train-attn", "--data", str(data), "--out", str(attn)] + ATTN_FLAGS) == 0
    timings["train-attn"] = time.time() - t

    t = time.time()
    assert run(["train-gcn", "--data", str(data), "--attn", str(attn), "--out", str(gcn)] + GCN_FLAGS) == 0
    timings["train-gcn"] = time.time() - t

    maps = {}
    t = time.time()
    for scorer in ("uniform", "attention", "graph"):
        out = root / f"eval_{scorer}.csv"
        code = run(["eval", "--data", str(data), "--scorer", scorer,
                    "--attn", str(attn), "--gcn", str(gcn),
                    "--gallery-size", GALLERY, "--max-queries", MAX_QUERIES,
                    "--seed", "42", "--out", str(out)])
        assert code == 0
        row = out.read_text().strip().split("\n")[1].split(",")
        maps[scorer] = float(row[2])
    timings["eval"] = time.time() - t

    return {"root": root, "data": data, "attn": attn, "gcn": gcn,
            "timings": timings, "maps": maps}


class TestNumericOracles:
    def test_gradient_checks(self):
        t = time.time()
        results = run_all(n_trials=100, seed=0)
        elapsed = time.time() - t
        worst = max(results.values())
        ok = worst < 1e-4 and elapsed < 60.0
        detail = ", ".join(f"{k}={v:.2e}" for k, v in results.items()) + f"; {elapsed:.1f}s"
        report("gradient-checks", ok, detail)

    def test_adjacency_oracle(self):
        worst = 0.0
        for n in range(2, 9):
            a = star_adjacency(n)
            for i, j in itertools.product(range(n), repeat=2):
                expected = 1.0 if (i == 0 or j == 0 or i == j) else 0.0
                worst = max(worst, abs(a[i, j] - expected))
        report("adjacency-oracle", worst <= 1e-12, f"max dev {worst:.1e} over N=2..8")

    def test_linear_gcn_oracle(self):
        rng = np.random.default_rng(0)
        worst = 0.0
        for n, f in [(2, 4), (4, 6), (6, 8)]:
            adjacency = star_adjacency(n)
            a_hat = normalize_adjacency(adjacency)
            x = rng.standard_normal((n, f))
            params = init_gcn_params(rng, n, f, n_layers=3, readout_dim=4)
            for i in range(3):
                params.layers[i] = Tensor(np.eye(f), requires_grad=True)
            expected = a_hat @ a_hat @ a_hat @ x

            # reach the propagated features through the tape, pre-readout
            from context_rerank.graph import ContextGraph

            graph = ContextGraph(x=x, adjacency=adjacency, norm_adjacency=a_hat)
            z = Tensor(x[None])
            for w in params.layers:
                z = z.propagate(a_hat, w)
            worst = max(worst, float(np.max(np.abs(z.data[0] - expected))))
            # and the full forward must run on the same graph
            gcn_forward(params, graph)
        report("linear-gcn-oracle", worst <= 1e-12, f"max dev {worst:.1e}")

    def test_average_precision_oracle(self):
        def brute(rel):
            precs = []
            hits = 0
            for k, r in enumerate(rel, start=1):
                if r:
                    hits += 1
                    precs.append(hits / k)
            return sum(precs) / len(precs)

        worst = 0.0
        n_lists = 0
        for bits in itertools.product([False, True], repeat=10):
            if not any(bits):
                continue
            worst = max(worst, abs(average_precision(bits) - brute(bits)))
            n_lists += 1

        ds = generate_synthetic(SynthConfig(num_identities=24, num_cameras=3,
                                            scenes_per_camera=10, instances_per_scene=4,
                                            dim=16, seed=3))
        queries = select_queries(ds.scenes, 40, seed=3)
        rep = evaluate(queries, ds.scenes, OracleScorer(), 10, seed=3)
        ok = worst <= 1e-12 and rep.map == 1.0 and rep.top1 == 1.0
        report("average-precision-oracle", ok,
               f"{n_lists} lists, max dev {worst:.1e}; oracle mAP={rep.map}, top1={rep.top1}")


class TestRetrievalQuality:
    def test_ablation_ordering(self, pipeline):
        maps = pipeline["maps"]
        total = sum(pipeline["timings"].values())
        ok = (
            maps["graph"] >= maps["attention"] + 0.02
            and maps["attention"] >= maps["uniform"] + 0.02
            and total < 600.0
        )
        report(
            "ablation-ordering", ok,
            f"uniform={maps['uniform']:.4f} attention={maps['attention']:.4f} "
            f"graph={maps['graph']:.4f}; end-to-end {total:.0f}s",
        )

    def test_context_size_curve(self):
        # smaller corpus so five GCN trainings stay affordable
        ds = generate_synthetic(SynthConfig(num_identities=60, num_cameras=4,
                                            scenes_per_camera=20, instances_per_scene=6,
                                            dim=32, seed=42))
        queries = select_queries(ds.scenes, 60, seed=42)
        rng = np.random.default_rng(42)
        pairs = build_training_pairs(ds.scenes, rng)
        ap = train_attention(pairs, SgdConfig(epochs=10, seed=42), VerificationConfig())
        attn = AttentionScorer(ap)
        curve = {}
        for k in (1, 2, 3, 5, 8):
            samples = build_graph_samples(ds.scenes, attn.pair_matrix, k=k, seed=42,
                                          neg_ratio=2.0, max_positives=300)
            gp = train_gcn(samples, SgdConfig(learning_rate=0.3, schedule=(), epochs=15, seed=42))
            rep = evaluate(queries, ds.scenes, GraphScorer(ap, gp, k=k, seed=42), 25, seed=42)
            curve[k] = rep.map
        best = max(curve, key=curve.get)
        ok = best not in (1, 8)
        report("context-size-curve", ok,
               " ".join(f"K={k}:{v:.4f}" for k, v in curve.items()) + f"; max at K={best}")

    def test_gallery_size_degradation(self, pipeline):
        out = pipeline["root"] / "sweep_graph.csv"
        code = run(["sweep", "--data", str(pipeline["data"]), "--scorer", "graph",
                    "--attn", str(pipeline["attn"]), "--gcn", str(pipeline["gcn"]),
                    "--sizes", "10,25,50,100", "--max-queries", MAX_QUERIES,
                    "--seed", "42", "--out", str(out)])
        assert code == 0
        rows = [r.split(",") for r in out.read_text().strip().split("\n")[1:]]
        maps = [float(r[2]) for r in rows]
        ok = all(maps[i + 1] <= maps[i] + 0.005 for i in range(len(maps) - 1))
        report("gallery-size-degradation", ok,
               " ".join(f"{r[1]}:{m:.4f}" for r, m in zip(rows, maps)))

    def test_siamese_comparison(self, pipeline):
        siam = pipeline["root"] / "siamese.ckpt"
        code = run(["train-gcn", "--data", str(pipeline["data"]), "--attn", str(pipeline["attn"]),
                    "--out", str(siam), "--mode", "siamese"] + GCN_FLAGS)
        assert code == 0
        out = pipeline["root"] / "eval_siamese.csv"
        code = run(["eval", "--data", str(pipeline["data"]), "--scorer", "siamese",
                    "--attn", str(pipeline["attn"]), "--gcn", str(siam),
                    "--gallery-size", GALLERY, "--max-queries", MAX_QUERIES,
                    "--seed", "42", "--out", str(out)])
        assert code == 0
        siamese_map = float(out.read_text().strip().split("\n")[1].split(",")[2])
        paired_map = pipeline["maps"]["graph"]
        ok = paired_map >= siamese_map
        report("siamese-comparison", ok, f"paired={paired_map:.4f} siamese={siamese_map:.4f}")


class TestDeterminism:
    GEN = ["gen", "--identities", "24", "--cameras", "3", "--scenes-per-camera", "8",
           "--instances-per-scene", "4", "--dim", "16", "--seed", "9"]
    TRAIN = ["--lr", "0.1", "--epochs", "2", "--batch-size", "16", "--seed", "9", "--hidden", "8"]

    def test_commands_are_byte_identical(self, tmp_path):
        results = []
        for tag in ("a", "b"):
            d = tmp_path / tag
            d.mkdir()
            data, attn, gcn = d / "ds.jsonl", d / "attn.ckpt", d / "gcn.ckpt"
            ev, rk = d / "eval.csv", d / "rerank.csv"
            assert run(self.GEN + ["--out", str(data)]) == 0
            assert run(["train-attn", "--data", str(data), "--out", str(attn)] + self.TRAIN) == 0
            assert run(["train-gcn", "--data", str(data), "--attn", str(attn), "--out", str(gcn),
                        "--context-k", "2", "--lr", "0.1", "--epochs", "2",
                        "--batch-size", "16", "--seed", "9"]) == 0
            assert run(["eval", "--data", str(data), "--scorer", "graph",
                        "--attn", str(attn), "--gcn", str(gcn), "--context-k", "2",
                        "--gallery-size", "6", "--max-queries", "10", "--seed", "9",
                        "--out", str(ev)]) == 0
            import json
            probe_id = json.loads(data.read_text().splitlines()[1])["instances"][0]["instance_id"]
            assert run(["rerank", "--data", str(data), "--probe", probe_id, "--scorer", "attention",
                        "--attn", str(attn), "--gallery-size", "6", "--seed", "9",
                        "--out", str(rk)]) == 0
            results.append({p.name: p.read_bytes() for p in (data, attn, gcn, ev, rk)})
        mismatched = [k for k in results[0] if results[0][k] != results[1][k]]
        report("byte-determinism", not mismatched,
               "gen/train-attn/train-gcn/eval/rerank all byte-identical" if not mismatched
               else f"mismatch in {mismatched}")
