"""Command-line entry point: dataset generation, training, re-ranking,
evaluation, and gradient verification.

All randomness flows from the --seed flags; identical invocations produce
byte-identical outputs. Logs go to stderr, data to stdout or --out files.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from . import dataio
from .attention import AttentionParams, VerificationConfig, build_training_pairs, train_attention
from .autodiff import SgdConfig, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, RerankError, UsageError
from .evaluation import evaluate, gallery_sweep, rank_gallery, reports_csv, select_queries
from .gradcheck import run_all
from .graph import GcnParams, build_graph_samples, build_labeled_expansions, train_gcn
from .scoring import (
    AttentionScorer,
    GraphScorer,
    OracleScorer,
    RandomScorer,
    SiameseScorer,
    UniformScorer,
)
from .siamese import SiameseParams, samples_from_expansions, train_siamese

log = logging.getLogger("context_rerank")

GRADCHECK_TOL = 1e-4


def _default_data_dir() -> Path:
    return Path(os.environ.get("CONTEXT_RERANK_DATA_DIR", "."))


def _add_sgd_flags(p, default_lr=0.1, default_epochs=20):
    p.add_argument("--lr", type=float, default=default_lr,
                   help=f"initial learning rate (default {default_lr})")
    p.add_argument("--epochs", type=int, default=default_epochs,
                   help=f"training epochs (default {default_epochs})")
    p.add_argument("--lr-drop-epoch", type=int, default=10,
                   help="epoch after which the learning rate is halved (default 10; 0 disables)")
    p.add_argument("--batch-size", type=int, default=32, help="mini-batch size (default 32)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")


def _sgd_config(args) -> SgdConfig:
    schedule = ((args.lr_drop_epoch, 0.5),) if args.lr_drop_epoch > 0 else ()
    return SgdConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed,
                     batch_size=args.batch_size, schedule=schedule)


def _add_scorer_flags(p):
    p.add_argument("--scorer", choices=("uniform", "attention", "graph", "siamese", "oracle", "random"),
                   default="graph", help="similarity used for ranking (default graph)")
    p.add_argument("--attn", type=Path, default=None, help="attention checkpoint path")
    p.add_argument("--gcn", type=Path, default=None, help="graph (or siamese) checkpoint path")
    p.add_argument("--context-k", type=int, default=3,
                   help="context pairs per target (default 3)")
    p.add_argument("--norm", choices=("sym", "row"), default="sym",
                   help="adjacency normalization (default sym)")
    p.add_argument("--node-feat", choices=("whole", "allparts"), default="whole",
                   help="node feature layout (default whole)")
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="context-rerank",
        description="Context-aware person retrieval re-ranking (attention part fusion + star-graph GCN).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_defaults = dataio.SynthConfig()
    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, default=None, help="output dataset file")
    p.add_argument("--identities", type=int, default=gen_defaults.num_identities)
    p.add_argument("--cameras", type=int, default=gen_defaults.num_cameras)
    p.add_argument("--scenes-per-camera", type=int, default=gen_defaults.scenes_per_camera)
    p.add_argument("--instances-per-scene", type=int, default=gen_defaults.instances_per_scene)
    p.add_argument("--group-size-mean", type=float, default=gen_defaults.group_size_mean)
    p.add_argument("--co-travel-prob", type=float, default=gen_defaults.co_travel_prob)
    p.add_argument("--noise-sigma", type=float, default=gen_defaults.view_noise_sigma)
    p.add_argument("--part-dropout", type=float, default=gen_defaults.part_dropout_prob)
    p.add_argument("--dim", type=int, default=gen_defaults.dim)
    p.add_argument("--lookalike-group", type=int, default=gen_defaults.lookalike_group,
                   help="identities per lookalike appearance cluster")
    p.add_argument("--lookalike-overlap", type=float, default=gen_defaults.lookalike_overlap,
                   help="appearance overlap within a lookalike cluster, in [0,1]")
    p.add_argument("--seed", type=int, default=gen_defaults.seed)

    p = sub.add_parser("train-attn", help="train the relative attention head")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="attention checkpoint output")
    p.add_argument("--margin", type=float, default=0.3, help="verification loss margin (default 0.3)")
    p.add_argument("--hidden", type=int, default=256, help="hidden width (default 256)")
    p.add_argument("--neg-ratio", type=int, default=3,
                   help="negatives sampled per positive each epoch (default 3)")
    _add_sgd_flags(p)

    p = sub.add_parser("train-gcn", help="train the context graph scorer")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--attn", type=Path, required=True, help="trained attention checkpoint")
    p.add_argument("--out", type=Path, required=True, help="graph checkpoint output")
    p.add_argument("--mode", choices=("paired", "siamese"), default="paired",
                   help="paired-node graph (default) or two-graph siamese baseline")
    p.add_argument("--context-k", type=int, default=3)
    p.add_argument("--norm", choices=("sym", "row"), default="sym")
    p.add_argument("--node-feat", choices=("whole", "allparts"), default="whole")
    p.add_argument("--max-positives", type=int, default=None,
                   help="cap on positive target pairs (default: all)")
    p.add_argument("--neg-ratio", type=float, default=1.0,
                   help="negative target pairs per positive (default 1.0)")
    _add_sgd_flags(p)

    p = sub.add_parser("rerank", help="rank a gallery for one probe instance")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--probe", required=True, help="probe instance_id")
    p.add_argument("--gallery-size", type=int, default=50)
    p.add_argument("--out", type=Path, default=None)
    _add_scorer_flags(p)

    p = sub.add_parser("eval", help="mAP / top-1 evaluation")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--gallery-size", type=int, default=50)
    p.add_argument("--max-queries", type=int, default=100)
    p.add_argument("--out", type=Path, default=None, help="CSV output (default stdout)")
    p.add_argument("--per-query", type=Path, default=None, help="per-query AP detail CSV")
    _add_scorer_flags(p)

    p = sub.add_parser("sweep", help="gallery-size sweep, one CSV row per size")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--sizes", default="10,25,50,100", help="comma-separated gallery sizes")
    p.add_argument("--max-queries", type=int, default=100)
    p.add_argument("--out", type=Path, default=None)
    _add_scorer_flags(p)

    p = sub.add_parser("gradcheck", help="finite-difference gradient verification")
    p.add_argument("--trials", type=int, default=100, help="random configurations per suite")
    p.add_argument("--seed", type=int, default=0)

    return parser


def _load_attention(path, dataset) -> AttentionParams:
    if path is None:
        raise UsageError("this scorer needs --attn (trained attention checkpoint)")
    attn = AttentionParams.from_entries(load_checkpoint(path))
    if attn.dim != dataset.d:
        raise DataError(f"attention checkpoint is for d={attn.dim}, dataset has d={dataset.d}")
    return attn


def _make_scorer(args, dataset):
    if args.scorer == "uniform":
        return UniformScorer()
    if args.scorer == "oracle":
        return OracleScorer()
    if args.scorer == "random":
        return RandomScorer(seed=args.seed)
    attn = _load_attention(args.attn, dataset)
    if args.scorer == "attention":
        return AttentionScorer(attn)
    if args.gcn is None:
        raise UsageError(f"scorer {args.scorer!r} needs --gcn (trained graph checkpoint)")
    entries = load_checkpoint(args.gcn)
    kw = dict(k=args.context_k, seed=args.seed, node_feat=args.node_feat, norm=args.norm)
    if args.scorer == "graph":
        return GraphScorer(attn, GcnParams.from_entries(entries), **kw)
    return SiameseScorer(attn, SiameseParams.from_entries(entries), **kw)


def _write_or_print(text: str, out: Path):
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text)


def _cmd_gen(args) -> int:
    cfg = dataio.SynthConfig(
        num_identities=args.identities,
        num_cameras=args.cameras,
        scenes_per_camera=args.scenes_per_camera,
        instances_per_scene=args.instances_per_scene,
        group_size_mean=args.group_size_mean,
        co_travel_prob=args.co_travel_prob,
        view_noise_sigma=args.noise_sigma,
        part_dropout_prob=args.part_dropout,
        seed=args.seed,
        dim=args.dim,
        lookalike_group=args.lookalike_group,
        lookalike_overlap=args.lookalike_overlap,
    )
    dataset = dataio.generate_synthetic(cfg)
    out = args.out or (_default_data_dir() / "synth.jsonl")
    out.parent.mkdir(parents=True, exist_ok=True)
    dataio.save_dataset(dataset, out)
    report = dataio.validate(dataset)
    for key, value in report.items():
        log.info("gen: %s=%s", key, value)
    for w in report["warnings"]:
        log.warning("gen: %s", w)
    log.info("gen: wrote %s", out)
    return 0


def _cmd_train_attn(args) -> int:
    dataset = dataio.load_dataset(args.data)
    cfg = _sgd_config(args)
    rng = np.random.default_rng((args.seed, 0xA11))
    pairs = build_training_pairs(dataset.scenes, rng)
    if args.neg_ratio < 1:
        raise ConfigError(f"--neg-ratio must be >= 1, got {args.neg_ratio}")
    params = train_attention(
        pairs, cfg, VerificationConfig(margin=args.margin), hidden=args.hidden, neg_ratio=args.neg_ratio
    )
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(args.out, params.to_entries())
    log.info("train-attn: wrote %s", args.out)
    return 0


def _cmd_train_gcn(args) -> int:
    dataset = dataio.load_dataset(args.data)
    attn = _load_attention(args.attn, dataset)
    attn_pair = AttentionScorer(attn).scene_scorer(dataset.scenes)
    cfg = _sgd_config(args)

    if args.mode == "paired":
        samples = build_graph_samples(
            dataset.scenes, attn_pair, k=args.context_k, seed=args.seed,
            neg_ratio=args.neg_ratio, node_feat=args.node_feat, norm=args.norm,
            max_positives=args.max_positives,
        )
        params = train_gcn(samples, cfg)
    else:
        expansions = build_labeled_expansions(
            dataset.scenes, attn_pair, k=args.context_k, seed=args.seed,
            neg_ratio=args.neg_ratio, max_positives=args.max_positives,
        )
        samples = samples_from_expansions(expansions, node_feat=args.node_feat)
        params = train_siamese(samples, cfg, norm=args.norm)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    save_checkpoint(args.out, params.to_entries())
    log.info("train-gcn: wrote %s", args.out)
    return 0


def _cmd_rerank(args) -> int:
    dataset = dataio.load_dataset(args.data)
    probe_scene = probe = None
    for s in dataset.scenes:
        for i in s.instances:
            if i.instance_id == args.probe:
                probe_scene, probe = s, i
    if probe is None:
        raise DataError(f"no instance {args.probe!r} in dataset")
    scorer = _make_scorer(args, dataset)
    pool = [s for s in dataset.scenes if s.scene_id != probe_scene.scene_id]
    if args.gallery_size < len(pool):
        rng = np.random.default_rng((args.seed, 0x5E1))
        idx = rng.choice(len(pool), size=args.gallery_size, replace=False)
        pool = [pool[i] for i in sorted(idx)]
    result = rank_gallery(probe, pool, scorer, probe_scene)
    lines = ["rank,instance_id,scene_id,score,relevant"]
    for rank, ((inst, score), rel) in enumerate(zip(result.ranked, result.relevance), start=1):
        lines.append(f"{rank},{inst.instance_id},{inst.scene_id},{score:.6f},{int(rel)}")
    _write_or_print("\n".join(lines) + "\n", args.out)
    return 0


def _cmd_eval(args) -> int:
    dataset = dataio.load_dataset(args.data)
    scorer = _make_scorer(args, dataset)
    queries = select_queries(dataset.scenes, max_queries=args.max_queries, seed=args.seed)
    report = evaluate(queries, dataset.scenes, scorer, args.gallery_size, seed=args.seed)
    _write_or_print(reports_csv([report]), args.out)
    if args.per_query is not None:
        lines = ["query_index,ap"] + [f"{i},{ap:.6f}" for i, ap in enumerate(report.per_query_ap)]
        args.per_query.write_text("\n".join(lines) + "\n")
    log.info("eval: scorer=%s gallery_size=%d mAP=%.4f top1=%.4f",
             report.scorer, report.gallery_size, report.map, report.top1)
    return 0


def _cmd_sweep(args) -> int:
    dataset = dataio.load_dataset(args.data)
    scorer = _make_scorer(args, dataset)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as e:
        raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from e
    if not sizes:
        raise ConfigError("--sizes is empty")
    queries = select_queries(dataset.scenes, max_queries=args.max_queries, seed=args.seed)
    reports = gallery_sweep(sizes, queries, dataset.scenes, scorer, seed=args.seed)
    _write_or_print(reports_csv(reports), args.out)
    return 0


def _cmd_gradcheck(args) -> int:
    results = run_all(n_trials=args.trials, seed=args.seed)
    ok = True
    for component, err in results.items():
        status = "pass" if err < GRADCHECK_TOL else "FAIL"
        print(f"{component}: max_rel_err={err:.3e} [{status}]")
        ok = ok and err < GRADCHECK_TOL
    return 0 if ok else 4


_COMMANDS = {
    "gen": _cmd_gen,
    "train-attn": _cmd_train_attn,
    "train-gcn": _cmd_train_gcn,
    "rerank": _cmd_rerank,
    "eval": _cmd_eval,
    "sweep": _cmd_sweep,
    "gradcheck": _cmd_gradcheck,
}


def run(argv=None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        log.error("missing file: %s", e)
        return DataError.exit_code
    except RerankError as e:
        log.error("%s", e)
        return e.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
