"""Command-line entry point: dataset generation, training, re-ranking,
evaluation, and gradient verification.

All randomness flows from the --seed flags; identical invocations produce
byte-identical outputs. Logs go to stderr, data to stdout or --out files.
"""

from __future__ import annotations

import argparse
import errno
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import attention, dataio, graph
from .attention import DEFAULT_HIDDEN, AttentionParams, VerificationConfig, build_training_pairs, train_attention
from .autodiff import SgdConfig, load_checkpoint, save_checkpoint
from .errors import ConfigError, DataError, RerankError, UsageError
from .evaluation import check_gallery_size, evaluate, gallery_sweep, rank_gallery, reports_csv, select_queries
from .expansion import DEFAULT_K
from .gradcheck import run_all
from .graph import GcnParams, build_graph_samples, train_gcn
from .scoring import (
    SCORER_NAMES,
    AttentionScorer,
    GraphScorer,
    OracleScorer,
    RandomScorer,
    SiameseScorer,
    UniformScorer,
)
from .siamese import SiameseParams, train_siamese

log = logging.getLogger("context_rerank")

GRADCHECK_TOL = 1e-4

# The least value of each integer option, by command; checked before any work.
_LEAST = {
    "gen": {"seed": 0},
    "train-attn": {"hidden": 1, "neg_ratio": 1, "lr_drop_epoch": 0, "seed": 0},
    "train-gcn": {"context_k": 1, "max_positives": 1, "lr_drop_epoch": 0, "seed": 0},
    "rerank": {"gallery_size": 1, "context_k": 1, "seed": 0},
    "eval": {"gallery_size": 1, "max_queries": 1, "context_k": 1, "seed": 0},
    "sweep": {"max_queries": 1, "context_k": 1, "seed": 0},
    "gradcheck": {"trials": 1, "seed": 0},
}

# gen's flags after --out, each with its SynthConfig field and help text
_GEN_FLAGS = {
    "--identities": ("num_identities", None),
    "--cameras": ("num_cameras", None),
    "--scenes-per-camera": ("scenes_per_camera", None),
    "--instances-per-scene": ("instances_per_scene", None),
    "--group-size-mean": ("group_size_mean", None),
    "--co-travel-prob": ("co_travel_prob", None),
    "--noise-sigma": ("view_noise_sigma", None),
    "--part-dropout": ("part_dropout_prob", None),
    "--dim": ("dim", None),
    "--lookalike-group": ("lookalike_group", "identities per lookalike appearance cluster"),
    "--lookalike-overlap": ("lookalike_overlap", "appearance overlap within a lookalike cluster, in [0,1]"),
    "--seed": ("seed", None),
}


# the one learning-rate drop the CLI sets: SgdConfig's default (epoch, factor)
((_LR_DROP_EPOCH, _LR_DROP_FACTOR),) = SgdConfig().schedule


def _add_sgd_flags(p):
    sgd = SgdConfig()
    p.add_argument("--lr", type=float, default=sgd.learning_rate, help="initial learning rate (default %(default)s)")
    p.add_argument("--epochs", type=int, default=sgd.epochs, help="training epochs (default %(default)s)")
    p.add_argument("--lr-drop-epoch", type=int, default=_LR_DROP_EPOCH,
                   help=f"epoch after which the learning rate is multiplied by {_LR_DROP_FACTOR}, 0 for never"
                        " (default %(default)s)")
    p.add_argument("--batch-size", type=int, default=sgd.batch_size, help="mini-batch size (default %(default)s)")
    p.add_argument("--seed", type=int, default=sgd.seed, help="RNG seed (default %(default)s)")


def _add_context_k_flag(p, default=DEFAULT_K):
    p.add_argument("--context-k", type=int, default=default,
                   help=f"context pairs per target (default {default or 'the K of the --gcn checkpoint'})")


def _add_scorer_flags(p):
    p.add_argument("--scorer", choices=SCORER_NAMES, default="graph",
                   help="similarity used for ranking (default graph)")
    p.add_argument("--attn", type=Path, default=None, help="attention checkpoint path")
    p.add_argument("--gcn", type=Path, default=None, help="graph (or siamese) checkpoint path")
    _add_context_k_flag(p, None)
    p.add_argument("--seed", type=int, default=42, help="RNG seed (default 42)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="context-rerank",
        description="Context-aware person retrieval re-ranking (attention part fusion + star-graph GCN).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen_defaults = dataio.SynthConfig()
    p = sub.add_parser("gen", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path, default=Path("synth.jsonl"),
                   help="output dataset file (default synth.jsonl)")
    for flag, (name, help_text) in _GEN_FLAGS.items():
        default = getattr(gen_defaults, name)
        p.add_argument(flag, type=type(default), default=default, help=help_text)

    p = sub.add_parser("train-attn", help="train the relative attention head")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="attention checkpoint output")
    p.add_argument("--margin", type=float, default=VerificationConfig().margin,
                   help="verification loss margin (default %(default)s)")
    p.add_argument("--hidden", type=int, default=DEFAULT_HIDDEN, help="hidden width (default %(default)s)")
    p.add_argument("--neg-ratio", type=int, default=attention.DEFAULT_PAIR_NEG_RATIO,
                   help="negatives sampled per positive each epoch (default %(default)s)")
    _add_sgd_flags(p)

    p = sub.add_parser("train-gcn", help="train the context graph scorer")
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--attn", type=Path, required=True, help="trained attention checkpoint")
    p.add_argument("--out", type=Path, required=True, help="graph checkpoint output")
    p.add_argument("--mode", choices=("paired", "siamese"), default="paired",
                   help="paired-node graph (default) or two-graph siamese baseline")
    _add_context_k_flag(p)
    p.add_argument("--max-positives", type=int, default=None,
                   help="cap on positive target pairs (default: all)")
    p.add_argument("--neg-ratio", type=float, default=graph.DEFAULT_TARGET_NEG_RATIO,
                   help="negative target pairs per positive (default %(default)s)")
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


def _build_configs(args) -> None:
    """Build, and so check, what the command makes of its option values before
    it touches the disk (``args.synth``, ``args.sgd``, ``args.verification``
    and the ``args.sizes`` list); the commands use what is built here."""
    if args.command == "gen":
        args.synth = dataio.SynthConfig(**{name: getattr(args, flag[2:].replace("-", "_"))
                                           for flag, (name, _) in _GEN_FLAGS.items()})
    if args.command == "train-gcn" and not (math.isfinite(args.neg_ratio) and args.neg_ratio > 0):
        raise ConfigError(f"--neg-ratio must be finite and > 0, got {args.neg_ratio}")
    if args.command in ("train-attn", "train-gcn"):
        schedule = ((args.lr_drop_epoch, _LR_DROP_FACTOR),) if args.lr_drop_epoch > 0 else ()
        args.sgd = SgdConfig(learning_rate=args.lr, epochs=args.epochs, seed=args.seed,
                             batch_size=args.batch_size, schedule=schedule)
    if args.command == "train-attn":
        args.verification = VerificationConfig(margin=args.margin)
    if args.command == "sweep":
        try:
            args.sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
        except ValueError as e:
            raise ConfigError(f"--sizes must be comma-separated integers, got {args.sizes!r}") from e
        if not args.sizes:
            raise ConfigError("--sizes is empty")
        if min(args.sizes) < 1:
            raise ConfigError(f"--sizes must be >= 1, got {min(args.sizes)}")
    scorer = getattr(args, "scorer", None)
    if scorer in ("attention", "graph", "siamese") and args.attn is None:
        raise UsageError("this scorer needs --attn (trained attention checkpoint)")
    if scorer in ("graph", "siamese") and args.gcn is None:
        raise UsageError(f"scorer {scorer!r} needs --gcn (trained graph checkpoint)")


def _load_params(cls, path, flag):
    """The ``cls`` parameters in the checkpoint that ``flag`` names; a
    checkpoint of another model kind is a usage error, and one whose entries
    do not fit together a data error naming the file."""
    entries = load_checkpoint(path)
    found = sorted({name.partition("/")[0] for name in entries})
    if cls.PREFIX not in found:
        raise ConfigError(f"{flag} {path} is not a {cls.PREFIX} checkpoint: its entry prefixes are {found}")
    try:
        return cls.from_entries(entries)
    except DataError as e:
        raise DataError(f"{path}: {e}") from e


def _load_attention(path, dataset) -> AttentionParams:
    attn = _load_params(AttentionParams, path, "--attn")
    if attn.dim != dataset.d:
        raise DataError(f"attention checkpoint {path} is for d={attn.dim}, dataset has d={dataset.d}")
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
    scorer, cls = (GraphScorer, GcnParams) if args.scorer == "graph" else (SiameseScorer, SiameseParams)
    params = _load_params(cls, args.gcn, "--gcn")
    if params.layers[0].shape[0] != cls.NODE_SIDES * dataset.d:
        raise DataError(f"graph checkpoint {args.gcn} takes node features of width {params.layers[0].shape[0]}, "
                        f"dataset has d={dataset.d} (width {cls.NODE_SIDES * dataset.d})")
    return scorer(attn, params, k=args.context_k, seed=args.seed)


def _output(path: Path) -> Path:
    """``path`` with its missing parent directories made; every output file is written through here."""
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _write_or_print(text: str, out: Path):
    if out is None:
        sys.stdout.write(text)
    else:
        _output(out).write_text(text)


def _cmd_gen(args) -> int:
    dataset = dataio.generate_synthetic(args.synth)
    report = dataio.validate(dataset)
    for key, value in report.items():
        log.info("gen: %s=%s", key, value)
    for w in report["warnings"]:
        log.warning("gen: %s", w)
    if not report["positive_pairs"]:
        raise ConfigError(f"gen: no identity is in two scenes, so no command can evaluate the corpus; identities reach "
                          f"one by co-travel (--cameras {args.cameras}, --co-travel-prob {args.co_travel_prob})")
    dataio.save_dataset(dataset, _output(args.out))
    log.info("gen: wrote %s", args.out)
    return 0


def _cmd_train_attn(args) -> int:
    dataset = dataio.load_dataset(args.data)
    rng = np.random.default_rng((args.seed, 0xA11))
    pairs = build_training_pairs(dataset.scenes, rng)
    params = train_attention(pairs, args.sgd, args.verification, hidden=args.hidden, neg_ratio=args.neg_ratio)
    save_checkpoint(_output(args.out), params.to_entries())
    log.info("train-attn: wrote %s", args.out)
    return 0


def _cmd_train_gcn(args) -> int:
    dataset = dataio.load_dataset(args.data)
    attn = _load_attention(args.attn, dataset)
    samples = build_graph_samples(
        dataset.scenes, AttentionScorer(attn).pair_matrix, k=args.context_k, seed=args.seed,
        neg_ratio=args.neg_ratio, max_positives=args.max_positives,
    )
    train = train_gcn if args.mode == "paired" else train_siamese
    params = train(samples, args.sgd)
    save_checkpoint(_output(args.out), params.to_entries())
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
    check_gallery_size(args.gallery_size, dataset.scenes)
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
        _write_or_print("\n".join(lines) + "\n", args.per_query)
    log.info("eval: scorer=%s gallery_size=%d mAP=%.4f top1=%.4f",
             report.scorer, report.gallery_size, report.map, report.top1)
    return 0


def _cmd_sweep(args) -> int:
    dataset = dataio.load_dataset(args.data)
    scorer = _make_scorer(args, dataset)
    queries = select_queries(dataset.scenes, max_queries=args.max_queries, seed=args.seed)
    reports = gallery_sweep(args.sizes, queries, dataset.scenes, scorer, seed=args.seed)
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
        for dest, least in _LEAST.get(args.command, {}).items():
            value = getattr(args, dest)
            if value is not None and value < least:
                raise ConfigError(f"--{dest.replace('_', '-')} must be >= {least}, got {value}")
        _build_configs(args)
        for path in (getattr(args, "out", None), getattr(args, "per_query", None)):
            if path is not None:  # before any input is read, making nothing: not a directory, not under a file
                if path.is_dir():
                    raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(path))
                above = next(p for p in path.parents if p.exists())
                if not above.is_dir():
                    raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(above))
        return _COMMANDS[args.command](args)
    except FileNotFoundError as e:
        log.error("missing file: %s", e)
        return DataError.exit_code
    except OSError as e:
        log.error("cannot use path %s: %s", e.filename, e.strerror or e)
        return DataError.exit_code
    except RerankError as e:
        log.error("%s", e)
        return e.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
