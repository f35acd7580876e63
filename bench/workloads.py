"""The benchmark workloads: set-up, timed work, correctness checks, metrics.

Every run does the same kinds of work, so every run reports every
end-to-end metric: training rounds of the three CLI training commands, and
ranking with the uniform, attention and graph scorers. The workloads differ
in corpus, gallery size and in how the run's seconds are shared:

* ``default`` -- the default corpus (about 4 persons per scene): training on
  the whole corpus, and ranking at gallery size 100;
* ``crowded`` -- a corpus of crowded scenes (10-14 persons each): ranking at
  gallery size 25 takes most of the run.

Training runs ``context_rerank.cli.run`` in process with the flags of
``tests/test_acceptance.py`` at one epoch. Ranking calls
``evaluation.evaluate([query], ...)`` once per query with checkpoints made in
set-up without training, so no change to training can move it.
"""

from __future__ import annotations

import logging
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from context_rerank import autodiff, cli, dataio, evaluation
from context_rerank.attention import AttentionParams, init_attention_params
from context_rerank.errors import RerankError
from context_rerank.graph import GcnParams, init_gcn_params, normalize_adjacency, star_adjacency
from context_rerank.scoring import AttentionScorer, GraphScorer, OracleScorer, UniformScorer
from context_rerank.siamese import SiameseParams

_perf = time.perf_counter

# tests/test_acceptance.py flags, one epoch; --seed is the benchmark seed
ATTN_FLAGS = ["--lr", "0.1", "--epochs", "1", "--hidden", "512", "--neg-ratio", "1"]
GCN_FLAGS = ["--lr", "0.3", "--epochs", "1", "--lr-drop-epoch", "15", "--neg-ratio", "2"]
ATTN_HIDDEN = 512
CONTEXT_K = 3
SETUP_REPS = 7
TRAIN_ROUNDS = 2  # at least two, so the loss fingerprints are compared in every run
SCORERS = ("uniform", "attention", "graph")
# Rates are reported at this percentile of their samples: the rate 90% of
# rounds or blocks reach. The host's CPU speed switches between two states
# about twofold apart for seconds to minutes; over ten seeds this statistic
# spread less than the median in the worst case seen (see bench/README.md).
SLOW_QUANTILE = 10

# A scene holds one travel group of 10-14 persons. With a cap of 12, groups of
# 13 and 14 fit no scene and join an occupied one, and the cost per query
# then varied twofold between seeds.
CROWDED_CORPUS = dict(num_identities=240, num_cameras=4, scenes_per_camera=30,
                      instances_per_scene=16, group_size_mean=12)
TINY_CORPUS = dict(num_identities=24, num_cameras=3, scenes_per_camera=8, instances_per_scene=4, dim=16)
TINY_CROWDED_CORPUS = dict(num_identities=24, num_cameras=3, scenes_per_camera=6,
                           instances_per_scene=8, group_size_mean=8, dim=16)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict  # SynthConfig fields besides the seed
    gallery_size: int
    train_scene_step: int  # train on every n-th scene of the corpus
    max_positives: int  # --max-positives for both train-gcn commands
    shares: dict  # phase -> share of the run's seconds
    queries: int = 100  # one pass; p90 needs at least 100
    blocks: dict = field(default_factory=lambda: {"uniform": 50, "attention": 10, "graph": 10})


WORKLOADS = {
    "default": Workload(
        "default",
        corpus={}, gallery_size=100, train_scene_step=1, max_positives=100,
        shares={"train": 0.45, "eval_uniform": 0.05, "eval_attention": 0.1, "eval_graph": 0.4},
    ),
    "crowded": Workload(
        "crowded",
        corpus=CROWDED_CORPUS, gallery_size=25, train_scene_step=3, max_positives=12,
        shares={"train": 0.2, "eval_uniform": 0.06, "eval_attention": 0.12, "eval_graph": 0.62},
    ),
}


def tiny(wl: Workload) -> Workload:
    """The same workload on a corpus small enough for a smoke test."""
    corpus = TINY_CROWDED_CORPUS if wl.corpus else TINY_CORPUS
    return Workload(wl.name, corpus, gallery_size=min(wl.gallery_size, 6), train_scene_step=1,
                    max_positives=10, shares=wl.shares, queries=10,
                    blocks={s: 5 for s in SCORERS})


# -- set-up ------------------------------------------------------------------------


def distance_gcn(rng, d: int) -> GcnParams:
    """A GCN checkpoint built by hand. The match score falls with the L1
    distance between the whole-body features of the target pair plus half
    the mean L1 distance of the context pairs.

    Untrained random weights rank worse than chance (mAP near 0.02, top-1
    0), which would make the graph fingerprints meaningless. Each layer maps
    the node features [p | g] to [p - g | g - p], so the signed difference
    passes the ReLUs as its positive and negative parts. The readout undoes
    the propagation with the inverse of A_hat^3, so hidden units 2f*i ..
    2f*i + f see |p - g| of node i alone.
    """
    n, f = CONTEXT_K + 1, 2 * d
    params = init_gcn_params(rng, n, f)
    eye = np.eye(d)
    swap = np.block([[eye, -eye], [-eye, eye]])
    for layer in params.layers:
        layer.data = swap.copy()
    a_hat = normalize_adjacency(star_adjacency(n), "sym")
    unmix = np.linalg.inv(np.linalg.matrix_power(a_hat, len(params.layers)))
    readout = np.zeros_like(params.readout_w.data)
    for node in range(n):
        for src in range(n):
            readout[node * f:(node + 1) * f, src * f:(src + 1) * f] = unmix[node, src] * swap
    params.readout_w.data = readout
    params.readout_b.data = np.zeros_like(params.readout_b.data)
    cls = np.zeros_like(params.cls_w.data)
    cls[1, :f] = -0.5
    cls[1, f:n * f] = -0.5 * 0.5 / CONTEXT_K
    params.cls_w.data = cls
    # score 0.5 at a distance of 8, about midway between matching and other persons
    params.cls_b.data = np.array([[0.0], [0.5 * 8.0]])
    return params


def positive_pair_count(scenes) -> int:
    """Cross-scene same-identity pairs: train-attn uses each once per epoch,
    plus as many negatives at --neg-ratio 1."""
    per_identity = {}
    for s in scenes:
        for i in s.instances:
            if i.identity is not None:
                per_identity.setdefault(i.identity, []).append(s.scene_id)
    total = 0
    for scene_ids in per_identity.values():
        for a in range(len(scene_ids)):
            total += sum(1 for b in range(a + 1, len(scene_ids)) if scene_ids[a] != scene_ids[b])
    return total


@dataclass
class Context:
    wl: Workload
    seed: int
    work: Path
    dataset: object = None
    attn: AttentionParams = None
    gcn: GcnParams = None
    train_data: Path = None
    train_pairs: int = 0


def set_up(ctx: Context, tracer=None) -> list:
    """Corpus generation, checkpoint set-up and loading, SETUP_REPS times; returns the times."""
    wl, work = ctx.wl, ctx.work
    corpus, attn0, gcn0 = work / "corpus.jsonl", work / "attn0.ckpt", work / "gcn0.ckpt"
    times = []
    for rep in range(SETUP_REPS):
        if tracer is not None:
            tracer.begin("setup", f"rep{rep}")
        t0 = _perf()
        ds = dataio.generate_synthetic(dataio.SynthConfig(**wl.corpus, seed=ctx.seed))
        dataio.save_dataset(ds, corpus)
        train = dataio.Dataset(d=ds.d, scenes=tuple(ds.scenes[::wl.train_scene_step]))
        dataio.save_dataset(train, work / "train.jsonl")
        rng = np.random.default_rng((ctx.seed, 0xBE7C))
        autodiff.save_checkpoint(attn0, init_attention_params(rng, ds.d, ATTN_HIDDEN).to_entries())
        autodiff.save_checkpoint(gcn0, distance_gcn(rng, ds.d).to_entries())
        ctx.dataset = dataio.load_dataset(corpus)
        ctx.attn = AttentionParams.from_entries(autodiff.load_checkpoint(attn0))
        ctx.gcn = GcnParams.from_entries(autodiff.load_checkpoint(gcn0))
        times.append(_perf() - t0)
    ctx.train_data = work / "train.jsonl"
    ctx.train_pairs = 2 * positive_pair_count(train.scenes)
    return times


# -- timed phases --------------------------------------------------------------------


class _Records(logging.Handler):
    """Keeps the library's log records of one command."""

    def __init__(self):
        super().__init__(logging.INFO)
        self.records = []

    def emit(self, record):
        self.records.append(record)

    def last_args(self, prefix):
        found = [r.args for r in self.records if r.msg.startswith(prefix)]
        return found[-1] if found else None


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    samples: dict = field(default_factory=dict)  # metric -> list of samples
    fingerprints: dict = field(default_factory=dict)
    repeats: dict = field(default_factory=dict)  # fingerprint -> samples behind it
    phase_seconds: dict = field(default_factory=dict)

    def problem(self, text):
        self.problems.append(text)

    def add(self, metric, value):
        self.samples.setdefault(metric, []).append(value)

    def fingerprint(self, key, value, samples=1):
        """Record a value that must repeat byte for byte within the run."""
        self.repeats[key] = self.repeats.get(key, 0) + samples
        old = self.fingerprints.setdefault(key, value)
        if repr(old) != repr(value):
            self.problem(f"{key} changed between repeats: {old!r} then {value!r}")


TRAIN_STAGES = (
    # metric prefix, loss log prefix, extra flags
    ("train_attn", "attention epoch", None),
    ("train_gcn", "gcn epoch", []),
    ("train_siamese", "siamese epoch", ["--mode", "siamese"]),
)
_RELOAD = {"train_attn": AttentionParams, "train_gcn": GcnParams, "train_siamese": SiameseParams}


def train_round(ctx: Context, out: Outcome, tracer, rnd: int) -> bool:
    work, seed = ctx.work, str(ctx.seed)
    records = _Records()
    logger = logging.getLogger("context_rerank")
    logger.addHandler(records)
    logger.setLevel(logging.INFO)
    try:
        for stage, loss_prefix, extra in TRAIN_STAGES:
            ckpt = work / f"{stage}.ckpt"
            if extra is None:
                argv = ["train-attn", "--data", str(ctx.train_data), "--out", str(ckpt)] + ATTN_FLAGS
            else:
                argv = (["train-gcn", "--data", str(ctx.train_data), "--attn", str(work / "train_attn.ckpt"),
                         "--out", str(ckpt), "--max-positives", str(ctx.wl.max_positives)]
                        + GCN_FLAGS + extra)
            argv += ["--seed", seed]
            records.records.clear()
            if tracer is not None:
                tracer.begin("train", f"{stage}/{rnd}")
            out.attempted += 1
            t0 = _perf()
            code = cli.run(argv)
            dt = _perf() - t0
            if code != 0:
                out.failed += 1
                out.problem(f"{argv[0]} ({stage}) exited {code}")
                return False
            if tracer is not None:
                tracer.begin("check", f"reload/{stage}/{rnd}")
            try:
                _RELOAD[stage].from_entries(autodiff.load_checkpoint(ckpt))
            except (RerankError, OSError, ValueError) as e:
                out.failed += 1
                out.problem(f"{stage} checkpoint does not reload: {e}")
                return False
            loss = records.last_args(loss_prefix)
            if extra is None:
                work_done = ctx.train_pairs
            else:
                targets = records.last_args("graph targets:")
                work_done = targets[0] + targets[1] if targets else 0
            if loss is None or not work_done:
                out.failed += 1
                out.problem(f"{stage}: no loss or target count in the log records")
                return False
            unit = "pairs_per_s" if extra is None else "samples_per_s"
            out.add(f"{stage}.{unit}", work_done / dt)
            out.fingerprint(f"{stage}.loss", float(loss[-1]))
        return True
    finally:
        logger.removeHandler(records)


class CheckedScorer:
    """Passes scores through and counts any outside [0, 1] (NaN included)."""

    def __init__(self, inner):
        self.inner = inner
        self.name = inner.name
        self.scores = 0
        self.bad = 0

    def score_scene(self, probe_scene, probe, gallery_scene):
        scored = self.inner.score_scene(probe_scene, probe, gallery_scene)
        self.scores += len(scored)
        self.bad += sum(1 for _, s in scored if not 0.0 <= s <= 1.0)
        return scored


class EvalPhase:
    """One scorer's queries in blocks of ``Workload.blocks[scorer]``. The
    minimum is one full pass; later blocks go round the same queries again
    and must reproduce each query's AP and top-1 exactly."""

    def __init__(self, ctx: Context, out: Outcome, tracer, scorer, queries):
        self.ctx, self.out, self.tracer, self.scorer, self.queries = ctx, out, tracer, scorer, queries
        self.name = f"eval_{scorer.name}"
        self.block = ctx.wl.blocks[scorer.name]
        self.min_units = math.ceil(len(queries) / self.block)
        self.units = self.pos = 0
        self.results, self.latencies = {}, []
        self.ok = True

    def step(self):
        n, out = len(self.queries), self.out
        size = min(self.block, n - self.pos) if self.units < self.min_units else self.block
        t_block = _perf()
        for j in range(size):
            idx = (self.pos + j) % n
            if self.tracer is not None:
                self.tracer.begin(self.name, f"q{idx}")
            out.attempted += 1
            t0 = _perf()
            try:
                report = evaluation.evaluate([self.queries[idx]], self.ctx.dataset.scenes, self.scorer,
                                             self.ctx.wl.gallery_size, seed=self.ctx.seed)
            except RerankError as e:
                out.failed += 1
                out.problem(f"{self.name} query {idx}: {e}")
                continue
            self.latencies.append(_perf() - t0)
            result = (report.per_query_ap[0], report.top1)
            if self.results.setdefault(idx, result) != result:
                out.problem(f"{self.name} query {idx}: (AP, top-1) {self.results[idx]!r} then {result!r}")
        out.add(f"{self.name}.queries_per_s", size / (_perf() - t_block))
        self.pos += size
        self.units += 1

    def finish(self):
        n = len(self.queries)
        if len(self.results) == n:
            self.out.fingerprint(f"{self.name}.map", float(np.mean([self.results[i][0] for i in range(n)])), n)
            self.out.fingerprint(f"{self.name}.top1", sum(self.results[i][1] for i in range(n)) / n, n)
        self.out.samples[f"{self.name}.latency_ms"] = [1000.0 * x for x in self.latencies]


class TrainPhase:
    """Rounds of the three training commands; at least TRAIN_ROUNDS."""

    name = "train"
    min_units = TRAIN_ROUNDS

    def __init__(self, ctx: Context, out: Outcome, tracer):
        self.ctx, self.out, self.tracer = ctx, out, tracer
        self.units = 0
        self.ok = True

    def step(self):
        self.ok = train_round(self.ctx, self.out, self.tracer, self.units)
        self.units += 1

    def finish(self):
        pass


def run_phases(ctx: Context, out: Outcome, seconds, tracer=None):
    """Run every phase's minimum, interleaved, and then more units while
    ``seconds`` last. The next unit (a training round or a block of queries)
    goes to the phase furthest behind its share of the time
    (``Workload.shares``), so each metric samples the whole run rather than
    one stretch of it; a unit starts only if its last one would still fit.
    With ``seconds=None`` every phase does exactly its minimum."""
    wl = ctx.wl
    if tracer is not None:
        tracer.begin("eval_select", "queries")
    queries = evaluation.select_queries(ctx.dataset.scenes, max_queries=wl.queries, seed=ctx.seed)
    if len(queries) < wl.queries:
        out.problem(f"only {len(queries)} queries available, the workload needs {wl.queries}")
    graph = CheckedScorer(GraphScorer(ctx.attn, ctx.gcn, k=CONTEXT_K, seed=ctx.seed))
    scorers = {"uniform": UniformScorer(), "attention": AttentionScorer(ctx.attn), "graph": graph}
    phases = [TrainPhase(ctx, out, tracer)] + [EvalPhase(ctx, out, tracer, scorers[s], queries) for s in SCORERS]
    used = {p.name: 0.0 for p in phases}
    last = dict(used)
    end = None if seconds is None else _perf() + seconds
    while True:
        left = None if end is None else end - _perf()
        ready = [p for p in phases
                 if p.ok and (p.units < p.min_units or (left is not None and last[p.name] < left))]
        if not ready:
            break
        phase = min(ready, key=lambda p: used[p.name] / wl.shares[p.name])
        t0 = _perf()
        phase.step()
        last[phase.name] = _perf() - t0
        used[phase.name] += last[phase.name]
    for phase in phases:
        phase.finish()
    out.phase_seconds.update(used)

    if tracer is not None:
        tracer.begin("check", "oracle")
    if graph.bad or not graph.scores:
        out.problem(f"graph scores outside [0, 1] or not finite: {graph.bad} of {graph.scores}")
    oracle = evaluation.evaluate(queries, ctx.dataset.scenes, OracleScorer(), wl.gallery_size, seed=ctx.seed)
    if oracle.map != 1.0 or oracle.top1 != 1.0:
        out.problem(f"oracle scorer reaches mAP {oracle.map} and top-1 {oracle.top1}, not 1.0")


# -- end-to-end metrics ----------------------------------------------------------------


def end_to_end(names, setup_times, out: Outcome) -> dict:
    """name -> (value, sample count) for every end-to-end metric in ``names``."""
    latency = out.samples.get("eval_graph.latency_ms", [])
    result = {}
    for name in names:
        if name == "setup_s":
            result[name] = (statistics.median(setup_times), len(setup_times))
        elif name == "peak_rss_mb":
            result[name] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)
        elif name == "eval_graph.query_p50_ms" and latency:
            result[name] = (statistics.median(latency), len(latency))
        elif name == "eval_graph.query_p90_ms" and len(latency) >= 2:
            result[name] = (statistics.quantiles(latency, n=10)[8], len(latency))
        elif name in out.fingerprints:
            result[name] = (out.fingerprints[name], out.repeats[name])
        elif out.samples.get(name):
            result[name] = (float(np.percentile(out.samples[name], SLOW_QUANTILE)), len(out.samples[name]))
        else:
            out.problem(f"no samples for {name}")
            result[name] = (0.0, 0)
    return result
