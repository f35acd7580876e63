"""Outside-in tracing of the context_rerank layers.

The tracer wraps public functions and methods of the library from the
benchmark's side; the library itself is not changed. Each wrapped call
pushes a frame, and on return the tracer records

* a span (id, name, start, end, parent span id, run id) for coarse calls;
* calls, inclusive seconds and self seconds per (phase, name), where self
  time is the duration minus the time of the wrapped calls made inside it;
* counters derived from the call's arguments and return value only.

Hot per-pair functions are "leaf" calls: they are counted and timed like
the others but get no span of their own, so a traced run keeps some
hundred thousand spans in memory instead of millions.

``install()`` patches every module of the package that bound the original
function (``from .expansion import expand`` copies the name), and
``Tracer.uninstall()`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans = []  # (id, name, start, end, parent id, run id)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # (phase, name) -> [calls, inclusive s, self s]
        self.counts = {}  # counter -> value; hooks add to counters registered in install()
        self.names = set()  # every wrapped name
        self.active = defaultdict(int)  # name -> open frames, for "inside X" tests
        self.stack = []  # frames: [child seconds, span id]
        self.phase = ""
        self.run_id = ""
        self._patches = []

    def begin(self, phase: str, detail: str):
        """Start a run: the spans of one command or one query share its id."""
        self.phase = phase
        self.run_id = f"{phase}/{detail}"

    def call(self, name, leaf, fn, args, kwargs, hook=None):
        parent = self.stack[-1] if self.stack else None
        parent_id = parent[1] if parent else -1
        if leaf:
            frame = [0.0, parent_id]
        else:
            frame = [0.0, len(self.spans)]
            self.spans.append(None)  # reserve the id so children can name it
        self.stack.append(frame)
        self.active[name] += 1
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            self.active[name] -= 1
            self.stack.pop()
            dur = end - start
            st = self.stats[(self.phase, name)]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[0]
            if parent is not None:
                parent[0] += dur
            if not leaf:
                self.spans[frame[1]] = (frame[1], name, start, end, parent_id, self.run_id)
        if hook is not None and self.phase != "check":
            hook(self, args, result)
        return result

    def inside(self, name) -> bool:
        return self.active[name] > 0

    def total(self, name, field: int, phase: str = None) -> float:
        """One stats field (0 calls, 1 inclusive s, 2 self s) of ``phase``, or
        summed over every phase but the correctness checks."""
        return sum(v[field] for (p, n), v in self.stats.items()
                   if n == name and (p == phase if phase else p != "check"))

    def wrap_function(self, module, attr, name, leaf=False, hook=None):
        self.names.add(name)
        orig = getattr(module, attr)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, leaf, orig, args, kwargs, hook)

        package = module.__name__.split(".")[0]
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith(package):
                continue
            for key, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, key, wrapper)
                    self._patches.append((mod, key, orig))

    def wrap_method(self, cls, attr, name, leaf=False, hook=None):
        self.names.add(name)
        orig = cls.__dict__[attr]

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            return self.call(name, leaf, orig, args, kwargs, hook)

        setattr(cls, attr, wrapper)
        self._patches.append((cls, attr, orig))

    def uninstall(self):
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def write(self, path, header: dict):
        """One header line (stats, counts, ``header``), then one JSON line per span."""
        stats = defaultdict(dict)
        for (phase, name), (calls, incl, self_s) in sorted(self.stats.items()):
            stats[phase][name] = {"calls": calls, "inclusive_s": incl, "self_s": self_s}
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps({**header, "stats": stats, "counts": dict(sorted(self.counts.items())),
                                "span_fields": ["id", "name", "start", "end", "parent", "run"]}) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# -- counters from arguments and return values ---------------------------------


def _count(tracer, key, measure):
    tracer.counts[key] = 0.0

    def hook(tracer, args, result):
        tracer.counts[key] += measure(args, result)

    return hook


def _file_bytes(tracer, key):
    return _count(tracer, key, lambda args, result: os.path.getsize(args[0]))


def _expand_hook(tracer, args, ep):
    probe_scene, gallery_scene = args[0], args[2]
    distinct = len({(c.probe_ctx.instance_id, c.gallery_ctx.instance_id) for c in ep.contexts})
    c = tracer.counts
    c["expansion.candidates"] += (len(probe_scene.instances) - 1) * (len(gallery_scene.instances) - 1)
    c["expansion.chosen"] += distinct
    c["expansion.degenerate"] += ep.degenerate
    c["expansion.replicated"] += (not ep.degenerate) and distinct < ep.k
    if tracer.inside("scoring.graph.score_scene"):
        c["graph.eval_targets"] += 1
        c["graph.eval_fallbacks"] += ep.degenerate
    if tracer.inside("graph.build_labeled_expansions"):
        c["graph.build_labeled_expansions.attempts"] += 1


def _labeled_hook(tracer, args, expansions):
    positive = sum(1 for _, label in expansions if label == 1)
    tracer.counts["graph.build_labeled_expansions.positive"] += positive
    tracer.counts["graph.build_labeled_expansions.negative"] += len(expansions) - positive


def _backward_hook(tracer, args, result):
    for trainer in ("attention.train_attention", "graph.train_gcn", "siamese.train_siamese"):
        if tracer.inside(trainer):
            tracer.counts[trainer + ".batches"] += 1


def _evaluate_hook(tracer, args, report):
    tracer.counts["evaluation.queries"] += report.num_queries
    tracer.counts["evaluation.excluded_queries"] += report.excluded_queries


def install(tracer: Tracer):
    """Wrap the public functions of every layer a user pipeline runs."""
    from context_rerank import (
        attention, autodiff, cli, dataio, embeddings, evaluation, expansion, graph, scoring, siamese,
    )

    for key in ("expansion.candidates", "expansion.chosen", "expansion.degenerate", "expansion.replicated",
                "graph.eval_targets", "graph.eval_fallbacks", "graph.build_labeled_expansions.attempts",
                "graph.build_labeled_expansions.positive", "graph.build_labeled_expansions.negative",
                "attention.train_attention.batches", "graph.train_gcn.batches", "siamese.train_siamese.batches",
                "evaluation.queries", "evaluation.excluded_queries"):
        tracer.counts[key] = 0.0
    fn = tracer.wrap_function
    fn(dataio, "load_dataset", "dataio.load_dataset", hook=_file_bytes(tracer, "dataio.load_dataset.bytes"))
    fn(dataio, "generate_synthetic", "dataio.generate_synthetic")
    fn(dataio, "save_dataset", "dataio.save_dataset")

    tracer.wrap_method(autodiff.Tensor, "backward", "autodiff.backward", hook=_backward_hook)
    fn(autodiff, "sgd_step", "autodiff.sgd_step")
    fn(autodiff, "save_checkpoint", "autodiff.save_checkpoint",
       hook=_file_bytes(tracer, "autodiff.save_checkpoint.bytes"))
    fn(autodiff, "load_checkpoint", "autodiff.load_checkpoint",
       hook=_file_bytes(tracer, "autodiff.load_checkpoint.bytes"))

    fn(attention, "pair_loss", "attention.pair_loss", leaf=True)
    fn(attention, "train_attention", "attention.train_attention")
    fn(attention, "build_training_pairs", "attention.build_training_pairs",
       hook=_count(tracer, "attention.build_training_pairs.pairs", lambda a, r: len(r)))
    fn(attention, "attention_weights_batch", "attention.weights_batch",
       hook=_count(tracer, "attention.weights_batch.rows", lambda a, r: a[1].shape[0]))
    fn(attention, "pair_descriptor", "attention.pair_descriptor", leaf=True)
    fn(attention, "order_pair", "attention.order_pair", leaf=True)

    for cls in (scoring.UniformScorer, scoring.AttentionScorer, scoring.GraphScorer):
        key = f"scoring.{cls.name}.score_scene"
        tracer.wrap_method(cls, "score_scene", key,
                           hook=_count(tracer, key + ".instances", lambda a, r: len(a[3].instances)))
    tracer.wrap_method(scoring.AttentionScorer, "pair_matrix", "scoring.attention.pair_matrix",
                       hook=_count(tracer, "scoring.attention.pair_matrix.pairs", lambda a, r: len(a[1]) * len(a[2])))
    tracer.wrap_method(scoring.AttentionScorer, "pair_score", "scoring.attention.pair_score")

    fn(expansion, "expand", "expansion.expand", hook=_expand_hook)
    fn(expansion, "enumerate_candidates", "expansion.enumerate_candidates", leaf=True)
    top_k = expansion.select_top_k

    def select_top_k(candidates, scorer, k):
        # each candidate lookup is a leaf call, which splits scoring from the sort
        def lookup(a, b):
            return tracer.call("expansion.score_lookup", True, scorer, (a, b), {})

        return top_k(candidates, lookup, k)

    expansion.select_top_k = select_top_k
    tracer.names.add("expansion.score_lookup")
    tracer._patches.append((expansion, "select_top_k", top_k))
    fn(expansion, "select_top_k", "expansion.select_top_k")

    fn(graph, "build_graph", "graph.build_graph", leaf=True)
    fn(graph, "gcn_score_batch", "graph.gcn_score_batch",
       hook=_count(tracer, "graph.gcn_score_batch.graphs", lambda a, r: a[2].shape[0]))
    fn(graph, "sample_loss", "graph.sample_loss", leaf=True)
    fn(graph, "train_gcn", "graph.train_gcn")
    fn(graph, "build_labeled_expansions", "graph.build_labeled_expansions", hook=_labeled_hook)
    fn(graph, "build_graph_samples", "graph.build_graph_samples")

    fn(siamese, "siamese_forward", "siamese.siamese_forward", leaf=True)
    fn(siamese, "train_siamese", "siamese.train_siamese")
    fn(siamese, "samples_from_expansions", "siamese.samples_from_expansions")

    fn(evaluation, "evaluate", "evaluation.evaluate", hook=_evaluate_hook)
    fn(evaluation, "rank_gallery", "evaluation.rank_gallery",
       hook=_count(tracer, "evaluation.gallery_instances", lambda a, r: len(r.ranked)))
    fn(evaluation, "select_queries", "evaluation.select_queries")

    fn(embeddings, "cosine_matrix", "embeddings.cosine_matrix",
       hook=_count(tracer, "embeddings.cosine_matrix.pairs", lambda a, r: len(a[0]) * len(a[1])))

    fn(cli, "run", "cli.run")


# -- per-layer metrics -------------------------------------------------------------------

TAPE = ("autodiff.backward", "graph.sample_loss", "attention.pair_loss", "siamese.siamese_forward")


def _ratio(a, b):
    return a / b if b else 0.0


def _command_seconds(tracer, stage):
    return sum(end - start for _, name, start, end, _, run in tracer.spans
               if name == "cli.run" and run.split("/")[1] == stage)


def _derived(tracer, overhead):
    t, c = tracer, tracer.counts
    graph_eval = t.total("evaluation.evaluate", 1, "eval_graph")
    training = t.total("cli.run", 1, "train")
    return {
        "attention.weights_batch.rows_per_call":
            lambda: _ratio(c["attention.weights_batch.rows"], t.total("attention.weights_batch", 0)),
        "scoring.graph.fallback_share": lambda: _ratio(c["graph.eval_fallbacks"], c["graph.eval_targets"]),
        "expansion.candidates_per_expand":
            lambda: _ratio(c["expansion.candidates"], t.total("expansion.expand", 0)),
        "expansion.chosen_per_candidate": lambda: _ratio(c["expansion.chosen"], c["expansion.candidates"]),
        "cli.run.train_attn.s": lambda: _command_seconds(t, "train_attn"),
        "cli.run.train_gcn.s": lambda: _command_seconds(t, "train_gcn"),
        "cli.run.train_siamese.s": lambda: _command_seconds(t, "train_siamese"),
        "profile.eval_graph.gcn_score_batch_share":
            lambda: _ratio(t.total("graph.gcn_score_batch", 1, "eval_graph"), graph_eval),
        "profile.eval_graph.expand_share": lambda: _ratio(t.total("expansion.expand", 1, "eval_graph"), graph_eval),
        "profile.train.tape_share": lambda: _ratio(sum(t.total(n, 1, "train") for n in TAPE), training),
        "profile.train.targets_share": lambda: _ratio(t.total("expansion.expand", 1, "train"), training),
        "trace.overhead": lambda: overhead,
        "trace.spans": lambda: len(t.spans),
    }


def layer_metrics(tracer: Tracer, names, overhead: float) -> dict:
    """Value of each per-layer metric: ``X.calls`` and ``X.s`` are the calls
    and self seconds of the wrapped name X, other names are counters or the
    ratios and shares derived above."""
    derived = _derived(tracer, overhead)
    out = {}
    for name in names:
        if name in derived:
            out[name] = derived[name]()
        elif name.endswith(".calls") and name[: -len(".calls")] in tracer.names:
            out[name] = tracer.total(name[: -len(".calls")], 0)
        elif name.endswith(".s") and name[: -len(".s")] in tracer.names:
            out[name] = tracer.total(name[: -len(".s")], 2)
        elif name in tracer.counts:
            out[name] = tracer.counts[name]
        else:
            raise KeyError(f"no source for per-layer metric {name!r}")
    return out
