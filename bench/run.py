"""Benchmark of context-rerank: one workload per invocation.

    python3 bench/run.py --workload {default,crowded} --seed N --seconds S --trace {0,1}

Run it from the root of a source tree (``src/context_rerank`` next to this
directory); nothing is installed. The inputs come from ``--seed`` alone.
``--trace 0`` measures the end-to-end metrics untraced for about
``--seconds``; ``--trace 1`` runs the minimum work of the workload twice,
untraced and then traced, and reports the per-layer metrics with the
tracing overhead. Metric names and units come from ``BENCHMARK.json``.

Human-readable lines go first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. Files go to ``.bench_out/`` at the root: a result record per
run and, for traced runs, the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def machine(threads: int) -> dict:
    """Where the numbers were taken: cores, CPU, interpreter, NumPy, BLAS, commit."""
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "commit": _commit(),
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny corpus, for the smoke test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "context_rerank" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'context_rerank'} is missing", file=sys.stderr)
        return 2

    # One BLAS thread, set before NumPy loads: with two on two cores, passes over the
    # same queries varied by about 15%, with one by about 2%.
    threads = 1
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    if args.tiny:
        wl = workloads.tiny(wl)
    out_dir = ROOT / ".bench_out"
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = out_dir / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "tiny": args.tiny, "machine": machine(threads)}
    try:
        if args.trace == 0:
            names = [m["name"] for m in spec["end_to_end"]]
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            ctx = workloads.Context(wl, args.seed, work)
            setup_times = workloads.set_up(ctx)
            out = workloads.Outcome()
            workloads.run_phases(ctx, out, args.seconds)
            values = workloads.end_to_end(names, setup_times, out)
            lines = [f"  {n:<34} {v:>14.6g} {units[n]:<6} ({k} samples)" for n, (v, k) in values.items()]
            metrics = {n: v for n, (v, _) in values.items()}
        else:
            names = [m["name"] for m in spec["per_layer"]]
            units = {m["name"]: m["unit"] for m in spec["per_layer"]}
            metrics, out, lines = traced_run(wl, args, work, out_dir / f"trace-{tag}.jsonl", names)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = not out.problems and out.failed == 0
    metrics = {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}
    record.update(phase_seconds=out.phase_seconds, fingerprints=out.fingerprints, problems=out.problems,
                  samples=out.samples, metrics=metrics)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"context-rerank benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}{' tiny' if args.tiny else ''}")
    print("machine: " + json.dumps(record["machine"]))
    print("seconds per kind of work: " + " ".join(f"{k}={v:.2f}" for k, v in out.phase_seconds.items()))
    print("\n".join(lines))
    for problem in out.problems:
        print(f"PROBLEM: {problem}")
    print(f"correct: {correct} (attempted {out.attempted}, failed {out.failed})")
    print(json.dumps({"correct": correct, "attempted": out.attempted, "failed": out.failed, "metrics": metrics}))
    return 0


def traced_run(wl, args, work, trace_path, names):
    """The workload's minimum work untraced, then the same work traced."""
    import tracing
    import workloads

    ref = workloads.Context(wl, args.seed, work)
    setup_times = workloads.set_up(ref)
    ref_out = workloads.Outcome()
    t0 = time.perf_counter()
    workloads.run_phases(ref, ref_out, None)
    untraced_s = time.perf_counter() - t0
    e2e_names = list(ref_out.fingerprints) + [k for k in ref_out.samples if not k.endswith("latency_ms")]
    untraced = workloads.end_to_end(["setup_s", "eval_graph.query_p50_ms"] + e2e_names, setup_times, ref_out)

    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        ctx = workloads.Context(wl, args.seed, work)
        workloads.set_up(ctx, tracer)
        out = workloads.Outcome(attempted=ref_out.attempted, failed=ref_out.failed, problems=ref_out.problems)
        t0 = time.perf_counter()
        workloads.run_phases(ctx, out, None, tracer)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for key, value in ref_out.fingerprints.items():
        if repr(out.fingerprints.get(key)) != repr(value):
            out.problem(f"{key} differs between the untraced and the traced pass")
    overhead = traced_s / untraced_s - 1.0
    metrics = tracing.layer_metrics(tracer, names, overhead)
    tracer.write(trace_path, {"workload": wl.name, "seed": args.seed, "untraced_s": untraced_s,
                              "traced_s": traced_s, "untraced_end_to_end": untraced})

    lines = ["untraced end-to-end (minimum work of the workload):"]
    lines += [f"  {n:<34} {v:>14.6g} ({k} samples)" for n, (v, k) in untraced.items()]
    lines.append("per phase: untraced s, traced s, and the largest self times in the traced pass:")
    for phase, traced_phase_s in out.phase_seconds.items():
        top = sorted(((v[2], n) for (p, n), v in tracer.stats.items() if p == phase), reverse=True)[:5]
        lines.append(f"  {phase:<15} {ref_out.phase_seconds[phase]:8.3f} {traced_phase_s:8.3f}  "
                     + ", ".join(f"{n} {s:.3f}" for s, n in top))
    lines.append(f"tracing overhead: {overhead:+.1%} ({untraced_s:.2f} s untraced, {traced_s:.2f} s traced); "
                 f"spans in {trace_path.name}")
    lines += [f"  {n:<44} {v:>14.6g}" for n, v in metrics.items()]
    return metrics, out, lines


if __name__ == "__main__":
    sys.exit(main())
