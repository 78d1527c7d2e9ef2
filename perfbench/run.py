"""Benchmark entry point: one workload at one seed, one line of JSON.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-warm --seed 1 \
        --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` alternates untraced operations with traced ones, which
record spans around every layer entry point (see ``tracer.py``), and
reports the per-layer metrics, span coverage and tracing overhead.
Both modes run every correctness oracle after the timed window.  The
last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it records the execution context.

Every file the run writes (compiled kernel, golden caches, ledgers,
span dumps, per-seed program counts) goes under ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
#: ``PYTHONHASHSEED`` of every measured interpreter (0: no randomisation).
HASH_SEED = "0"

#: name -> unit.  Every run with ``--trace 0`` reports all of them.
END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run, per operation of the workload
#: (one campaign, analysis pass or ingest pass).
#: A layer's ``self_s`` is its spans' time minus their child spans.
PER_LAYER = {
    "golden.build_s": "s", "golden.builds": "count",
    "golden.build_cycles_per_s": "1/s", "golden.load_s": "s",
    "golden.loads": "count", "golden.liveness_s": "s",
    "golden.liveness_calls": "count", "golden.self_s": "s",
    "arch.build_s": "s", "arch.builds": "count", "arch.cross_check_s": "s",
    "arch.self_s": "s",
    "campaign.sample_s": "s", "campaign.schedule_s": "s",
    "campaign.schedule_calls": "count", "campaign.self_s": "s",
    "campaign.injections": "count", "campaign.errors_per_injection": "ratio",
    "injector.pruned_ratio": "ratio", "injector.equiv_hits": "count",
    "injector.cycles_saved": "count",
    "batch.init_s": "s", "batch.inits": "count", "batch.inject_all_s": "s",
    "batch.self_s": "s",
    "cstep.drive_s": "s", "cstep.drive_calls": "count",
    "cstep.cycles": "count", "cstep.cycles_per_s": "1/s",
    "parallel.run_shard_s": "s", "parallel.shards": "count",
    "parallel.self_s": "s",
    "service.lease_s": "s", "service.commit_s": "s",
    "service.commits": "count", "service.store_add_s": "s",
    "service.http_s": "s",
    "service.self_s": "s",
    "core.train_s": "s", "core.trains": "count",
    "core.predict_calls": "count", "core.self_s": "s",
    "reaction.evaluate_strategy_s": "s", "reaction.strategy_calls": "count",
    "reaction.build_context_s": "s", "reaction.self_s": "s",
    "analysis.self_s": "s",
    "trace.wall_s": "s", "trace.coverage": "ratio",
    "trace.overhead": "ratio", "trace.spans": "count",
}


#: Spans below each operation's entry spans must cover at least this
#: share of its wall time: the entry points' own, unattributed time
#: (``trace.coverage`` is the covered share).  Losing a layer's spans,
#: say to a caller that binds an entry point by name, breaks it.
MIN_COVERAGE = 0.9


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def sum_program(results: list[dict]) -> dict:
    total: dict = {"n_injected": 0, "n_errors": 0, "pruning": {}}
    for r in results:
        total["n_injected"] += r["n_injected"]
        total["n_errors"] += r["n_errors"]
        for key, value in r["pruning"].items():
            total["pruning"][key] = total["pruning"].get(key, 0) + value
    return total


def layer_metrics(summary: dict, traced: list, untraced: list) -> dict[str, float]:
    """Per-operation layer metrics from the traced operations."""
    n = len(traced)
    total, calls = summary["total"], summary["calls"]
    layers, counts = summary["layers"], summary["counts"]
    program = sum_program([op.program for op in traced if op.program])
    injected = program["n_injected"]
    pruning = program["pruning"]

    def t(name):
        return total.get(name, 0.0) / n

    def c(name):
        return calls.get(name, 0) / n

    values = {
        "golden.build_s": t("golden.build"),
        "golden.builds": c("golden.build"),
        "golden.build_cycles_per_s": _ratio(counts.get("golden.build_cycles", 0),
                                            total.get("golden.build", 0.0)),
        "golden.load_s": t("golden.load"),
        "golden.loads": c("golden.load"),
        "golden.liveness_s": t("golden.liveness"),
        "golden.liveness_calls": c("golden.liveness"),
        "arch.build_s": t("arch.build"),
        "arch.builds": c("arch.build"),
        "arch.cross_check_s": t("arch.cross_check"),
        "campaign.sample_s": t("campaign.sample"),
        "campaign.schedule_s": t("campaign.schedule"),
        "campaign.schedule_calls": c("campaign.schedule"),
        "campaign.injections": injected / n,
        "campaign.errors_per_injection": _ratio(program["n_errors"], injected),
        "injector.pruned_ratio": _ratio(pruning.get("soft_pruned", 0)
                                        + pruning.get("hard_pruned", 0),
                                        injected),
        "injector.equiv_hits": pruning.get("equiv_hits", 0) / n,
        "injector.cycles_saved": pruning.get("cycles_saved", 0) / n,
        "batch.init_s": t("batch.init"),
        "batch.inits": c("batch.init"),
        "batch.inject_all_s": t("batch.inject_all"),
        "cstep.drive_s": t("cstep.drive"),
        "cstep.drive_calls": c("cstep.drive"),
        "cstep.cycles": counts.get("cstep.cycles", 0) / n,
        "cstep.cycles_per_s": _ratio(counts.get("cstep.cycles", 0),
                                     total.get("cstep.drive", 0.0)),
        "parallel.run_shard_s": t("parallel.run_shard"),
        "parallel.shards": c("parallel.run_shard"),
        "service.lease_s": t("service.lease"),
        "service.commit_s": t("service.commit"),
        "service.commits": c("service.commit"),
        "service.store_add_s": t("service.store_add"),
        "service.http_s": summary["self"].get("service.http", 0.0) / n,
        "core.train_s": t("core.train"),
        "core.trains": c("core.train"),
        "core.predict_calls": counts.get("core.predict_calls", 0) / n,
        "reaction.evaluate_strategy_s": t("reaction.evaluate_strategy"),
        "reaction.strategy_calls": c("reaction.evaluate_strategy"),
        "reaction.build_context_s": t("reaction.build_context"),
        "trace.wall_s": statistics.median(op.wall for op in traced),
        "trace.coverage": summary["coverage"],
        "trace.overhead": _ratio(statistics.median(op.wall for op in traced),
                                 statistics.median(op.wall for op in untraced))
                          - 1.0,
        "trace.spans": summary["n_spans"] / n,
    }
    for layer in ("golden", "arch", "campaign", "batch", "parallel",
                  "service", "core", "reaction", "analysis"):
        values[f"{layer}.self_s"] = layers.get(layer, 0.0) / n
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # String hashing is randomised per interpreter, and the campaign's
    # speed depends on it: five runs of one seed ranged over 19% with
    # random hashing and over 2% with a fixed seed.  Fix it, by
    # re-executing this interpreter in place (no child process).
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, str(Path(__file__).resolve()),
                                  *sys.argv[1:]])
    # The program's configuration is fixed by the benchmark, and every
    # file it writes stays inside the checkout.
    for var in ("REPRO_KERNEL", "REPRO_CSTEP_THREADS", "REPRO_CSTEP_BUILD",
                "REPRO_GOLDEN_CACHE"):
        os.environ.pop(var, None)
    os.environ["REPRO_CSTEP_CACHE"] = str(STATE / "cstep")
    work = STATE / "work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return _run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _run(args, work: Path) -> int:
    import numpy as np
    from repro.faults import kernels

    # A numpy fallback would be a different program: refuse to measure it.
    # Resolving here also builds the compiled kernel before any timing.
    try:
        kernel = kernels.resolve_kernel("cext")
    except RuntimeError as exc:
        print(f"perfbench: compiled kernel unavailable: {exc}", file=sys.stderr)
        return 3

    import tracer as tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(workloads.WORKLOADS)})", file=sys.stderr)
        return 2
    ctx = workloads.Context(ROOT, STATE, work, args.seed)
    workload = workloads.build(args.workload, ctx)
    setup_s = workload.setup()
    tracer = tracing.Tracer() if args.trace else None
    ops = workload.measure(args.seconds, tracer)
    untraced = [op for op in ops if not op.traced]
    traced = [op for op in ops if op.traced]
    if not untraced or (args.trace and not traced):
        print("perfbench: no operation completed", file=sys.stderr)
        return 1
    if not args.trace:
        metrics = {
            "setup_s": setup_s,
            "work_per_s": (sum(op.work for op in ops)
                           / sum(op.wall for op in ops)),
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END
    else:
        summary = tracer.summary(sum(op.wall for op in traced))
        tracer.write(STATE / "traces" / f"{args.workload}-s{args.seed}.jsonl")
        metrics = layer_metrics(summary, traced, untraced)
        units = PER_LAYER
        ctx.checks.check(
            "trace.coverage", summary["coverage"] >= MIN_COVERAGE,
            f"spans below the entry points cover {summary['coverage']:.3f} "
            f"of the traced operations' wall time (< {MIN_COVERAGE})")
    workload.oracles()

    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "kernel": kernel,
        "drive_threads": kernels.resolve_threads(None, lanes=workloads.BATCH),
        "workers": workloads.WORKERS, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "python_hash_seed": HASH_SEED,
        **{f"run.{k}": v for k, v in workload.meta.items()},
    }
    walls = sorted(op.wall for op in untraced)
    context["op_walls_s"] = {"n": len(walls), "min": walls[0],
                             "max": walls[-1]}
    if len(walls) > 1:
        context["op_walls_s"].update(zip(("q1", "q2", "q3"),
                                         statistics.quantiles(walls, n=4)))
    print(json.dumps({"context": context}))
    checks = ctx.checks
    print(json.dumps({
        "correct": checks.failed == 0 and checks.attempted > 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
