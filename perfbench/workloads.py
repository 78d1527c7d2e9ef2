"""The benchmark's workloads: set-up, measured operation and oracles.

Each workload builds its inputs from the seed, times one kind of user
operation in a closed loop for the requested seconds, and checks every
output against an oracle outside the timed window.  Every check counts
in ``attempted``; a failed check, a raised operation or a non-200
response counts in ``failed``.

Workload seeds become ``CampaignConfig.seed`` (and the cross-validation
fold seed); the programs receive only the generated inputs.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from repro.analysis import evaluation
from repro.faults import campaign, golden, parallel
from repro.faults.injector import InjectionEngine
from repro.faults.service import client as client_mod
from repro.faults.service.http import CampaignService, start_service
from repro.faults.service.ledger import CampaignLedger
from repro.faults.service.runner import ledger_digest
from repro.lockstep.categories import diverged_ports
from repro.workloads.kernels import KERNELS

clock = time.perf_counter

#: Campaign execution knobs shared by every workload that runs one.
KERNEL = "cext"
BATCH = 2048
WORKERS = 1
#: The service workload: many small shards, so per-shard fixed costs
#: (engine init, HTTP, the fsync'd commit) dominate.  A 32-fault shard
#: gains nothing from 2048 lanes, so the worker runs 256.
SERVICE_CHUNK_FLOPS = 8
SERVICE_BATCH = 256
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Top-K width of the analysis pass's truncated-table sweep point.
TOPK = 3
#: Flops (x benchmarks) re-run through the scalar reference engine.
ORACLE_FLOPS = 40
#: Digest of the committed default campaign artifact
#: (.campaign_cache/campaign_086c81c1d82ac7e1.pkl), the result every
#: engine must reproduce at ``CampaignConfig.default()``.
DEFAULT_DIGEST = ("49ce7eb9315983a3e3e3e081f1ffbd91"
                  "66aace09b3b403e6d27e504da59d90fd")
#: Benchmark-owned random stream tag (oracle fault samples).
BENCH_STREAM = 0xBE7C

_STARTUP_SNIPPET = (
    "import repro.faults.batch, repro.faults.parallel, "
    "repro.faults.service.http, repro.faults.service.client, "
    "repro.analysis.evaluation\n"
    "from repro.faults import kernels\n"
    "kernels.resolve_kernel('cext')\n")


class Checks:
    """Attempted/failed tally of oracle checks and operations."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"[perfbench] FAILED {name}: {detail}", file=sys.stderr,
                  flush=True)

    def op_failed(self, name: str, exc: BaseException) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"[perfbench] FAILED {name}: {type(exc).__name__}: {exc}",
              file=sys.stderr, flush=True)


class Context:
    """Per-run settings and scratch space, all inside the checkout."""

    def __init__(self, root: Path, state: Path, work: Path, seed: int):
        self.root = root
        self.state = state
        self.work = work
        self.seed = seed
        self.checks = Checks()
        self.config = replace(campaign.CampaignConfig.default(), seed=seed)
        self._dirs = 0

    def fresh_dir(self, prefix: str) -> Path:
        self._dirs += 1
        path = self.work / f"{prefix}{self._dirs}"
        path.mkdir(parents=True)
        return path

    def rng(self, purpose: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(self.seed, spawn_key=(BENCH_STREAM, purpose)))


# -- shared pieces -------------------------------------------------------------


def median_setup(setup_once) -> float:
    """Median wall time of :data:`SETUP_REPEATS` calls of ``setup_once``.

    Each call repeats the whole set-up from scratch; the last one's
    state stays in use.
    """
    walls = []
    for _ in range(SETUP_REPEATS):
        start = clock()
        setup_once()
        walls.append(clock() - start)
    return statistics.median(walls)


def start_interpreter(ctx: Context) -> None:
    """Import the pipeline in a fresh interpreter (what a CLI run pays)."""
    env = dict(os.environ, PYTHONPATH=str(ctx.root / "src"))
    subprocess.run([sys.executable, "-c", _STARTUP_SNIPPET], cwd=ctx.root,
                   env=env, check=True, timeout=120)


def use_golden_dir(path: Path) -> None:
    os.environ[golden.GOLDEN_CACHE_ENV] = str(path)


def fill_golden_cache(ctx: Context) -> None:
    """Build every kernel's golden trace into a fresh on-disk cache."""
    if golden.GOLDEN_CACHE_ENV in os.environ:
        shutil.rmtree(golden.golden_cache_dir(), ignore_errors=True)
    use_golden_dir(ctx.fresh_dir("golden"))
    for name in ctx.config.benchmarks:
        golden.GoldenTrace.cached(KERNELS[name], seed=ctx.seed)


def golden_listing() -> dict[str, tuple[int, int]]:
    directory = golden.golden_cache_dir()
    return {p.name: (p.stat().st_size, p.stat().st_mtime_ns)
            for p in sorted(directory.glob("*.npz"))}


def fresh_process_caches() -> None:
    """Drop in-process caches, as a new CLI process would start."""
    parallel._GOLDEN_CACHE.clear()
    parallel._TIERED_CACHE.clear()
    diverged_ports.cache_clear()
    gc.collect()


def run_campaign(ctx: Context):
    # Looked up on the module so the tracer's wrapper applies.
    return campaign.run_campaign(ctx.config, workers=WORKERS, batch=BATCH,
                                 kernel=KERNEL)


def tier_loads() -> dict:
    return {name: dict(tiered.tier_loads)
            for (name, _seed), tiered in sorted(parallel._TIERED_CACHE.items())}


def program_counts(n_injected: int, n_errors: int, pruning: dict) -> dict:
    return {"n_injected": n_injected, "n_errors": n_errors,
            "pruning": dict(sorted(pruning.items()))}


def check_consistent(ctx: Context, name: str, fingerprints: list) -> None:
    """Program counts must repeat exactly across the run's operations."""
    first = fingerprints[0]
    bad = [i for i, f in enumerate(fingerprints) if f != first]
    ctx.checks.check(f"{name}.repeatable", not bad,
                     f"operations {bad} differ from operation 0")


def source_hash(root: Path) -> str:
    """Hash of the program and benchmark sources (keys the counts records)."""
    h = hashlib.sha256()
    paths = [*(root / "src").rglob("*"), *(root / "perfbench").rglob("*")]
    for path in sorted(paths):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(root)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_across_runs(ctx: Context, workload: str, fingerprint) -> None:
    """Compare program counts with an earlier run of this seed and source."""
    text = json.dumps(fingerprint, sort_keys=True, default=str)
    record = (ctx.state / "counts" /
              f"{workload}-s{ctx.seed}-{source_hash(ctx.root)}.json")
    if record.exists():
        ctx.checks.check(f"{workload}.counts_across_runs",
                         record.read_text() == text,
                         f"counts differ from the earlier run in {record.name}")
    else:
        record.parent.mkdir(parents=True, exist_ok=True)
        tmp = record.with_suffix(f".tmp{os.getpid()}")
        tmp.write_text(text)
        os.replace(tmp, record)


def check_campaign_result(ctx: Context, name: str, result) -> None:
    config = result.config
    flops = campaign.sample_flops(config, parallel.sampling_rng(config.seed))
    per_flop = config.soft_per_flop + 2 * config.hard_per_flop
    expected = per_flop * len(flops) * len(config.benchmarks)
    ctx.checks.check(f"{name}.n_injected", result.n_injected == expected,
                     f"{result.n_injected} != {expected}")
    if config == campaign.CampaignConfig.default():
        ctx.checks.check(f"{name}.default_digest",
                         result.digest() == DEFAULT_DIGEST,
                         f"{result.digest()} != committed {DEFAULT_DIGEST}")


def check_scalar_reference(ctx: Context, name: str, result) -> None:
    """Re-run a seeded sample of faults through the scalar engine.

    The scalar :class:`InjectionEngine` without pruning steps the
    reference ``Cpu.step`` model cycle by cycle; its outcome for each
    sampled fault must equal the campaign's record (or its absence).
    """
    config = result.config
    flops = campaign.sample_flops(config, parallel.sampling_rng(config.seed))
    index = {(r.benchmark, r.flop, r.kind, r.inject_cycle): r
             for r in result.records}
    ctx.checks.check(f"{name}.records_unique",
                     len(index) == len(result.records),
                     "two records share one fault")
    cells = ctx.rng(1).choice(len(config.benchmarks) * len(flops),
                              size=ORACLE_FLOPS, replace=False)
    engines: dict[int, InjectionEngine] = {}
    mismatches = n_faults = 0
    for cell in sorted(int(c) for c in cells):
        b, f = divmod(cell, len(flops))
        engine = engines.get(b)
        if engine is None:
            trace = golden.GoldenTrace.cached(KERNELS[config.benchmarks[b]],
                                              seed=config.seed)
            engine = InjectionEngine(
                trace, max_observe=config.max_observe,
                mask_check_stride=config.mask_check_stride, prune=False)
            engines[b] = engine
        rng = parallel.schedule_rng(config.seed, b, f)
        for fault in campaign.schedule_faults(flops[f], engine.golden.n_cycles,
                                              config, rng):
            n_faults += 1
            expected = engine.inject(fault)
            actual = index.get((config.benchmarks[b], fault.flop, fault.kind,
                                fault.cycle))
            mismatches += expected != actual
    ctx.checks.check(f"{name}.scalar_reference", mismatches == 0,
                     f"{mismatches} of {n_faults} sampled faults differ "
                     f"from the scalar Cpu.step reference")


class Op(NamedTuple):
    """One timed operation of a workload."""

    wall: float
    #: units of work it did (injections, records scored, shards)
    work: float
    #: program counts from its output (``{}`` where there are none)
    program: dict
    traced: bool


def closed_loop(ctx: Context, seconds: float, prepare, op, finish,
                tracer=None) -> list[Op]:
    """Run ``op`` back to back for ``seconds`` (at least once).

    ``prepare`` (untimed) returns the operation's input; ``finish``
    (untimed) receives input and output and returns the
    operation's work and program counts.  A raised operation counts as
    failed and ends the loop.  With a tracer, every second operation
    is traced (the tracer is installed around it only), starting with
    an untraced one, so a drift of host speed over the run reaches
    both kinds alike.
    """
    if tracer is not None:
        tracer.mark_client()
    ops: list[Op] = []
    start = clock()
    while len(ops) < (1 if tracer is None else 2) or clock() - start < seconds:
        traced = tracer is not None and len(ops) % 2 == 1
        state = prepare()
        if traced:
            tracer.install()
            tracer.enabled = True
        t0 = clock()
        try:
            out = op(state)
        except Exception as exc:  # noqa: BLE001 - counted, reported
            ctx.checks.op_failed("operation", exc)
            break
        finally:
            wall = clock() - t0
            if traced:
                tracer.enabled = False
                tracer.uninstall()
        work, program = finish(state, out)
        ops.append(Op(wall, work, program, traced))
    return ops


# -- campaign-warm / campaign-cold -------------------------------------------------


class CampaignWorkload:
    """``run_campaign`` on the default-shaped config at the seed."""

    def __init__(self, ctx: Context, cold: bool):
        self.ctx = ctx
        self.cold = cold
        self.name = "campaign-cold" if cold else "campaign-warm"
        self.fingerprints: list = []
        self.last = None
        self.meta: dict = {}

    def setup(self) -> float:
        def once():
            start_interpreter(self.ctx)
            if not self.cold:
                fill_golden_cache(self.ctx)

        return median_setup(once)

    def _prepare(self):
        previous = None
        if self.cold:
            use_golden_dir(self.ctx.fresh_dir("golden"))
        else:
            previous = golden_listing()
        fresh_process_caches()
        return previous

    def _finish(self, previous, result):
        checks = self.ctx.checks
        listing = golden_listing()
        if self.cold:
            checks.check(f"{self.name}.golden_built",
                         len(listing) == len(self.ctx.config.benchmarks),
                         f"{len(listing)} golden files after a cold run")
            shutil.rmtree(golden.golden_cache_dir())
        else:
            checks.check(f"{self.name}.golden_untouched", listing == previous,
                         "a warm run rewrote the golden cache")
        checks.check(f"{self.name}.kernel", result.meta.get("kernel") == KERNEL,
                     f"ran on kernel {result.meta.get('kernel')!r}")
        counts = program_counts(result.n_injected, result.n_errors,
                                result.meta["pruning"])
        self.fingerprints.append({
            **counts, "digest": result.digest(),
            "n_shards": result.meta["n_shards"], "tier_loads": tier_loads()})
        self.last = result
        self.meta = {k: result.meta.get(k) for k in
                     ("workers", "executor", "kernel", "batch", "n_shards")}
        return result.n_injected, counts

    def measure(self, seconds: float, tracer=None) -> list[Op]:
        return closed_loop(self.ctx, seconds, self._prepare,
                           lambda _prev: run_campaign(self.ctx), self._finish,
                           tracer)

    def oracles(self) -> None:
        if self.last is None:
            return
        ctx = self.ctx
        check_consistent(ctx, self.name, self.fingerprints)
        check_campaign_result(ctx, self.name, self.last)
        if self.cold:
            # The last cold run's cache was removed; the reference
            # engine rebuilds goldens into a fresh directory.
            use_golden_dir(ctx.fresh_dir("golden"))
        check_scalar_reference(ctx, self.name, self.last)
        check_across_runs(ctx, self.name, self.fingerprints[0])


# -- analysis -------------------------------------------------------------------


class AnalysisWorkload:
    """``evaluate_campaign`` + a ``topk_sweep`` point for both taxonomies."""

    name = "analysis"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.result = None
        self.fingerprints: list = []
        self.meta: dict = {}

    def setup(self) -> float:
        def once():
            start_interpreter(self.ctx)
            use_golden_dir(self.ctx.fresh_dir("golden"))
            fresh_process_caches()
            self.result = run_campaign(self.ctx)

        seconds = median_setup(once)
        self.meta = {"n_records": len(self.result.records)}
        fresh_process_caches()
        return seconds

    def _pass(self, _state) -> list:
        seed = self.ctx.seed
        out = []
        for fine in (False, True):
            out.append(evaluation.evaluate_campaign(self.result, fine=fine,
                                                    seed=seed))
            out.extend(evaluation.topk_sweep(self.result, fine=fine, seed=seed,
                                             ks=[TOPK]).values())
        return out

    def _finish(self, _state, evals):
        checks = self.ctx.checks
        n = len(self.result.records)
        scored = 0
        for i, ev in enumerate(evals):
            names = set(ev.strategies)
            counts = [s.n_errors for s in ev.strategies.values()]
            scored += sum(counts)
            checks.check("analysis.models",
                         names == set(evaluation.MODEL_NAMES), f"models {names}")
            checks.check("analysis.scored_once", all(c == n for c in counts),
                         f"evaluation {i}: per-model counts {counts} != {n}")
            accuracies = [ev.location_accuracy, *ev.type_accuracy.values()]
            checks.check("analysis.accuracy_range",
                         all(0.0 <= a <= 1.0 for a in accuracies),
                         f"evaluation {i}: {accuracies}")
        for ev in (evals[0], evals[2]):  # the full-order evaluations
            comb = ev.strategies["pred-comb"].mean_lert
            rand = ev.strategies["base-random"].mean_lert
            checks.check("analysis.pred_comb_beats_random", comb < rand,
                         f"pred-comb LERT {comb} >= base-random {rand}")
        self.fingerprints.append(repr([
            (sorted((k, s.mean_lert, s.mean_tested_units,
                     s.sbist_invocation_rate) for k, s in ev.strategies.items()),
             ev.location_accuracy, sorted(ev.type_accuracy.items()))
            for ev in evals]))
        return scored, {}

    def measure(self, seconds: float, tracer=None) -> list[Op]:
        return closed_loop(self.ctx, seconds, gc.collect, self._pass,
                           self._finish, tracer)

    def oracles(self) -> None:
        if self.fingerprints:
            check_consistent(self.ctx, self.name, self.fingerprints)
            check_across_runs(self.ctx, self.name, self.fingerprints[0])


# -- service-ingest -----------------------------------------------------------------


class ServiceRun:
    """One in-process campaign service over a fresh ledger directory."""

    def __init__(self, ctx: Context):
        self.ledger = CampaignLedger(ctx.fresh_dir("ledger"), ctx.config,
                                     chunk_flops=SERVICE_CHUNK_FLOPS,
                                     batch=SERVICE_BATCH)
        self.service = CampaignService(self.ledger)
        self.handle = start_service(self.service)

    def ingest(self) -> int:
        # Looked up on the module so the tracer's wrapper applies.
        return client_mod.run_worker(self.handle.base_url, batch=SERVICE_BATCH,
                                     kernel=KERNEL)

    def stop(self) -> None:
        self.handle.stop()
        if self.handle._thread.is_alive():
            raise RuntimeError("service thread did not stop")

    def counts(self) -> dict:
        store = self.service.store
        return {**program_counts(sum(store.injected.values()), store.n_errors,
                                 store.pruning),
                "n_shards": self.ledger.n_shards,
                "committed": self.ledger.n_committed}


class IngestWorkload:
    """One closed-loop worker: lease -> ``run_shard`` -> ``/commit``."""

    name = "service-ingest"

    def __init__(self, ctx: Context):
        self.ctx = ctx
        self.fingerprints: list = []
        self.digests: list[str] = []
        self.meta: dict = {}

    def setup(self) -> float:
        def once():
            start_interpreter(self.ctx)
            fill_golden_cache(self.ctx)

        return median_setup(once)

    def _prepare(self) -> ServiceRun:
        fresh_process_caches()
        return ServiceRun(self.ctx)

    def _op(self, run: ServiceRun) -> int:
        try:
            return run.ingest()
        except BaseException:
            run.stop()
            raise

    def _finish(self, run: ServiceRun, n_committed):
        run.stop()
        counts = run.counts()
        checks = self.ctx.checks
        checks.check(f"{self.name}.complete",
                     n_committed == counts["n_shards"] == counts["committed"],
                     f"worker committed {n_committed}, ledger "
                     f"{counts['committed']}/{counts['n_shards']}")
        self.digests.append(ledger_digest(run.ledger))
        self.fingerprints.append({**counts, "digest": self.digests[-1],
                                  "tier_loads": tier_loads()})
        self.meta = {"n_shards": counts["n_shards"], "batch": SERVICE_BATCH,
                     "chunk_flops": SERVICE_CHUNK_FLOPS}
        shutil.rmtree(run.ledger.path.parent)
        return counts["n_shards"], counts

    def measure(self, seconds: float, tracer=None) -> list[Op]:
        return closed_loop(self.ctx, seconds, self._prepare, self._op,
                           self._finish, tracer)

    def oracles(self) -> None:
        if not self.digests:
            return
        ctx = self.ctx
        check_consistent(ctx, self.name, self.fingerprints)
        fresh_process_caches()
        reference = run_campaign(ctx)
        check_campaign_result(ctx, self.name, reference)
        for digest in self.digests:
            ctx.checks.check(f"{self.name}.ledger_digest",
                             digest == reference.digest(),
                             f"ledger {digest} != in-memory campaign "
                             f"{reference.digest()}")
        check_across_runs(ctx, self.name, self.fingerprints[0])


def build(name: str, ctx: Context):
    if name == "campaign-warm":
        return CampaignWorkload(ctx, cold=False)
    if name == "campaign-cold":
        return CampaignWorkload(ctx, cold=True)
    if name == "analysis":
        return AnalysisWorkload(ctx)
    if name == "service-ingest":
        return IngestWorkload(ctx)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("campaign-warm", "campaign-cold", "analysis", "service-ingest")
