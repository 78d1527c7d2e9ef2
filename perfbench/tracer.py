"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around calls into each layer's public entry points.
The wrappers live here, in the benchmark, and are installed by
replacing module and class attributes around each traced operation;
the layer code itself is unchanged and runs unwrapped in untraced
operations and in the runs that produce the end-to-end metrics.

Every span is named ``<layer>.<what>``; the layer is the name before
the first dot.  A span's self time is its duration minus the time its
child spans (same thread, strictly nested) cover.  Spans that open on
a thread with an empty stack which is not a registered client thread
are *remote roots*: request handlers on the service's event-loop
thread.  Each one runs inside some client's ``service.http`` round
trip, so its duration is taken out of the ``service.http`` self time
(what remains is HTTP, asyncio and JSON overhead) and the layer self
times of all spans add up to the client threads' root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

_clock = time.perf_counter


class _ThreadLog:
    __slots__ = ("name", "client", "stack", "spans", "counts", "next_id")

    def __init__(self, name: str):
        self.name = name
        self.client = False
        #: open frames: [span id, parent id, start, child time]
        self.stack: list[list] = []
        #: closed spans: (id, parent id, name, start, end, child time)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.next_id = 0


class Tracer:
    """Collects spans and counters per thread; summarised after the run."""

    def __init__(self) -> None:
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._logs: list[_ThreadLog] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Wrappers record only while this is set; the benchmark sets it
        #: around measured operations, so set-up and checks stay out.
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._tls, "log", None)
        if log is None:
            log = _ThreadLog(threading.current_thread().name)
            self._tls.log = log
            with self._lock:
                self._logs.append(log)
        return log

    def mark_client(self) -> None:
        """Register the calling thread as one that issues workload operations."""
        self._log().client = True

    def count(self, name: str, n: float = 1) -> None:
        self._log().counts[name] += n

    def wrap(self, name: str, fn, on_exit=None):
        """``fn`` wrapped in a span; ``on_exit(tracer, args, result)`` may count."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            log = tracer._log()
            stack = log.stack
            sid = log.next_id
            log.next_id = sid + 1
            frame = [sid, stack[-1][0] if stack else -1, _clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = _clock()
                stack.pop()
                duration = end - frame[2]
                if stack:
                    stack[-1][3] += duration
                log.spans.append((sid, frame[1], name, frame[2], end, frame[3]))
            if on_exit is not None:
                on_exit(tracer, args, result)
            return result

        return traced

    def wrap_count(self, name: str, fn):
        """``fn`` with a call counter only (for calls too frequent to span)."""
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tracer.enabled:
                tracer._log().counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # -- installation ----------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` until :meth:`uninstall` restores it."""
        self._patches.append((owner, attr, owner.__dict__[attr]
                              if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def install(self) -> None:
        """Wrap every layer entry point the benchmark attributes time to."""
        mod = importlib.import_module
        golden = mod("repro.faults.golden")
        arch = mod("repro.faults.arch")
        campaign = mod("repro.faults.campaign")
        parallel = mod("repro.faults.parallel")
        batch = mod("repro.faults.batch")
        cstep = mod("repro.faults._cstep")
        http = mod("repro.faults.service.http")
        store = mod("repro.faults.service.store")
        client = mod("repro.faults.service.client")
        predictor = mod("repro.core.predictor")
        evaluation = mod("repro.analysis.evaluation")

        def method(cls, attr, name, on_exit=None):
            self.patch(cls, attr, self.wrap(name, getattr(cls, attr), on_exit))

        def classmethod_(cls, attr, name):
            func = cls.__dict__[attr].__func__
            self.patch(cls, attr, classmethod(self.wrap(name, func)))

        def function(module, attr, name, on_exit=None):
            self.patch(module, attr, self.wrap(name, getattr(module, attr),
                                               on_exit))

        # faults.golden: flop-accurate trace build, cache load, liveness.
        method(golden.GoldenTrace, "__init__", "golden.build",
               lambda t, args, _r: t.count("golden.build_cycles",
                                           args[0].n_cycles))
        classmethod_(golden.GoldenTrace, "cached", "golden.cached")
        classmethod_(golden.GoldenTrace, "_load_cached", "golden.load")
        for attr in ("soft_start", "activation_cycle", "first_active_use"):
            method(golden.GoldenTrace, attr, "golden.liveness")
        # faults.arch: architectural tier and its cross-check.
        method(arch.ArchTrace, "__init__", "arch.build")
        method(arch.ArchTrace, "cross_check", "arch.cross_check")
        function(arch, "peek_cached_n_cycles", "arch.peek")
        # faults.campaign: entry point, flop sampling, fault scheduling
        # (both looked up on the module at call time).
        function(campaign, "run_campaign", "campaign.run")
        function(campaign, "sample_flops", "campaign.sample")
        function(campaign, "schedule_faults", "campaign.schedule")
        # faults.parallel: the campaign engine and its shard runner, bound
        # by name into the service client module.
        function(parallel, "execute_campaign", "parallel.execute")
        shard = self.wrap("parallel.run_shard", parallel.run_shard)
        self.patch(parallel, "run_shard", shard)
        self.patch(client, "run_shard", shard)
        # faults.batch and faults._cstep: engine set-up, injection, C drive.
        method(batch.BatchInjectionEngine, "__init__", "batch.init")
        method(batch.BatchInjectionEngine, "inject_all", "batch.inject_all")
        if cstep.MODULE is not None:
            drive = self.wrap("cstep.drive", cstep.MODULE.drive,
                              lambda t, _a, r: t.count("cstep.cycles", r[0]))
            self.patch(cstep, "MODULE", _ModuleProxy(cstep.MODULE, drive=drive))
        # faults.service: handlers (event-loop thread), store, client side.
        method(http.CampaignService, "handle_lease", "service.lease")
        method(http.CampaignService, "handle_commit", "service.commit")
        method(store.IncrementalResultStore, "add", "service.store_add")
        method(client.ServiceClient, "request", "service.http")
        function(client, "run_worker", "service.run_worker")
        # core: training and lookups (bound by name in their callers).
        function(evaluation, "train_predictor", "core.train")
        function(evaluation, "location_accuracy", "core.accuracy")
        function(evaluation, "type_accuracy", "core.accuracy")
        self.patch(predictor.ErrorCorrelationPredictor, "predict",
                   self.wrap_count("core.predict_calls",
                                   predictor.ErrorCorrelationPredictor.predict))
        # reaction and analysis: the figures pipeline.
        function(evaluation, "build_context", "reaction.build_context")
        function(evaluation, "evaluate_strategy", "reaction.evaluate_strategy")
        function(evaluation, "merge_results", "reaction.merge")
        function(evaluation, "evaluate_campaign", "analysis.evaluate_campaign")
        function(evaluation, "topk_sweep", "analysis.topk_sweep")

    # -- summary -----------------------------------------------------------------

    def summary(self, client_wall: float) -> dict:
        """Per-name totals, per-layer self times and coverage.

        ``client_wall`` is the summed wall time of the traced
        operations; coverage is the share of it spent in spans below
        the client threads' root spans (the workload's entry points),
        so the entry points' own time is what it leaves out.
        """
        total: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        self_time: dict[str, float] = defaultdict(float)
        counts: dict[str, float] = defaultdict(float)
        covered = remote = 0.0
        n_spans = 0
        for log in self._logs:
            for key, value in log.counts.items():
                counts[key] += value
            for _sid, parent, name, start, end, child in log.spans:
                duration = end - start
                total[name] += duration
                calls[name] += 1
                self_time[name] += duration - child
                n_spans += 1
                if parent == -1:
                    if log.client:
                        covered += child
                    else:
                        remote += duration
        self_time["service.http"] -= remote
        layers: dict[str, float] = defaultdict(float)
        for name, value in self_time.items():
            layers[name.split(".", 1)[0]] += value
        return {"total": dict(total), "calls": dict(calls),
                "self": dict(self_time), "layers": dict(layers),
                "counts": dict(counts), "n_spans": n_spans,
                "coverage": covered / client_wall if client_wall > 0 else 0.0}

    def write(self, path: Path) -> None:
        """Dump every recorded span as JSON lines (one object per thread)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for log in self._logs:
                fh.write(json.dumps({
                    "thread": log.name, "client": log.client,
                    "fields": ["id", "parent", "name", "start", "end",
                               "child"],
                    "spans": log.spans, "counts": log.counts}) + "\n")


class _ModuleProxy:
    """Stands in for the compiled kernel module with some attributes replaced."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)
