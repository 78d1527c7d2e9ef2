"""Kernel selection and compiled-kernel parity.

Two layers of guarantee around the C extension:

* **selection semantics** — ``auto`` silently falls back to the scalar
  engine (``None``), explicit ``cext`` fails loudly, and every engine
  produces byte-identical campaign results;
* **per-cycle state parity** — stronger than digest equality: the C
  ``step`` and the scalar ``Cpu.step`` (the semantic source) advance
  the same faulty lanes side by side, and every lane's full flop state,
  port tuple and memory must agree after every cycle, so a kernel bug
  cannot hide behind digest collisions or late masking.
"""

from __future__ import annotations

import random
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.core import Cpu
from repro.cpu.memory import Memory
from repro.faults import (
    BatchInjectionEngine,
    CampaignConfig,
    InjectionEngine,
    KERNEL_CHOICES,
    cext_available,
    resolve_kernel,
    resolve_threads,
    run_campaign,
    sample_flops,
    schedule_faults,
)
from repro.faults import _cstep, kernels
from repro.faults.batch import (
    BR_TAKEN,
    BR_VALID,
    HALTED,
    N_REGS,
    PORT_ROWS16,
    STATUS,
    _cext_tables,
)
from repro.faults.parallel import sampling_rng, schedule_rng

QUICK = CampaignConfig.quick()

needs_cext = pytest.mark.skipif(
    not cext_available(),
    reason=f"compiled kernel unavailable: {kernels.cext_build_error()}")


# -- selection ---------------------------------------------------------------

def test_kernel_choices_stable():
    assert KERNEL_CHOICES == ("auto", "cext")


def test_resolve_auto_picks_a_backend():
    assert resolve_kernel("auto") == ("cext" if cext_available() else None)
    assert resolve_kernel(None) == resolve_kernel("auto")


def test_resolve_rejects_unknown():
    with pytest.raises(ValueError, match="unknown kernel"):
        resolve_kernel("fortran")


def test_resolve_rejects_numpy():
    """The numpy step kernel is retired: naming it is an error, not a
    silent switch to some other engine."""
    with pytest.raises(ValueError, match="unknown kernel"):
        resolve_kernel("numpy")


def test_kernel_env_var_is_ignored(monkeypatch):
    """``REPRO_KERNEL`` no longer steers the default: a stale setting
    (e.g. the retired ``numpy``) neither errors nor changes the pick."""
    monkeypatch.setenv("REPRO_KERNEL", "numpy")
    assert resolve_kernel(None) == ("cext" if cext_available() else None)


def test_explicit_cext_fails_loudly_when_unavailable(monkeypatch,
                                                     ttsprk_golden):
    monkeypatch.setattr(_cstep, "MODULE", None)
    monkeypatch.setattr(_cstep, "BUILD_ERROR", "no compiler on this host")
    assert resolve_kernel("auto") is None  # silent scalar fallback
    with pytest.raises(RuntimeError, match="no compiler on this host"):
        resolve_kernel("cext")
    with pytest.raises(RuntimeError, match="no compiler on this host"):
        BatchInjectionEngine(ttsprk_golden)


def test_no_extension_falls_back_to_scalar(monkeypatch, quick_campaign):
    """Without the compiled kernel a batch campaign runs the scalar
    engine and keeps the scalar digest and pruning stats."""
    monkeypatch.setattr(_cstep, "MODULE", None)
    monkeypatch.setattr(_cstep, "BUILD_ERROR", "no compiler on this host")
    assert resolve_kernel("auto") is None
    with pytest.raises(RuntimeError, match="no compiler on this host"):
        resolve_kernel("cext")
    result = run_campaign(QUICK, workers=1, batch=64)
    assert result.meta["kernel"] is None
    assert result.meta["batch"] == 64
    assert result.digest() == quick_campaign.digest()
    assert result.meta["pruning"] == quick_campaign.meta["pruning"]


@needs_cext
def test_engine_records_resolved_kernel(ttsprk_golden):
    engine = BatchInjectionEngine(ttsprk_golden)
    assert engine._cext is kernels.cext_module()


# -- per-cycle C step vs Cpu.step (stronger than digest) ----------------------

def _shard_faults(golden, flop_idxs, cfg):
    flops = sample_flops(cfg, sampling_rng(cfg.seed))
    faults = []
    for idx in flop_idxs:
        faults.extend(schedule_faults(
            flops[idx], golden.n_cycles, cfg,
            schedule_rng(cfg.seed, 0, idx)))
    return faults


def _port_tuple(S, i):
    """Lane ``i``'s compact port tuple, as ``Cpu.step`` returns it."""
    return tuple(S[PORT_ROWS16, i].tolist()) + (
        int(S[STATUS, i] & 1) | int(S[HALTED, i]) << 1,
        int(S[BR_TAKEN, i]) | int(S[BR_VALID, i]) << 1)


@needs_cext
@pytest.mark.parametrize("trial,batch", ((0, 8), (1, 32)))
def test_per_cycle_state_parity(ttsprk_golden, trial, batch):
    """Every lane's state, ports and memory after the C ``step`` equal
    the scalar ``Cpu.step`` of the same pre-step lane, every cycle.

    Lanes are seeded from a random shard of real faults (flips applied,
    stuck-at forces re-asserted before each step as ``drive()`` does),
    so the comparison covers faulty — not just golden — states.  Each
    lane is read into a ``Cpu`` exactly as the scalar drain does it.
    """
    golden = ttsprk_golden
    cfg = QUICK
    n_flops = len(sample_flops(cfg, sampling_rng(cfg.seed)))
    rnd = random.Random(5150 + trial)
    idxs = sorted(rnd.sample(range(n_flops), k=min(8, n_flops)))
    faults = [f for f in _shard_faults(golden, idxs, cfg)
              if f.cycle < golden.n_cycles - 1]
    faults = rnd.sample(faults, k=min(batch, len(faults)))
    assert faults
    engine = BatchInjectionEngine(golden, batch=batch)
    engine._seed_many(deque(
        (seq, fault, fault.cycle, golden.n_cycles, None)
        for seq, fault in enumerate(faults)))
    n = engine._n
    S, M = engine.S, engine.M
    mod = kernels.cext_module()
    tables = _cext_tables()
    cpu = Cpu(Memory(golden.mem_words), golden.stimulus)
    lanes = np.arange(n)
    rows = engine.force_row[:n]
    checked = 0
    for _cycle in range(200):
        S[rows, lanes] = ((S[rows, lanes] & engine.force_and[:n])
                          | engine.force_or[:n])
        S0, M0 = S.copy(), M.copy()
        mod.step(S, M, engine._stim, tables, n)
        for i in range(n):
            if S0[HALTED, i]:
                continue  # Cpu.step freezes a halted core; drive() never steps one
            cpu.restore(tuple(S0[:N_REGS, i].tolist()))
            cpu.mem.words[:] = M0[i].tolist()
            assert cpu.step() == _port_tuple(S0, i), f"lane {i} ports"
            assert cpu.snapshot() == tuple(S[:N_REGS, i].tolist()), \
                f"lane {i}: C step diverged from Cpu.step"
            assert cpu.mem.words == M[i].tolist(), \
                f"lane {i}: C step memory diverged from Cpu.step"
            checked += 1
    assert checked >= n * 100  # the oracle actually ran


# -- engine-level parity through the fused drive loop ------------------------

def _assert_cext_parity(golden, faults, cfg, prune=True, **batch_kwargs):
    scalar = InjectionEngine(golden, max_observe=cfg.max_observe,
                             mask_check_stride=cfg.mask_check_stride,
                             prune=prune)
    expected = [scalar.inject(f) for f in faults]
    engine = BatchInjectionEngine(golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  prune=prune, **batch_kwargs)
    assert engine.inject_all(faults) == expected
    assert engine.stats.as_dict() == scalar.stats.as_dict()


@needs_cext
@pytest.mark.parametrize("trial,batch", ((0, 3), (1, 17), (2, 128)))
def test_cext_random_shard_parity(ttsprk_golden, trial, batch):
    """Records + PruneStats parity scalar vs cext on random shards."""
    cfg = QUICK
    n_flops = len(sample_flops(cfg, sampling_rng(cfg.seed)))
    rnd = random.Random(20180615 + trial)  # same shards as test_batch
    idxs = sorted(rnd.sample(range(n_flops), k=min(12, n_flops)))
    faults = _shard_faults(ttsprk_golden, idxs, cfg)
    assert faults
    _assert_cext_parity(ttsprk_golden, faults, cfg, batch=batch)


@needs_cext
def test_cext_with_scalar_drain_parity(ttsprk_golden):
    """A nonzero tail_lanes hands stragglers to the scalar drain; the
    handoff must stay digest-neutral."""
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(10), cfg)
    _assert_cext_parity(ttsprk_golden, faults, cfg, batch=16, tail_lanes=8)


@needs_cext
def test_cext_unpruned_parity(ttsprk_golden):
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(6), cfg)
    _assert_cext_parity(ttsprk_golden, faults, cfg, prune=False, batch=8)


# -- campaign-level wiring ----------------------------------------------------

@needs_cext
def test_campaign_kernel_digest_parity(quick_campaign):
    """digest() + pruning stats identical for every kernel request."""
    for kernel in ("cext", "auto", None):
        result = run_campaign(QUICK, workers=1, batch=64, kernel=kernel)
        assert result.digest() == quick_campaign.digest()
        assert result.meta["pruning"] == quick_campaign.meta["pruning"]
        assert result.meta["kernel"] == "cext"


def test_campaign_meta_kernel_none_for_scalar(quick_campaign):
    """The scalar engine has no step kernel; meta records that."""
    assert quick_campaign.meta.get("kernel") is None


# -- scalar-drain tail --------------------------------------------------------

def test_tail_lanes_is_a_handful():
    """The compiled kernel's only fixed cost is one C call plus lane
    re-packing, so the scalar drain takes over at a handful of lanes."""
    assert 0 < kernels.TAIL_LANES <= 16


@needs_cext
def test_engine_tail_lanes_kernel_aware(ttsprk_golden):
    engine = BatchInjectionEngine(ttsprk_golden, batch=256)
    assert engine._tail_lanes == kernels.TAIL_LANES
    # Narrow batches cap at the batch size (whole run drains scalar).
    assert BatchInjectionEngine(ttsprk_golden, batch=4)._tail_lanes == 4
    # An explicit tail_lanes always wins.
    assert BatchInjectionEngine(ttsprk_golden,
                                tail_lanes=7)._tail_lanes == 7


# -- drive-loop thread resolution ---------------------------------------------

def test_resolve_threads_explicit_and_clamped():
    assert resolve_threads(4) == 4
    assert resolve_threads(1) == 1
    assert resolve_threads(0) == 1
    assert resolve_threads(-3) == 1


def test_resolve_threads_env(monkeypatch):
    monkeypatch.setenv(kernels.THREADS_ENV, "3")
    assert resolve_threads(None) == 3
    assert resolve_threads(2) == 2  # explicit beats env


def test_resolve_threads_autosize(monkeypatch):
    monkeypatch.delenv(kernels.THREADS_ENV, raising=False)
    cores = __import__("os").cpu_count() or 1
    # One thread per core, but never slices below 16 lanes/thread.
    assert resolve_threads(None, lanes=256) == max(1, min(cores, 16))
    assert resolve_threads(None, lanes=16) == 1
    assert resolve_threads(None, lanes=8) == 1


@needs_cext
def test_engine_records_threads(ttsprk_golden, monkeypatch):
    monkeypatch.delenv(kernels.THREADS_ENV, raising=False)
    engine = BatchInjectionEngine(ttsprk_golden, batch=64, threads=5)
    assert engine.threads == 5
    auto = BatchInjectionEngine(ttsprk_golden, batch=32)
    assert auto.threads >= 1


# -- multithreaded drive parity ----------------------------------------------

@needs_cext
@pytest.mark.parametrize("threads,batch", (
    (1, 32),    # single-thread path: bit-identical to the PR 7 loop
    (4, 17),    # odd remainder: slices of 5/4/4/4 lanes
    (4, 3),     # threads > lanes: clamps to one slice per lane
    (8, 64),
))
def test_cext_threaded_parity(ttsprk_golden, threads, batch):
    """Records + PruneStats identical to the scalar engine for any
    (threads, batch) — lane slices merge in lane order, so the thread
    count is a pure wall-clock knob."""
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(12), cfg)
    assert faults
    _assert_cext_parity(ttsprk_golden, faults, cfg, batch=batch,
                        threads=threads)


@needs_cext
def test_cext_pool_spawns_workers(ttsprk_golden):
    """A multithreaded drive actually stands up pool workers."""
    cfg = QUICK
    faults = _shard_faults(ttsprk_golden, range(6), cfg)
    engine = BatchInjectionEngine(ttsprk_golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  batch=32, threads=3,
                                  tail_lanes=0)
    engine.inject_all(faults)
    assert kernels.cext_module().pool_size() >= 2


_SERIAL_REFERENCE: dict = {}


def _serial_reference(golden, cfg):
    """Scalar-engine records+stats for the hypothesis shard, once."""
    if "ref" not in _SERIAL_REFERENCE:
        faults = _shard_faults(golden, range(8), cfg)
        scalar = InjectionEngine(golden, max_observe=cfg.max_observe,
                                 mask_check_stride=cfg.mask_check_stride)
        records = [scalar.inject(f) for f in faults]
        _SERIAL_REFERENCE["ref"] = (faults, records, scalar.stats.as_dict())
    return _SERIAL_REFERENCE["ref"]


@needs_cext
@settings(max_examples=12, deadline=None)
@given(threads=st.integers(min_value=1, max_value=9),
       batch=st.integers(min_value=1, max_value=48))
def test_any_threads_batch_reproduces_serial(ttsprk_golden, threads, batch):
    """Property: every (threads, batch) pair reproduces the serial
    outcome sequence and pruning stats exactly."""
    cfg = QUICK
    faults, records, stats = _serial_reference(ttsprk_golden, cfg)
    engine = BatchInjectionEngine(ttsprk_golden, max_observe=cfg.max_observe,
                                  mask_check_stride=cfg.mask_check_stride,
                                  batch=batch, threads=threads)
    assert engine.inject_all(faults) == records
    assert engine.stats.as_dict() == stats
