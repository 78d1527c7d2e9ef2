"""Batch fault injection: N scenarios per compiled-kernel call.

The scalar :class:`~repro.faults.injector.InjectionEngine` advances one
faulty core per Python ``Cpu.step()`` call.  This module keeps the
*same algorithm* — deferred starts, masking checks, stuck-at
re-convergence fast-forward, dynamic equivalence classes — but lays the
microarchitectural state of many in-flight fault scenarios out as a
structure-of-arrays matrix and hands all of them to the compiled
``_cstep.drive()`` loop at once:

* ``S`` is a ``(n_regs + 2, B)`` uint32 matrix (the datapath is 32 bits
  wide, so wrap-around replaces explicit truncation masks): one column
  per live lane (scenario), one row per
  :data:`~repro.cpu.units.REGISTRY` flop register, plus a
  hardwired-zero read row and a write-sink row so that every decode
  gather/scatter in the kernel is total (``r0`` reads, ``rd=0`` writes
  and unmapped CSR accesses index those rows instead of branching);
* ``M`` is a ``(B, mem_words)`` uint32 matrix of per-lane memories;
* ``drive()`` runs every lane to its own next rare-path event
  (observation horizon, state equal to golden at a check cycle, or a
  port divergence) and parks it there; the Python driver below then
  retires, fast-forwards or records each parked lane;
* retired lanes (detected, masked, or fast-forward-pruned) are
  compacted out by moving the last live column into the hole, so the
  batch stays dense and refills from the pending fault queue.

Lanes run at *independent* cycle indices: a per-lane time vector ``t``
addresses the golden matrices row-wise, so a freshly seeded lane and
a lane deep into its observation window share the same kernel call.

Equivalence with the scalar engine (digest parity) is by construction:

* the scalar loop compares the port tuple *returned by* ``step()`` —
  i.e. the port view of the pre-step state at cycle ``t``.  The kernel
  compares the state's port rows at ``t`` *before* stepping, which is
  the same value; a detection therefore fires at the same cycle with
  the same port tuple (one extra ``sim_cycles`` is charged at
  detection to mirror the scalar step that produced the tuple);
* the scalar soft masking check runs after stepping cycle ``t`` when
  ``(t - start) % stride == 0``, against golden state ``t + 1`` — the
  kernel check runs pre-step at ``t'`` for ``t'`` in ``start + 1``,
  ``start + 1 + stride``, ...: the same cycles, same states;
* the scalar stuck-at re-convergence check runs post-step at
  ``t == next_check`` on the unforced snapshot — the kernel check runs
  pre-step at ``t == next_chk`` *before* the per-cycle force is
  re-applied: the same unforced state.  Fast-forward reseeds the lane
  from the golden state/memory at the next (observed) activation;
* a halted lane never needs stepping: the golden trace ends at HALT and
  never shows ``halted`` on its ``ev_sys`` port, so a lane that halts
  is caught by the port compare (divergence) or runs out of window
  (masked) before its halted state could matter — there is no frozen
  state to preserve, hence no run-mask in the kernel.

Without a C compiler there is no batch engine: campaigns run the scalar
engine instead (see :mod:`repro.faults.kernels`).
"""

from __future__ import annotations

from collections import deque

import numpy as np

from ..cpu import isa
from ..cpu.core import Cpu
from ..cpu.memory import Memory
from ..cpu.units import REG_INDEX, REGISTRY
from ..lockstep.categories import diverged_ports
from . import kernels as _kernels
from .golden import GoldenTrace
from .injector import _CONVERGE_CHECK_START, PruneStats
from .models import ErrorRecord, Fault, FaultKind

#: The datapath is 32 bits wide (no REGISTRY flop exceeds 32 bits), so
#: lane state runs in uint32: half the memory traffic of the packed
#: uint64 golden matrices, and 32-bit wrap-around makes every
#: ``& 0xFFFFFFFF`` truncation free.
_U32 = np.uint32
_M32 = 0xFFFFFFFF
_I64 = np.int64

#: Number of genuine flop registers (rows 0 .. N_REGS-1 of ``S``).
N_REGS = len(REGISTRY)
#: Hardwired-zero read row: ``r0`` operand reads and unmapped CSRR.
ZERO_ROW = N_REGS
#: Write-sink row: ``rd=0`` writebacks, unmapped CSRW, soft-lane force.
TRASH_ROW = N_REGS + 1
N_ROWS = N_REGS + 2

_R = REG_INDEX
STATUS = _R["status"]
HALTED = _R["halted"]
BR_TAKEN = _R["br_taken"]
BR_VALID = _R["br_valid"]

# -- decode gather tables (shared semantics with core.py) ---------------------

#: opcode -> execution class (CLS_*).
OPC_CLS = np.array(isa.OPCODE_CLASS, dtype=_I64)
OPC_VALID = np.array(isa.OPCODE_VALID, dtype=bool)
OPC_IMM = np.array(isa.OPCODE_ALU_IMM, dtype=bool)

#: opcode -> ALU selector: index into the stacked single-cycle ALU
#: results (0 = none, 1 = ADD .. 10 = SLTU; immediate forms alias their
#: register-register op).
ALU_SEL = np.zeros(64, dtype=_I64)
for _n in range(1, 11):
    ALU_SEL[_n] = _n
for _n, _rr in ((16, 1), (17, 3), (18, 4), (19, 5), (20, 6), (21, 7), (22, 8), (23, 9)):
    ALU_SEL[_n] = _rr

#: opcode -> next lsu_op for the CLS_MEM opcodes.
LSU_OP_OF = np.zeros(64, dtype=_U32)
LSU_OP_OF[int(isa.Op.LD)] = 1
LSU_OP_OF[int(isa.Op.LDB)] = 2
LSU_OP_OF[int(isa.Op.ST)] = 3
LSU_OP_OF[int(isa.Op.STB)] = 4

#: register-file field value -> S row (field 0 reads zero, writes sink).
RF_READ_ROW = np.array(
    [ZERO_ROW] + [_R[f"rf{i}"] for i in range(1, 16)], dtype=_I64)
RF_WRITE_ROW = np.array(
    [TRASH_ROW] + [_R[f"rf{i}"] for i in range(1, 16)], dtype=_I64)

#: CSR number (14-bit imm field, unsigned) -> S row / write mask.  A
#: negative imm has bit 13 set, indexing the unmapped upper half —
#: exactly the scalar dict-miss behaviour (read 0 / write dropped).
CSR_READ_ROW = np.full(1 << 14, ZERO_ROW, dtype=_I64)
for _num, _reg in isa.CSR_READ_REG.items():
    CSR_READ_ROW[_num] = _R[_reg]
CSR_WRITE_ROW = np.full(1 << 14, TRASH_ROW, dtype=_I64)
CSR_WRITE_MASK = np.zeros(1 << 14, dtype=_U32)
for _num, (_reg, _mask) in isa.CSR_WRITE_REG.items():
    CSR_WRITE_ROW[_num] = _R[_reg]
    CSR_WRITE_MASK[_num] = _mask

#: S rows of the 16 register-valued entries of the compact port tuple
#: (ev_sys / ev_br, entries 16 and 17, are derived bit combines).
PORT_ROWS16 = np.array([_R[name] for name in (
    "imc_addr", "imc_valid", "imc_pred",
    "dmc_addr", "dmc_wdata", "dmc_ctrl", "dmc_strb",
    "bus_addr", "bus_data", "bus_ctrl",
    "io_out", "io_out_v",
    "ret_pc", "ret_val", "ret_rd", "ret_valid")], dtype=_I64)

_FULL32 = _U32(0xFFFFFFFF)

# -- compiled kernel tables ---------------------------------------------------

#: S-row names in the exact order of the C kernel's RowMap struct
#: (_cstepmodule.c).  The per-cycle C-vs-``Cpu.step`` parity test
#: catches any drift.
_ROW_ORDER = (
    "pc", "btb_tag0", "btb_tgt0", "btb_v",
    "imc_addr", "imc_data", "imc_valid", "imc_pred", "imc_ptgt",
    "if_ir", "if_pc", "if_valid", "if_pred", "if_ptgt",
    "mw_val", "mw_pc", "mw_rd", "mw_wen", "mw_valid", "mw_isload",
    "mul_a", "mul_b", "mul_pending",
    "flags", "sflags",
    "br_target", "br_taken", "br_valid",
    "ret_pc", "ret_val", "ret_rd", "ret_valid",
    "lsu_addr", "lsu_wdata", "lsu_op", "lsu_valid",
    "sb_addr", "sb_data", "sb_valid", "sb_op",
    "dmc_addr", "dmc_wdata", "dmc_rdata", "dmc_ctrl", "dmc_strb",
    "mpu_base0", "mpu_limit0", "mpu_ctrl",
    "bus_addr", "bus_data", "bus_ctrl",
    "io_out", "io_out_v", "io_in", "io_in_idx",
    "status", "cause", "epc", "cyc", "halted",
    "dbg_bkpt0", "dbg_bkpt1", "dbg_watch0", "dbg_ctrl",
    "irq_mask", "irq_pending", "cnt_branch", "cnt_mem",
)

_CEXT_TABLES: tuple | None = None


def _cext_tables() -> tuple:
    """The 13 lookup buffers the C kernel gathers through.

    Order and dtypes match ``TABLE_SPECS`` in ``_cstepmodule.c``; the
    first two entries fill the RowMap/Consts structs by memcpy in the
    declaration order above.  Built once per process — the arrays are
    immutable shared tables.
    """
    global _CEXT_TABLES
    if _CEXT_TABLES is None:
        rowmap = np.array([_R[name] for name in _ROW_ORDER], dtype=_I64)
        consts = np.array([
            isa.CLS_ALU, isa.CLS_MUL, isa.CLS_LUI, isa.CLS_MEM,
            isa.CLS_BRANCH, isa.CLS_JAL, isa.CLS_JALR, isa.CLS_IN,
            isa.CLS_OUT, isa.CLS_CSRR, isa.CLS_CSRW, isa.CLS_NOP,
            isa.CLS_HALT,
            isa.CAUSE_ILLEGAL, isa.CAUSE_BKPT, isa.CAUSE_IRQ,
            isa.CAUSE_MPU, isa.CAUSE_WATCH, isa.CAUSE_MISALIGNED,
            isa.EXC_VECTOR, isa.STATUS_CNT_EN,
            int(isa.Op.MUL), int(isa.Op.LD), int(isa.Op.LDB),
            int(isa.Op.ST), int(isa.Op.STB), int(isa.Op.BEQ),
            N_REGS,
        ], dtype=_I64)
        _CEXT_TABLES = (
            rowmap, consts, OPC_CLS, OPC_VALID, OPC_IMM, ALU_SEL, LSU_OP_OF,
            RF_READ_ROW, RF_WRITE_ROW, CSR_READ_ROW, CSR_WRITE_ROW,
            CSR_WRITE_MASK, PORT_ROWS16,
        )
    return _CEXT_TABLES


def _golden_c_matrices(golden: GoldenTrace) -> tuple[np.ndarray, np.ndarray]:
    """Row-major uint32 views of the golden state and port matrices.

    One row per cycle: the C kernel walks one cycle row at a time, and
    the Python driver reads single rows (lane seeding, fast-forward)
    from the same arrays.  Cached on the trace so every engine (and
    every shard in a worker process) shares one copy.
    """
    sm32 = getattr(golden, "_cstep_sm32", None)
    if sm32 is None:
        sm32 = np.ascontiguousarray(golden.state_matrix, dtype=_U32)
        pm32 = np.ascontiguousarray(golden.port_matrix, dtype=_U32)
        golden._cstep_sm32 = sm32
        golden._cstep_pm32 = pm32
    return sm32, golden._cstep_pm32


class BatchInjectionEngine:
    """Structure-of-arrays fault-injection engine (digest parity with scalar).

    Drop-in algorithmic twin of
    :class:`~repro.faults.injector.InjectionEngine`: identical records,
    identical :class:`~repro.faults.injector.PruneStats`, batched
    execution through the compiled kernel.  Use :meth:`inject_all` with
    the full per-shard fault list (equivalence classes and the
    convergence caches live across the whole list, as they do across
    sequential ``inject`` calls).  Raises ``RuntimeError`` when the
    compiled kernel is unavailable.
    """

    def __init__(self, golden: GoldenTrace, max_observe: int | None = None,
                 mask_check_stride: int = 4, prune: bool = True,
                 batch: int = 256, tail_lanes: int | None = None,
                 threads: int | None = None):
        _kernels.resolve_kernel("cext")  # raises without the extension
        self._cext = _kernels.cext_module()
        self.golden = golden
        self.max_observe = max_observe
        self.mask_check_stride = max(1, mask_check_stride)
        self.prune = prune
        self.batch = max(1, batch)
        #: Drive-loop thread count.  Any value is digest-identical —
        #: lane slices merge in lane order — so this is purely a
        #: wall-clock knob; see DESIGN §5.17 for the slice-width math.
        self.threads = _kernels.resolve_threads(threads, lanes=self.batch)
        # At or below this many live lanes, lanes are finished with
        # per-lane Python stepping: as the straggler tail once the
        # queue is empty, or — when the batch size itself is at or
        # below it — for the entire run.  Any value yields identical
        # digests (the drain replays the exact per-lane decision
        # sequence); 0 disables the drain.
        if tail_lanes is None:
            tail_lanes = min(self.batch, _kernels.TAIL_LANES)
        self._tail_lanes = tail_lanes
        self._tail_cpu: Cpu | None = None
        self.stats = PruneStats()

        B = self.batch
        #: SoA state: one uint32 column per live lane.
        self.S = np.zeros((N_ROWS, B), dtype=_U32)
        #: Per-lane memory images.
        self.M = np.zeros((B, golden.mem_words), dtype=_U32)
        self._sm32, self._pm32 = _golden_c_matrices(golden)
        self._tables = _cext_tables()
        self._g_ports = golden.port_tuples()
        self._stim = np.array(golden.stimulus.values, dtype=_U32)

        # Per-lane bookkeeping.
        self.t = np.zeros(B, dtype=np.int64)          # current cycle
        self.end = np.zeros(B, dtype=np.int64)        # observation horizon
        self.start = np.zeros(B, dtype=np.int64)      # simulation start
        self.next_chk = np.zeros(B, dtype=np.int64)   # next masking/convergence check
        self.chk_iv = np.zeros(B, dtype=np.int64)     # stuck-at check interval
        self.seq = np.zeros(B, dtype=np.int64)        # index into the outcome list
        # int64 (not intp): the C kernel reads this buffer as 8-byte rows.
        self.force_row = np.full(B, TRASH_ROW, dtype=np.int64)
        self.force_and = np.full(B, _FULL32, dtype=_U32)
        self.force_or = np.zeros(B, dtype=_U32)
        self.is_hard = np.zeros(B, dtype=bool)
        self.info: list[tuple[Fault, tuple[str, int, int] | None] | None] = [None] * B
        self._n = 0

        #: (reg, bit, start) -> (outcome, span); shared across inject_all calls.
        self._soft_classes: dict[
            tuple[str, int, int],
            tuple[tuple[int, frozenset[int]] | None, int]] = {}
        self._parked: dict[tuple[str, int, int], list[tuple[int, int]]] = {}
        self._outcomes: list[ErrorRecord | None] = []
    # -- public API ----------------------------------------------------------

    def inject_all(self, faults) -> list[ErrorRecord | None]:
        """Run every fault; returns outcomes aligned with the input order.

        ``None`` entries are masked faults, exactly as the scalar
        engine's ``inject`` returns.
        """
        faults = list(faults)
        outcomes: list[ErrorRecord | None] = [None] * len(faults)
        self._outcomes = outcomes
        pending = self._triage(faults)
        # Longest observation windows first (LPT) so stragglers overlap
        # the bulk instead of trailing it with a near-empty batch.
        # Order cannot affect results: equivalence representatives are
        # fixed at triage (input order), each lane's outcome depends
        # only on its own seed state, and stats are order-independent
        # sums — so the digest is unchanged.
        pending = deque(sorted(pending, key=lambda s: s[3] - s[2], reverse=True))
        self._drive(pending)
        # Any key still parked had its representative retired in this
        # call (the queue drained), so _finish resolved it; leftover
        # parked entries would be a driver bug.
        assert not self._parked, "unresolved equivalence classes"
        return outcomes

    # -- triage (pure Python, mirrors scalar inject()) -----------------------

    def _triage(self, faults: list[Fault]) -> deque:
        golden = self.golden
        n = golden.n_cycles
        stats = self.stats
        prune = self.prune
        pending: deque = deque()
        for seq, fault in enumerate(faults):
            t0 = fault.cycle
            if not 0 <= t0 < n:
                continue
            if fault.kind is FaultKind.SOFT:
                if not prune:
                    pending.append((seq, fault, t0, n, None))
                    continue
                start = golden.soft_start(fault.flop.reg, t0)
                if start is None:
                    stats.soft_pruned += 1
                    stats.cycles_saved += n - t0
                    continue
                if start > t0:
                    stats.soft_deferred += 1
                    stats.cycles_saved += start - t0
                key = (fault.flop.reg, fault.flop.bit, start)
                cached = self._soft_classes.get(key)
                if cached is not None:
                    stats.equiv_hits += 1
                    outcome, span = cached
                    stats.cycles_saved += span
                    outcomes = self._outcomes
                    outcomes[seq] = self._replay(fault, t0, outcome)
                    continue
                lst = self._parked.get(key)
                if lst is not None:
                    # Representative already queued: replay at resolution.
                    lst.append((seq, t0))
                    continue
                self._parked[key] = []
                pending.append((seq, fault, start, n, key))
            else:
                value = 1 if fault.kind is FaultKind.STUCK1 else 0
                t_act = golden.activation_cycle(
                    fault.flop.reg, fault.flop.bit, value, t0)
                if t_act is None:
                    continue
                end = n if self.max_observe is None else min(n, t_act + self.max_observe)
                if prune:
                    t_start = golden.first_active_use(
                        fault.flop.reg, fault.flop.bit, value, t_act)
                    if t_start is None or t_start >= end:
                        stats.hard_pruned += 1
                        stats.cycles_saved += end - t_act
                        continue
                    if t_start > t_act:
                        stats.hard_deferred += 1
                        stats.cycles_saved += t_start - t_act
                else:
                    t_start = t_act
                pending.append((seq, fault, t_start, end, None))
        return pending

    def _replay(self, fault: Fault, t0: int,
                outcome: tuple[int, frozenset[int]] | None) -> ErrorRecord | None:
        if outcome is None:
            return None
        detect_cycle, diverged = outcome
        return ErrorRecord(
            benchmark=self.golden.workload.name, flop=fault.flop,
            kind=fault.kind, inject_cycle=t0, detect_cycle=detect_cycle,
            diverged=diverged,
        )

    # -- lane lifecycle ------------------------------------------------------

    def _seed_many(self, pending: deque) -> None:
        """Seed up to ``batch - n`` lanes from the fault queue in bulk.

        Vectorised counterpart of :meth:`_seed`: whole generations of
        lanes retire at once, so refills arrive hundreds at a time and
        per-lane numpy dispatch would dominate the seeding phase.  Same lane state, one fancy-indexed
        assignment per array (only the per-start memory reconstruction
        stays a loop — each start replays a different write-log span).
        """
        take = min(self.batch - self._n, len(pending))
        if take <= 0:
            return
        specs = [pending.popleft() for _ in range(take)]
        i0 = self._n
        self._n = i0 + take
        sl = slice(i0, i0 + take)
        starts = np.fromiter((s[2] for s in specs), np.int64, count=take)
        self.S[:N_REGS, sl] = self._sm32[starts].T
        self.S[ZERO_ROW, sl] = 0
        self.S[TRASH_ROW, sl] = 0
        info = self.info
        mem = self.golden.memory_words_at
        for j, (seq, fault, start, end, key) in enumerate(specs):
            mem(start, out=self.M[i0 + j])
            info[i0 + j] = (fault, key)
        self.t[sl] = starts
        self.start[sl] = starts
        self.end[sl] = np.fromiter((s[3] for s in specs), np.int64,
                                   count=take)
        self.seq[sl] = np.fromiter((s[0] for s in specs), np.int64,
                                   count=take)
        reg_rows = np.fromiter(
            (REG_INDEX[s[1].flop.reg] for s in specs), np.int64, count=take)
        masks = np.fromiter(
            ((1 << s[1].flop.bit) & _M32 for s in specs), _U32, count=take)
        soft = np.fromiter(
            (s[1].kind is FaultKind.SOFT for s in specs), bool, count=take)
        stuck1 = np.fromiter(
            (s[1].kind is FaultKind.STUCK1 for s in specs), bool, count=take)
        self.is_hard[sl] = ~soft
        flip_cols = np.arange(i0, i0 + take)[soft]
        self.S[reg_rows[soft], flip_cols] ^= masks[soft]
        self.force_row[sl] = np.where(soft, TRASH_ROW, reg_rows)
        self.force_and[sl] = np.where(soft | stuck1, _FULL32, ~masks)
        self.force_or[sl] = np.where(stuck1, masks, _U32(0))
        self.next_chk[sl] = starts + np.where(soft, 1, _CONVERGE_CHECK_START)
        self.chk_iv[sl] = np.where(soft, self.mask_check_stride,
                                   _CONVERGE_CHECK_START)

    def _seed(self, spec) -> None:
        """Scalar reference for :meth:`_seed_many` (pinned by tests)."""
        seq, fault, start, end, key = spec
        i = self._n
        self._n = i + 1
        self.S[:N_REGS, i] = self._sm32[start]
        self.S[ZERO_ROW, i] = 0
        self.S[TRASH_ROW, i] = 0
        self.golden.memory_words_at(start, out=self.M[i])
        self.t[i] = start
        self.end[i] = end
        self.start[i] = start
        self.seq[i] = seq
        self.info[i] = (fault, key)
        reg_row = REG_INDEX[fault.flop.reg]
        mask = 1 << fault.flop.bit
        if fault.kind is FaultKind.SOFT:
            self.is_hard[i] = False
            self.S[reg_row, i] ^= _U32(mask)
            self.force_row[i] = TRASH_ROW
            self.force_and[i] = _FULL32
            self.force_or[i] = 0
            self.next_chk[i] = start + 1
            self.chk_iv[i] = self.mask_check_stride
        else:
            self.is_hard[i] = True
            self.force_row[i] = reg_row
            if fault.kind is FaultKind.STUCK1:
                self.force_and[i] = _FULL32
                self.force_or[i] = mask
            else:
                self.force_and[i] = _U32(~mask & _M32)
                self.force_or[i] = 0
            self.next_chk[i] = start + _CONVERGE_CHECK_START
            self.chk_iv[i] = _CONVERGE_CHECK_START

    def _finish(self, i: int, record: ErrorRecord | None) -> None:
        """Record lane ``i``'s outcome and resolve its equivalence class."""
        outcomes = self._outcomes
        outcomes[self.seq[i]] = record
        fault, key = self.info[i]
        if key is None:
            return
        span = int(self.t[i] - self.start[i]) + (1 if record is not None else 0)
        outcome = None if record is None else (record.detect_cycle, record.diverged)
        self._soft_classes[key] = (outcome, span)
        self.stats.equiv_classes += 1
        stats = self.stats
        name = self.golden.workload.name
        for pseq, pt0 in self._parked.pop(key, ()):
            stats.equiv_hits += 1
            stats.cycles_saved += span
            if outcome is not None:
                detect_cycle, diverged = outcome
                outcomes[pseq] = ErrorRecord(
                    benchmark=name, flop=fault.flop, kind=fault.kind,
                    inject_cycle=pt0, detect_cycle=detect_cycle,
                    diverged=diverged)

    def _compact(self, dead) -> None:
        """Remove retired lanes by moving live tail columns into the holes.

        One fancy-indexed copy per array instead of a per-lane scalar
        shuffle: retirements arrive hundreds at a time under the
        compiled kernel, and lane order is immaterial (every decision
        is lane-local and outcomes are keyed by ``seq``).
        """
        dead_set = set(dead)
        n = self._n
        new_n = n - len(dead_set)
        self._n = new_n
        # Surviving tail lanes drop into the holes below the new count,
        # in order; |holes| == |movers| by construction.
        holes = sorted(i for i in dead_set if i < new_n)
        movers = [i for i in range(new_n, n) if i not in dead_set]
        info = self.info
        for hole, mover in zip(holes, movers):
            info[hole] = info[mover]
        for i in range(new_n, n):
            info[i] = None
        if not holes:
            return
        self.S[:, holes] = self.S[:, movers]
        self.M[holes] = self.M[movers]
        for arr in (self.t, self.end, self.start, self.next_chk,
                    self.chk_iv, self.seq, self.force_row, self.force_and,
                    self.force_or, self.is_hard):
            arr[holes] = arr[movers]

    # -- main driver ---------------------------------------------------------

    def _drive(self, pending: deque) -> None:
        golden = self.golden
        stats = self.stats
        name = golden.workload.name
        g_ports = self._g_ports
        t = self.t
        # A batch at or below the tail size drains scalar for the whole
        # run, even while faults are still pending (the outer loop
        # refills and drains again).
        all_scalar = self.batch <= self._tail_lanes
        while self._n or pending:
            self._seed_many(pending)
            n = self._n
            if n <= self._tail_lanes and (all_scalar or not pending):
                self._drain_scalar()
                continue

            # One C call runs *every* lane to its own next rare-path
            # event (lanes outer, cycles inner — each lane's column
            # stays L1-resident however wide the batch is), folding
            # force, port compare, step and the routine check-interval
            # bumps inline.  On return every lane is parked pre-step at
            # exactly one event, which the loop below re-derives from
            # the lane state: horizon, state equal to golden at its
            # check cycle, or port divergence (force applied).
            ran, _hit = self._cext.drive(
                self.S, self.M, self._sm32, self._pm32, self._stim,
                t, self.end, self.next_chk, self.chk_iv,
                self.is_hard, self.force_row, self.force_and,
                self.force_or, self._tables, n,
                self.mask_check_stride, 1 << 30, self.threads)
            stats.sim_cycles += ran

            tt = t[:n].tolist()
            ends = self.end[:n].tolist()
            chks = self.next_chk[:n].tolist()
            retire = []
            diverged = []
            for i in range(n):
                tcur = tt[i]
                if tcur >= ends[i]:
                    retire.append(i)  # observation window exhausted: masked
                elif tcur != chks[i]:
                    diverged.append(i)
                elif not self.is_hard[i]:
                    retire.append(i)  # soft lane re-converged: masked
                else:
                    # Stuck-at lane bit-identical to golden: fast-forward
                    # to the next (observed) activation, as the scalar
                    # engine does post-step.  A lane that fast-forwards
                    # or re-arms stays live; the next drive() call
                    # forces, compares and steps it.
                    fault, _key = self.info[i]
                    value = 1 if fault.kind is FaultKind.STUCK1 else 0
                    if self.prune:
                        t_next = golden.first_active_use(
                            fault.flop.reg, fault.flop.bit, value, tcur)
                    else:
                        t_next = golden.activation_cycle(
                            fault.flop.reg, fault.flop.bit, value, tcur)
                    if t_next is None or t_next >= ends[i]:
                        retire.append(i)  # force is a no-op henceforth
                    elif t_next > tcur:
                        self.S[:N_REGS, i] = self._sm32[t_next]
                        golden.memory_words_at(t_next, out=self.M[i])
                        t[i] = t_next
                        self.chk_iv[i] = _CONVERGE_CHECK_START
                        self.next_chk[i] = t_next + _CONVERGE_CHECK_START
                    else:
                        self.next_chk[i] = tcur + self.chk_iv[i]
            for i in retire:
                self._finish(i, None)

            if diverged:
                # One bulk extraction instead of 18 scalar conversions
                # per detection — detections arrive hundreds at a time.
                Sd = self.S[:, diverged]
                ports = np.vstack((
                    Sd[PORT_ROWS16],
                    (Sd[STATUS] & 1) | (Sd[HALTED] << 1),
                    Sd[BR_TAKEN] | (Sd[BR_VALID] << 1))).T.tolist()
                for i, out in zip(diverged, ports):
                    out = tuple(out)
                    tcur = tt[i]
                    if out == g_ports[tcur]:
                        raise RuntimeError(
                            f"drive() returned lane {i} unparked at "
                            f"cycle {tcur}")
                    fault, _key = self.info[i]
                    record = ErrorRecord(
                        benchmark=name, flop=fault.flop, kind=fault.kind,
                        inject_cycle=fault.cycle, detect_cycle=tcur,
                        diverged=diverged_ports(out, g_ports[tcur]))
                    stats.sim_cycles += 1  # the scalar step that showed this tuple
                    self._finish(i, record)
                retire.extend(diverged)
            self._compact(retire)

    # -- scalar straggler drain ----------------------------------------------

    def _drain_scalar(self) -> None:
        """Finish the last few lanes with per-lane Python stepping.

        Once the pending queue is empty and only a handful of
        long-window stragglers remain, per-lane ``Cpu.step()`` is
        cheaper than another kernel round trip.  The loop below
        replays the kernel's per-lane decision sequence exactly — same
        check cycles, same pre-step port compare, same fast-forward —
        so records and stats are bit-identical to staying in the
        kernel.
        """
        golden = self.golden
        stats = self.stats
        name = golden.workload.name
        g_ports = self._g_ports
        g_hashes = golden.state_hash_list()
        state_at = golden.state_at
        stride = self.mask_check_stride
        prune = self.prune
        cpu = self._tail_cpu
        if cpu is None:
            cpu = self._tail_cpu = Cpu(Memory(golden.mem_words), golden.stimulus)
        for i in range(self._n):
            fault, _key = self.info[i]
            cpu.restore(tuple(int(v) for v in self.S[:N_REGS, i]))
            cpu.mem.words[:] = self.M[i].tolist()
            t = int(self.t[i])
            end = int(self.end[i])
            next_chk = int(self.next_chk[i])
            chk_iv = int(self.chk_iv[i])
            hard = bool(self.is_hard[i])
            reg = fault.flop.reg
            mask = 1 << fault.flop.bit
            value = 1 if fault.kind is FaultKind.STUCK1 else 0
            reg_idx = REG_INDEX[reg]
            d = cpu.__dict__
            record = None
            while True:
                if t >= end:
                    break  # window exhausted: masked
                if t == next_chk:
                    snap = cpu.snapshot()
                    if hash(snap) == g_hashes[t] and snap == state_at(t):
                        if not hard:
                            break  # re-converged: masked
                        if prune:
                            t_next = golden.first_active_use(
                                reg, fault.flop.bit, value, t)
                        else:
                            t_next = golden.activation_cycle(
                                reg, fault.flop.bit, value, t)
                        if t_next is None or t_next >= end:
                            break  # force is a no-op henceforth
                        if t_next > t:
                            cpu.restore(state_at(t_next))
                            golden.memory_at(t_next, out=cpu.mem)
                            t = t_next
                            chk_iv = _CONVERGE_CHECK_START
                            next_chk = t_next + _CONVERGE_CHECK_START
                        else:
                            next_chk = t + chk_iv
                    elif hard:
                        chk_iv *= 2
                        next_chk = t + chk_iv
                    else:
                        next_chk += stride
                if hard:
                    if value:
                        d[reg] |= mask
                    else:
                        d[reg] &= ~mask
                out = cpu.step()
                stats.sim_cycles += 1
                if out != g_ports[t]:
                    record = ErrorRecord(
                        benchmark=name, flop=fault.flop, kind=fault.kind,
                        inject_cycle=fault.cycle, detect_cycle=t,
                        diverged=diverged_ports(out, g_ports[t]))
                    break
                t += 1
            self.t[i] = t  # _finish derives the equivalence span from t
            self._finish(i, record)
            self.info[i] = None
        self._n = 0
