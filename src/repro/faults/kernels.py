"""Kernel selection for the batch fault-injection engine.

The :class:`~repro.faults.batch.BatchInjectionEngine` steps its
structure-of-arrays lane state with one kernel, the compiled fused
``drive()`` loop in ``_cstep`` (one C call runs force / golden compare
/ step for *many* cycles, returning to Python only on rare-path
events, see DESIGN §5.15).  Kernel requests are:

* ``"cext"`` — the compiled kernel, or a ``RuntimeError`` carrying the
  build failure when it cannot load;
* ``"auto"`` (default) — ``"cext"`` when the extension is importable
  or buildable, ``None`` otherwise.  ``None`` means "no batch kernel":
  campaigns then run the scalar
  :class:`~repro.faults.injector.InjectionEngine`, which
  :func:`repro.faults.parallel.run_shard` picks in that case.

Every engine is digest-identical by construction and by test
(tests/test_kernels.py holds the C step equal to ``Cpu.step`` per
cycle, state-for-state), so the choice is purely a speed decision and
never enters campaign cache keys.
"""

from __future__ import annotations

import os

KERNEL_CHOICES = ("auto", "cext")
THREADS_ENV = "REPRO_CSTEP_THREADS"

#: At or below this many live lanes the batch engine finishes lanes
#: with per-lane ``Cpu.step()`` instead of another kernel call (the
#: straggler tail, or the whole run for batches this narrow): the
#: kernel's fixed cost is one C call plus re-packing lane state, so
#: the breakeven is a handful of lanes.
TAIL_LANES = 8


def resolve_threads(threads: int | None = None,
                    lanes: int | None = None) -> int:
    """Resolve a drive-loop thread-count request to a concrete count.

    ``None`` falls back to ``$REPRO_CSTEP_THREADS``, then to the
    auto-size ``min(cores, lanes // 16)`` — one thread per core, but
    never slicing below 16 lanes/thread (a slice narrower than that is
    dominated by dispatch, see DESIGN §5.17).  Always >= 1.  The
    result only affects wall-clock: lane slices are merged in lane
    order, so any value is digest-identical.
    """
    if threads is None:
        env = os.environ.get(THREADS_ENV)
        if env:
            threads = int(env)
    if threads is None:
        cores = os.cpu_count() or 1
        threads = min(cores, (lanes or 0) // 16) if lanes else cores
    if threads < 1:
        threads = 1
    return threads


def cext_module():
    """The compiled kernel module, or None when unavailable."""
    from . import _cstep
    return _cstep.MODULE


def cext_available() -> bool:
    return cext_module() is not None


def cext_build_error() -> str | None:
    """Why the compiled kernel is unavailable (None when it loaded)."""
    from . import _cstep
    return _cstep.BUILD_ERROR


def resolve_kernel(name: str | None = None) -> str | None:
    """Resolve a kernel request to ``"cext"`` or ``None`` (scalar engine).

    ``None`` means ``"auto"``.  Requesting ``"cext"`` explicitly when
    the extension cannot load is an error (with the build failure
    attached) rather than a silent downgrade; ``"auto"`` downgrades
    silently to ``None``.
    """
    requested = name or "auto"
    if requested not in KERNEL_CHOICES:
        raise ValueError(
            f"unknown kernel {requested!r} (choose from {KERNEL_CHOICES})")
    if cext_available():
        return "cext"
    if requested == "cext":
        raise RuntimeError(
            "kernel 'cext' requested but the compiled extension is "
            f"unavailable: {cext_build_error() or 'import failed'}")
    return None
