"""Compile-once execution backend.

:func:`compile_program` lowers a program through
:mod:`repro.runtime.codegen` to one Python function, ``exec``s it once
and caches the :class:`CompiledKernel` in a process-wide LRU keyed by a
stable content hash of the IR tree.  Campaign trials — thousands of
runs of the *same* instrumented program — then pay codegen exactly once
per worker process and per-trial cost drops to a plain function call.

Bit-identity contract: a kernel run and an interpreter run of the same
program observe the same memory access sequence (fault injectors fire
on the same load), produce equal :class:`ExecutionResult` fields, and
raise the same exceptions (step budget, division by zero, out-of-bounds
in strict mode).  ``tests/runtime/test_compile_differential.py`` pins
this for every bundled benchmark.

Fallback: programs using constructs the emitter cannot lower raise
:class:`CompileError`; :func:`run_compiled` (and everything layered on
it) silently falls back to the interpreter.  A ``register_budget``
(Section 5 spill modeling) always uses the interpreter — spill traffic
is a per-bundle LRU simulation the generated code does not carry.
Failed compiles are cached too, so a fallback is decided once, not per
trial.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.ir.nodes import Program
from repro.runtime.codegen import (
    CompileError,
    generate_checkpoint_source,
    generate_source,
)
from repro.runtime.costmodel import OpCounts
from repro.runtime.interpreter import (
    ExecutionResult,
    InterpreterError,
    StepLimitExceeded,
    run_program,
)
from repro.runtime.memory import (
    Memory,
    build_memory_for_program,
    encode_value,
)
from repro.runtime.state import ChecksumState
from repro.service.store import TRIAL_PATHS, code_digest

__all__ = [
    "CompileError",
    "CompiledKernel",
    "compile_program",
    "ir_digest",
    "run_compiled",
    "execute_program",
    "clear_kernel_cache",
    "BACKENDS",
]

BACKENDS = ("interp", "compiled")


class _Halt(Exception):
    """Kernel-internal fail-stop unwind (mirrors _HaltDetected)."""


class _RuntimeContext:
    """Everything a generated kernel touches at run time."""

    __slots__ = (
        "memory",
        "checksums",
        "counts",
        "mismatches",
        "params",
        "max_steps",
        "halt_on_mismatch",
        "statements_executed",
        "first_detection_step",
        "trap",
        "trip",
    )

    def __init__(
        self,
        memory: Memory,
        checksums: ChecksumState,
        params: dict[str, int],
        max_steps: int | None,
        halt_on_mismatch: bool,
    ) -> None:
        self.memory = memory
        self.checksums = checksums
        self.counts = OpCounts()
        self.mismatches: list = []
        self.params = params
        self.max_steps = max_steps
        self.halt_on_mismatch = halt_on_mismatch
        self.statements_executed = 0
        self.first_detection_step: int | None = None
        # The inline body's load trap (see :func:`_arm_trap`).
        self.trap = _NO_TRAP
        self.trip = None


#: A load trap the inline body's ``_lc`` never reaches.
_NO_TRAP = 1 << 62


def _arm_trap(rt: _RuntimeContext, memory: Memory, injector) -> None:
    """Set the inline body's load trap for a one-shot ``injector``.

    The body keeps its load count in the local ``_lc`` and adds it to
    ``memory.load_count`` only when it returns, so a trap is relative:
    the injector's load ordinal minus what the memory has counted
    itself.  ``_trip`` publishes the exact ordinal for the injector's
    one call, then hands the body its next trap (none, for a one-shot
    injector that acted)."""

    def relative(at) -> int:
        if at is None:
            return _NO_TRAP
        kind, ordinal = at
        if kind != "load":
            raise ValueError(f"one-shot injector armed at a {kind}")
        return ordinal - memory.load_count

    def trip(lc, name, indices):
        memory.load_count += lc
        try:
            injector.before_load(
                memory, name, indices, memory.peek_bits(name, indices)
            )
        finally:
            memory.load_count -= lc
        return relative(injector.arms_at())

    rt.trap = relative(injector.arms_at())
    rt.trip = trip


def _slimit(rt: _RuntimeContext) -> None:
    raise StepLimitExceeded(
        f"exceeded {rt.max_steps} statement executions"
    )


def _idiv(left, right):
    if right == 0:
        raise InterpreterError("integer division by zero")
    return left // right


def _fdiv(left, right):
    if right == 0:
        # IEEE semantics: x/0 is ±inf, 0/0 is NaN; corrupted data keeps
        # flowing until the verifier flags it.
        if left == 0:
            return float("nan")
        sign = math.copysign(1.0, float(left)) * math.copysign(
            1.0, float(right)
        )
        return math.copysign(math.inf, sign)
    return left / right


def _xdiv(left, right):
    if isinstance(left, int) and isinstance(right, int):
        return _idiv(left, right)
    return _fdiv(left, right)


def _rmod(left, right):
    if right == 0:
        raise InterpreterError("modulo by zero")
    return left % right


def _rsqrt(value):
    if value < 0:
        return float("nan")
    return math.sqrt(value)


def _rexp(value):
    try:
        return math.exp(value)
    except OverflowError:
        return math.inf


def _encdyn(value):
    return encode_value(value, "i64" if isinstance(value, int) else "f64")


_BASE_NAMESPACE = {
    "_Halt": _Halt,
    "_INF": float("inf"),
    "_slimit": _slimit,
    "_idiv": _idiv,
    "_fdiv": _fdiv,
    "_xdiv": _xdiv,
    "_rmod": _rmod,
    "_rsqrt": _rsqrt,
    "_rexp": _rexp,
    "_encdyn": _encdyn,
    "_sin": math.sin,
    "_cos": math.cos,
    "_floor": math.floor,
    "_pkd": struct.Struct("<d").pack,
    "_pkq": struct.Struct("<Q").pack,
    "_unpd": struct.Struct("<d").unpack,
    "_unpq": struct.Struct("<Q").unpack,
}


@dataclass
class CompiledKernel:
    """One program, lowered and ``exec``'d once."""

    program: Program
    digest: str
    source: str
    entry: Callable[[_RuntimeContext], None]
    checkpoint_source: str
    checkpoint_entry: Callable
    restore_entry: Callable
    #: The inlined-memory fast entry, selected at run time when no
    #: fault injector is attached to the memory image, or a one-shot
    #: one is and the body is :attr:`trap_exact`.
    fast_source: str
    fast_entry: Callable[[_RuntimeContext], None]
    #: Every load site of the fast entry is inlined, so its load trap
    #: fires on the exact ordinal (see :mod:`repro.runtime.codegen`).
    trap_exact: bool

    def execute(
        self,
        params: Mapping[str, int],
        initial_values: Mapping[str, object] | None = None,
        memory: Memory | None = None,
        injector=None,
        channels: int = 1,
        max_steps: int | None = 50_000_000,
        wild_reads: bool = False,
        halt_on_mismatch: bool = False,
        checksums: ChecksumState | None = None,
    ) -> ExecutionResult:
        """Run the kernel; mirrors ``run_program``'s contract.

        A caller-supplied ``checksums`` state is used as-is (the
        recovery controller threads one state through its per-epoch
        sub-runs); otherwise a fresh one is created.
        """
        run_params = {p: int(params[p]) for p in self.program.params}
        if memory is None:
            memory = build_memory_for_program(
                self.program, run_params, injector, wild_reads=wild_reads
            )
        elif injector is not None:
            memory.injector = injector
        if initial_values:
            for name, values in initial_values.items():
                memory.initialize(name, values)
        if checksums is None:
            checksums = ChecksumState(channels=channels)
        elif checksums.channels != channels:
            raise InterpreterError(
                f"resumed checksum state has {checksums.channels} channels, "
                f"kernel was asked for {channels}"
            )
        rt = _RuntimeContext(
            memory=memory,
            checksums=checksums,
            params=run_params,
            max_steps=max_steps,
            halt_on_mismatch=halt_on_mismatch,
        )
        # The inlined-memory entry bypasses the injector observation
        # points: it runs on injector-free memory (golden runs,
        # benchmarks), and for a one-shot injector, which it calls once
        # from its load trap.  The injector is detached meanwhile (no
        # Memory method may call it a second time) and re-attached
        # after, for whoever runs this memory next (recovery segments).
        entry = self.entry
        trapped = None
        if memory.injector is None:
            entry = self.fast_entry
        elif self.trap_exact and getattr(memory.injector, "one_shot", False):
            entry = self.fast_entry
            trapped = memory.injector
            _arm_trap(rt, memory, trapped)
            memory.injector = None
            TRIAL_PATHS["trapped"] += 1
        try:
            entry(rt)
        finally:
            if trapped is not None:
                memory.injector = trapped
        return ExecutionResult(
            checksums=rt.checksums,
            mismatches=rt.mismatches,
            counts=rt.counts,
            memory=memory,
            statements_executed=rt.statements_executed,
            spills=0,
            first_detection_step=rt.first_detection_step,
        )


def ir_digest(program: Program) -> str:
    """Stable content hash of an IR tree (the kernel key's first half).

    ``repr`` of a frozen-dataclass tree is deterministic and complete
    (every field, every literal, including int/float distinction), so
    structurally equal programs share one cache slot.
    """
    return hashlib.sha256(repr(program).encode("utf-8")).hexdigest()


KERNEL_CACHE_LIMIT = 128

#: The code a kernel's sources are a function of, besides its IR: the
#: second half of the kernel key, so a store directory that survives an
#: edit to the emitter never serves the old generated sources.
EMITTER_SOURCES = ("runtime/codegen.py", "runtime/opt/*.py")


def _assemble_kernel(
    program: Program,
    digest: str,
    source: str,
    checkpoint_source: str,
    fast_source: str,
) -> CompiledKernel:
    """``exec`` already-generated sources into a kernel.

    Shared by the compile path and the artifact store's disk decode —
    a persisted kernel is its generated sources, so loading one pays a
    ``compile``/``exec``, never a codegen run.
    """
    namespace = dict(_BASE_NAMESPACE)
    exec(  # noqa: S102 - generated from a closed IR, no user strings
        compile(source, f"<compiled {program.name}>", "exec"), namespace
    )
    exec(  # noqa: S102 - same closed-IR provenance
        compile(
            checkpoint_source,
            f"<checkpoint {program.name}>",
            "exec",
        ),
        namespace,
    )
    # Separate namespace: both sources define ``_kernel``.
    fast_namespace = dict(_BASE_NAMESPACE)
    exec(  # noqa: S102 - same closed-IR provenance
        compile(fast_source, f"<compiled-fast {program.name}>", "exec"),
        fast_namespace,
    )
    return CompiledKernel(
        program=program,
        digest=digest,
        source=source,
        entry=namespace["_kernel"],
        checkpoint_source=checkpoint_source,
        checkpoint_entry=namespace["_checkpoint"],
        restore_entry=namespace["_restore"],
        fast_source=fast_source,
        fast_entry=fast_namespace["_kernel"],
        trap_exact=fast_namespace["_TRAP_EXACT"],
    )


def _build_kernel(program: Program, digest: str) -> CompiledKernel:
    return _assemble_kernel(
        program,
        digest,
        generate_source(program),
        generate_checkpoint_source(program),
        generate_source(program, inline_mem=True),
    )


def _kernel_encode(entry):
    """Disk codec: a kernel's ``exec``'d functions cannot pickle, but
    its generated sources can; a failed compile persists as its message."""
    if isinstance(entry, CompileError):
        return {"kind": "error", "message": str(entry)}
    return {
        "kind": "kernel",
        "program": entry.program,
        "digest": entry.digest,
        "source": entry.source,
        "checkpoint_source": entry.checkpoint_source,
        "fast_source": entry.fast_source,
    }


def _kernel_decode(payload):
    if not isinstance(payload, dict):
        return None
    if payload.get("kind") == "error":
        return CompileError(payload.get("message", "cached compile failure"))
    if payload.get("kind") != "kernel":
        return None
    return _assemble_kernel(
        payload["program"],
        payload["digest"],
        payload["source"],
        payload["checkpoint_source"],
        payload["fast_source"],
    )


def _kernel_ns():
    from repro.service.store import namespace

    return namespace(
        "kernel",
        limit=KERNEL_CACHE_LIMIT,
        disk=True,
        encode=_kernel_encode,
        decode=_kernel_decode,
    )


def compile_program(program: Program) -> CompiledKernel:
    """Compile (or fetch from the cache) a kernel for ``program``.

    The kernel carries two bodies: the hooked entry, and an
    inlined-memory entry used on injector-free runs and, when that
    entry is trap-exact, on one-shot injected runs.  Raises
    :class:`CompileError` when the program cannot be lowered; the
    failure itself is cached so repeated attempts stay cheap.

    The cache is the ``kernel`` namespace of the unified artifact store,
    keyed on the IR digest and the digest of :data:`EMITTER_SOURCES`;
    with a shared disk directory configured, a kernel compiled by one
    process re-assembles everywhere else from its persisted sources.
    """
    digest = ir_digest(program)
    key = (digest, code_digest(*EMITTER_SOURCES))

    def build():
        try:
            return _build_kernel(program, digest)
        except CompileError as error:
            return error

    entry = _kernel_ns().get_or_compute(key, build)
    if isinstance(entry, CompileError):
        raise entry
    return entry


def clear_kernel_cache() -> None:
    ns = _kernel_ns()
    ns.clear()
    ns.set_limit(KERNEL_CACHE_LIMIT)


def run_compiled(
    program: Program,
    params: Mapping[str, int],
    initial_values: Mapping[str, object] | None = None,
    injector=None,
    channels: int = 1,
    max_steps: int | None = 50_000_000,
    wild_reads: bool = False,
    register_budget: int | None = None,
    halt_on_mismatch: bool = False,
    fallback: bool = True,
) -> ExecutionResult:
    """``run_program`` signature, compiled backend.

    With ``fallback=True`` (default) any :class:`CompileError` — or a
    ``register_budget``, which the kernel cannot model — reruns through
    the interpreter; ``fallback=False`` surfaces the error (used by the
    differential tests to prove no silent fallback happened).
    """
    if register_budget is not None:
        if not fallback:
            raise CompileError(
                "register_budget spill modeling needs the interpreter"
            )
        return run_program(
            program,
            params,
            initial_values=initial_values,
            injector=injector,
            channels=channels,
            max_steps=max_steps,
            wild_reads=wild_reads,
            register_budget=register_budget,
            halt_on_mismatch=halt_on_mismatch,
        )
    try:
        kernel = compile_program(program)
    except CompileError:
        if not fallback:
            raise
        return run_program(
            program,
            params,
            initial_values=initial_values,
            injector=injector,
            channels=channels,
            max_steps=max_steps,
            wild_reads=wild_reads,
            halt_on_mismatch=halt_on_mismatch,
        )
    return kernel.execute(
        params,
        initial_values=initial_values,
        injector=injector,
        channels=channels,
        max_steps=max_steps,
        wild_reads=wild_reads,
        halt_on_mismatch=halt_on_mismatch,
    )


def execute_program(
    program: Program,
    params: Mapping[str, int],
    backend: str = "compiled",
    **kwargs,
) -> ExecutionResult:
    """Backend dispatcher: one of :data:`BACKENDS`."""
    if backend == "interp":
        return run_program(program, params, **kwargs)
    if backend == "compiled":
        return run_compiled(program, params, **kwargs)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )
