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
import time
from dataclasses import dataclass
from typing import Callable, Mapping

from repro.ir.nodes import Program
from repro.runtime.codegen import (
    CompileError,
    generate_checkpoint_source,
    generate_source,
)
from repro.runtime.opt import DEFAULT_OPT_LEVEL, OPT_LEVELS, config_for_level
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

__all__ = [
    "CompileError",
    "CompiledKernel",
    "VectorVerificationError",
    "compile_program",
    "ir_digest",
    "run_compiled",
    "execute_program",
    "kernel_cache_stats",
    "clear_kernel_cache",
    "BACKENDS",
]

BACKENDS = ("interp", "compiled", "vector")


class VectorVerificationError(AssertionError):
    """``verify_vector`` caught the vector backend diverging from the
    scalar kernel on a contract field.  Always a backend bug: the vector
    path must be bit-identical or fall back."""


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
    #: Optimization level the sources were generated at.
    opt_level: int = DEFAULT_OPT_LEVEL
    #: Level ≥ 2 only: the inlined-memory fast entry, selected at run
    #: time when no fault injector is attached to the memory image.
    fast_source: str | None = None
    fast_entry: Callable[[_RuntimeContext], None] | None = None
    #: Vector backend: whole-array plan, built lazily on the first
    #: injector-free dispatch (``None`` once built = unplannable).
    vector_plan: object = None
    vector_plan_built: bool = False

    def _vector_plan_for(self):
        if not self.vector_plan_built:
            from repro.runtime.vector import plan_program

            self.vector_plan = plan_program(self.program)
            self.vector_plan_built = True
        return self.vector_plan

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
        vectorize: bool = False,
        verify_vector: bool = False,
    ) -> ExecutionResult:
        """Run the kernel; mirrors ``run_program``'s contract.

        A caller-supplied ``checksums`` state is used as-is (the
        recovery controller threads one state through its per-epoch
        sub-runs); otherwise a fresh one is created.

        ``vectorize=True`` lets the run dispatch to the vector backend
        when no injector is attached, the program planned, and the
        profitability probe for this (kernel, params, channels) key
        measured a win.  A vector-committed result carries a zeroed
        :class:`OpCounts` — the per-op breakdown is out of the vector
        identity contract; memory load/store totals, checksums, the
        final image, steps, mismatches and first detection are exact.
        ``verify_vector=True`` runs *both* backends (vector against a
        cloned state) and raises :class:`VectorVerificationError` on
        any contract-field divergence; the scalar result is returned.
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
        want_vector = (
            vectorize and not wild_reads and memory.injector is None
        )
        _vec = None
        if want_vector:
            from repro.runtime import vector as _vec

            want_vector = (
                _vec.vector_enabled()
                and self._vector_plan_for() is not None
            )
        vclone_mem = vclone_sums = vout = None
        probe_key = probe_seconds = None
        if want_vector and verify_vector:
            # Vector runs on a cloned state; the scalar run below stays
            # authoritative for the returned result.
            vclone_mem = _clone_memory(self.program, run_params, memory)
            vclone_sums = _clone_checksums(checksums)
            vout = _vec.execute_vector(
                self,
                run_params,
                vclone_mem,
                vclone_sums,
                max_steps,
                halt_on_mismatch,
            )
        elif want_vector:
            key = _vec.profit_key(self, run_params, channels)
            state = _vec.profit_state(key)
            if state is True:
                out = _vec.execute_vector(
                    self,
                    run_params,
                    memory,
                    checksums,
                    max_steps,
                    halt_on_mismatch,
                )
                if out is not None:
                    return ExecutionResult(
                        checksums=checksums,
                        mismatches=out["mismatches"],
                        counts=OpCounts(),
                        memory=memory,
                        statements_executed=out["statements_executed"],
                        spills=0,
                        first_detection_step=out["first_detection_step"],
                    )
            elif state is None:
                # Undecided key: time an uncommitted vector attempt now
                # and the scalar run we perform anyway; the faster path
                # wins the memo for every later dispatch of this key.
                probe_seconds = _vec.probe(
                    self,
                    run_params,
                    memory,
                    checksums,
                    max_steps,
                    halt_on_mismatch,
                )
                if probe_seconds is not None:
                    probe_key = key
        rt = _RuntimeContext(
            memory=memory,
            checksums=checksums,
            params=run_params,
            max_steps=max_steps,
            halt_on_mismatch=halt_on_mismatch,
        )
        # The inlined-memory entry bypasses the injector observation
        # points, so it only ever runs on injector-free memory (golden
        # runs, benchmarks).
        entry = self.entry
        if self.fast_entry is not None and memory.injector is None:
            entry = self.fast_entry
        if probe_key is not None:
            started = time.perf_counter()
            entry(rt)
            _vec.record_profit(
                probe_key, probe_seconds, time.perf_counter() - started
            )
        else:
            entry(rt)
        result = ExecutionResult(
            checksums=rt.checksums,
            mismatches=rt.mismatches,
            counts=rt.counts,
            memory=memory,
            statements_executed=rt.statements_executed,
            spills=0,
            first_detection_step=rt.first_detection_step,
        )
        if vout is not None:
            _check_vector_identity(
                self.program.name,
                memory,
                checksums,
                result,
                vclone_mem,
                vclone_sums,
                vout,
            )
        return result


def _clone_memory(program: Program, run_params, memory: Memory) -> Memory:
    """Injector-free copy of a memory image for differential runs.

    A fresh build declares regions in the same order, so bases (and
    with them the rotated-channel addresses) are identical by
    construction.
    """
    clone = build_memory_for_program(program, run_params)
    for name, region in memory._regions.items():
        clone._regions[name].words[:] = list(region.words)
        clone._regions[name].version = region.version
    clone.load_count = memory.load_count
    clone.store_count = memory.store_count
    return clone


def _clone_checksums(checksums: ChecksumState) -> ChecksumState:
    clone = ChecksumState(channels=checksums.channels)
    clone.sums = [dict(channel) for channel in checksums.sums]
    clone.contribution_count = checksums.contribution_count
    return clone


def _check_vector_identity(
    name, memory, checksums, result, vmem, vsums, vout
) -> None:
    """Compare every vector-contract field; raise on the first diff."""
    problems = []
    for rname, region in memory._regions.items():
        if list(vmem._regions[rname].words) != list(region.words):
            problems.append(f"final image of region {rname!r}")
    if vsums.sums != checksums.sums:
        problems.append("checksum sums")
    if vsums.contribution_count != checksums.contribution_count:
        problems.append("contribution count")
    if vmem.load_count != memory.load_count:
        problems.append(
            f"load count {vmem.load_count} != {memory.load_count}"
        )
    if vmem.store_count != memory.store_count:
        problems.append(
            f"store count {vmem.store_count} != {memory.store_count}"
        )
    if vout["statements_executed"] != result.statements_executed:
        problems.append(
            f"steps {vout['statements_executed']} != "
            f"{result.statements_executed}"
        )
    if vout["mismatches"] != list(result.mismatches):
        problems.append("mismatch events")
    if vout["first_detection_step"] != result.first_detection_step:
        problems.append(
            f"first detection {vout['first_detection_step']} != "
            f"{result.first_detection_step}"
        )
    if problems:
        raise VectorVerificationError(
            f"vector backend diverged on {name!r}: " + "; ".join(problems)
        )


def ir_digest(program: Program) -> str:
    """Stable content hash of an IR tree (the kernel cache key).

    ``repr`` of a frozen-dataclass tree is deterministic and complete
    (every field, every literal, including int/float distinction), so
    structurally equal programs share one cache slot.
    """
    return hashlib.sha256(repr(program).encode("utf-8")).hexdigest()


#: Cached under keys ``(ir digest, opt level)`` — a level-0 and a
#: level-2 kernel of the same program must never alias.
KERNEL_CACHE_LIMIT = 128


def _assemble_kernel(
    program: Program,
    digest: str,
    level: int,
    source: str,
    checkpoint_source: str,
    fast_source: str | None,
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
    fast_entry = None
    if fast_source is not None:
        # Separate namespace: both sources define ``_kernel``.
        fast_namespace = dict(_BASE_NAMESPACE)
        exec(  # noqa: S102 - same closed-IR provenance
            compile(
                fast_source, f"<compiled-fast {program.name}>", "exec"
            ),
            fast_namespace,
        )
        fast_entry = fast_namespace["_kernel"]
    return CompiledKernel(
        program=program,
        digest=digest,
        source=source,
        entry=namespace["_kernel"],
        checkpoint_source=checkpoint_source,
        checkpoint_entry=namespace["_checkpoint"],
        restore_entry=namespace["_restore"],
        opt_level=level,
        fast_source=fast_source,
        fast_entry=fast_entry,
    )


def _build_kernel(program: Program, digest: str, level: int) -> CompiledKernel:
    opt = config_for_level(level)
    source = generate_source(program, opt)
    checkpoint_source = generate_checkpoint_source(program)
    fast_source = None
    if level >= 2:
        fast_opt = config_for_level(level, inline_mem=True)
        fast_source = generate_source(program, fast_opt)
    return _assemble_kernel(
        program, digest, level, source, checkpoint_source, fast_source
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
        "level": entry.opt_level,
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
        payload["level"],
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


def compile_program(
    program: Program,
    cache: bool = True,
    opt_level: int | None = None,
) -> CompiledKernel:
    """Compile (or fetch from the cache) a kernel for ``program``.

    ``opt_level`` selects the optimization pipeline (default
    :data:`DEFAULT_OPT_LEVEL`); at level ≥ 2 the kernel carries a second
    inlined-memory entry used only on injector-free runs.  Raises
    :class:`CompileError` when the program cannot be lowered; the
    failure itself is cached so repeated attempts stay cheap.

    The cache is the ``kernel`` namespace of the unified artifact store;
    with a shared disk directory configured, a kernel compiled by one
    process re-assembles everywhere else from its persisted sources.
    """
    level = DEFAULT_OPT_LEVEL if opt_level is None else int(opt_level)
    if level not in OPT_LEVELS:
        raise ValueError(
            f"opt level must be one of {OPT_LEVELS}, got {opt_level!r}"
        )
    digest = ir_digest(program)
    if not cache:
        return _build_kernel(program, digest, level)
    key = (digest, level)

    def build():
        try:
            return _build_kernel(program, digest, level)
        except CompileError as error:
            return error

    entry = _kernel_ns().get_or_compute(key, build)
    if isinstance(entry, CompileError):
        raise entry
    return entry


def kernel_cache_stats() -> dict[str, int]:
    return _kernel_ns().stats()


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
    opt_level: int | None = None,
    vectorize: bool = False,
    verify_vector: bool = False,
) -> ExecutionResult:
    """``run_program`` signature, compiled backend.

    With ``fallback=True`` (default) any :class:`CompileError` — or a
    ``register_budget``, which the kernel cannot model — reruns through
    the interpreter; ``fallback=False`` surfaces the error (used by the
    differential tests to prove no silent fallback happened).
    ``vectorize``/``verify_vector`` thread through to
    :meth:`CompiledKernel.execute` (no effect on interpreter reruns —
    the vector backend only shadows the compiled kernel).
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
        kernel = compile_program(program, opt_level=opt_level)
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
        vectorize=vectorize,
        verify_vector=verify_vector,
    )


def execute_program(
    program: Program,
    params: Mapping[str, int],
    backend: str = "compiled",
    **kwargs,
) -> ExecutionResult:
    """Backend dispatcher: one of :data:`BACKENDS`.

    ``"vector"`` is the compiled backend with vector dispatch enabled —
    still probe-gated and injector-guarded, never a forced vector run.
    """
    if backend == "interp":
        kwargs.pop("opt_level", None)  # interpreter has no optimizer
        kwargs.pop("vectorize", None)
        kwargs.pop("verify_vector", None)
        return run_program(program, params, **kwargs)
    if backend == "compiled":
        return run_compiled(program, params, **kwargs)
    if backend == "vector":
        kwargs.setdefault("vectorize", True)
        return run_compiled(program, params, **kwargs)
    raise ValueError(
        f"unknown backend {backend!r}; expected one of {BACKENDS}"
    )
