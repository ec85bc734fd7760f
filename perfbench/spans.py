"""Outside-in span recorder for the traced benchmark run.

Nothing under ``src/`` knows about tracing.  :class:`Tracer` replaces
the public entry point of each layer by a timing wrapper (attribute
replacement on every loaded ``repro`` module that binds the original
object, so ``from x import f`` bindings are caught too) and puts the
originals back on :meth:`Tracer.uninstall`.  Spans are kept in memory
with their parent and the trial index they belong to.

Campaign worker processes are forked from the driver and inherit the
wrappers.  A forked worker drops the driver's spans it inherited and
appends each finished top-level span tree to ``spans-<pid>.jsonl`` in
the trace directory; the driver reads those files back with
:meth:`Tracer.collect_workers` once the pool has joined.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from pathlib import Path

#: (module, attribute path, span name).  ``execute`` is renamed
#: ``golden`` at the end of a call whose memory carried no injector.
TARGETS = (
    ("repro.instrument.pipeline", "instrument_program", "instrument"),
    ("repro.runtime.compile", "compile_program", "compile"),
    ("repro.runtime.compile", "CompiledKernel.execute", "execute"),
    ("repro.campaign.spec", "ProgramCampaignSpec.prepare", "prepare"),
    ("repro.campaign.spec", "ProgramCampaignSpec.run_trial", "trial"),
    ("repro.recovery.plan", "build_recovery_plan", "recovery.plan"),
    ("repro.recovery.controller", "run_plan", "recovery.run_plan"),
    ("repro.codegen.python_gen", "compile_to_python", "python_gen"),
    ("repro.experiments.figure10", "build_benchmark", "figure10.build"),
    ("repro.experiments.figure10", "measure_counts", "figure10.counts"),
    ("repro.experiments.figure10", "measure_wall", "figure10.wall"),
    ("repro.campaign.records", "write_record", "log.write"),
    # The driver blocks here while pool workers run its trials.
    ("multiprocessing.pool", "IMapIterator.__next__", "engine.wait"),
)


class Span:
    __slots__ = ("sid", "name", "parent", "trial", "pid", "start", "end",
                 "steps")

    def __init__(self, sid, name, parent, trial, pid, start):
        self.sid = sid
        self.name = name
        self.parent = parent
        self.trial = trial
        self.pid = pid
        self.start = start
        self.end = start
        self.steps = 0

    def to_json(self) -> dict:
        return {slot: getattr(self, slot) for slot in self.__slots__}

    @classmethod
    def from_json(cls, data: dict) -> "Span":
        span = cls(data["sid"], data["name"], data["parent"], data["trial"],
                   data["pid"], data["start"])
        span.end = data["end"]
        span.steps = data["steps"]
        return span


class Tracer:
    def __init__(self, worker_dir: Path) -> None:
        self.worker_dir = Path(worker_dir)
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._pid = os.getpid()
        self._driver_pid = self._pid
        self._next_sid = 0
        self._patches: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _open(self, name: str, trial) -> Span:
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: the inherited spans and open
            # stack belong to the driver.
            self._pid = pid
            self.spans = []
            self._stack = []
        parent = self._stack[-1] if self._stack else None
        if trial is None and parent is not None:
            trial = parent.trial
        self._next_sid += 1
        span = Span(
            f"{pid}.{self._next_sid}",
            name,
            parent.sid if parent is not None else None,
            trial,
            pid,
            time.perf_counter(),
        )
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        self.spans.append(span)
        if not self._stack and span.pid != self._driver_pid:
            self._flush_worker()

    def _flush_worker(self) -> None:
        self.worker_dir.mkdir(parents=True, exist_ok=True)
        path = self.worker_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    def collect_workers(self) -> None:
        """Fold the span files of reaped workers into :attr:`spans`."""
        if not self.worker_dir.is_dir():
            return
        for path in sorted(self.worker_dir.glob("spans-*.jsonl")):
            with open(path) as handle:
                for line in handle:
                    self.spans.append(Span.from_json(json.loads(line)))
            path.unlink()

    def _wrap(self, original, name: str):
        tracer = self
        if name == "trial":
            @functools.wraps(original)
            def wrapper(spec, index, *args, **kwargs):
                span = tracer._open(name, index)
                try:
                    return original(spec, index, *args, **kwargs)
                finally:
                    tracer._close(span)
        elif name == "execute":
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = tracer._open(name, None)
                try:
                    result = original(*args, **kwargs)
                    span.steps = result.statements_executed
                    if result.memory.injector is None:
                        span.name = "golden"
                    return result
                finally:
                    tracer._close(span)
        else:
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                span = tracer._open(name, None)
                try:
                    return original(*args, **kwargs)
                finally:
                    tracer._close(span)
        return wrapper

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def install(self) -> None:
        import importlib

        for module_name, attr, name in TARGETS:
            module = importlib.import_module(module_name)
            owner_name, _, leaf = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name)
                original = owner.__dict__[leaf]
                self._set(owner, leaf, self._wrap(original, name))
                continue
            original = getattr(module, leaf)
            wrapper = self._wrap(original, name)
            for loaded in list(sys.modules.values()):
                if not getattr(loaded, "__name__", "").startswith("repro"):
                    continue
                if getattr(loaded, "__dict__", {}).get(leaf) is original:
                    self._set(loaded, leaf, wrapper)

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_json()) + "\n")


def summarize(spans: list[Span]) -> dict[str, dict]:
    """Per span name: ``calls``, total ``s``, ``self_s`` (duration minus
    the time its child spans cover) and ``steps``."""
    children: dict[str, float] = {}
    for span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + (
                span.end - span.start
            )
    out: dict[str, dict] = {}
    for span in spans:
        entry = out.setdefault(
            span.name,
            {"calls": 0, "s": 0.0, "self_s": 0.0, "steps": 0},
        )
        duration = span.end - span.start
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - children.get(span.sid, 0.0)
        entry["steps"] += span.steps
    return out
