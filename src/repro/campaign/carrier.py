"""Carrier passes: injected trials that start at their trigger.

Every fault model's injector is inert until one access — the load or
store ordinal :meth:`~repro.runtime.faults.FaultInjector.arms_at`
names — so the run of a trial up to that access *is* the fault-free
golden run.  A plain trial re-executes that prefix, on average half
the program.  A **carrier** executes it once for many trials: one pass
over the golden run whose injector is a :class:`_ForkPoint`, which at
each pending trial's trigger calls ``os.fork()``.  The child attaches
that trial's injector, takes over the access in flight, runs only the
suffix, classifies the run with the spec's own verdict code
(:meth:`~repro.campaign.spec.ProgramCampaignSpec.classify_trial`),
sends the record back over a pipe and ``os._exit``\\ s; the parent
waits for it, streams the record on and carries on.  At the last
pending trigger the carrier needs no fork: it takes that trial over
itself.

The fork point rides the same hooks a trial's injector would.  For
one-shot injectors on a trap-exact kernel it is one-shot too, so the
carrier runs on the inline kernel body and is called only at its load
trap; otherwise it sets ``redirects`` so that it sees every access
before any other hook does, and a child can hand the in-flight access
to the trial's injector whole — including an address redirect.

The gate: a trial forks only if the prefix the carrier executed before
its trigger took longer than a fork plus wait (:func:`fork_cost`,
measured once in this process).  Earlier triggers are cheaper to
re-run; they come back to the caller, which runs them as plain trials.
So does any trial whose injector names no trigger.  At most one child
is alive at a time, so a process running a carrier stays one busy
process.
"""

from __future__ import annotations

import os
import pickle
import statistics
import time

from repro.runtime.faults import FaultInjector
from repro.service.store import TRIAL_PATHS

#: A trigger no access reaches.
_NEVER = 1 << 62

_fork_cost_s: float | None = None


def fork_cost() -> float:
    """Seconds one ``fork()`` plus ``waitpid`` of an idle child takes
    in this process (median of three, measured on first use and
    inherited by forked workers)."""
    global _fork_cost_s
    if _fork_cost_s is None:
        samples = []
        for _ in range(3):
            started = time.perf_counter()
            pid = os.fork()
            if pid == 0:
                os._exit(0)
            os.waitpid(pid, 0)
            samples.append(time.perf_counter() - started)
        _fork_cost_s = statistics.median(samples)
    return _fork_cost_s


class ChildTrialFailed(RuntimeError):
    """A forked trial died without reporting (killed by a signal, or
    its record was lost)."""


class _Trial:
    """A pending trial: its trigger only.  The injector is rebuilt from
    the trial's seed when the carrier reaches it, so a long queue holds
    no RNG state."""

    __slots__ = ("index", "kind", "ordinal")

    def __init__(self, index, kind, ordinal):
        self.index = index
        self.kind = kind
        self.ordinal = ordinal


class _ForkPoint(FaultInjector):
    """The carrier's injector: inert except at pending triggers."""

    def __init__(self, spec, prepared, queue, kind, emit, trap) -> None:
        self.spec = spec
        self.prepared = prepared
        # Pending trials, latest trigger first (popped from the end);
        # all trigger on the same kind of access.
        self.queue = queue
        self.kind = kind
        self.emit = emit
        self.one_shot = trap
        self.redirects = not trap
        self.rest: list[int] = []
        self.current = None
        """``(index, seed, injector)`` of the trial this process became."""
        self.started = time.perf_counter()
        self.waited = 0.0
        self.pipe: int | None = None
        """Write end of the record pipe; set only in a forked child."""
        self._load_at = self._store_at = _NEVER
        self._rearm()

    def _rearm(self) -> None:
        at = self.queue[-1].ordinal if self.queue else _NEVER
        if self.kind == "store":
            self._store_at = at
        else:
            self._load_at = at

    # -- hooks -----------------------------------------------------------
    def arms_at(self):
        return ("load", self._load_at) if self.queue else None

    def redirect_load(self, memory, name, indices):
        if memory.load_count >= self._load_at:
            return self._reach(memory, name, indices, None, "load")
        return None

    def redirect_store(self, memory, name, indices):
        if memory.store_count >= self._store_at:
            return self._reach(memory, name, indices, None, "store")
        return None

    def before_load(self, memory, name, indices, word):
        # In trap mode only the inline body's load trap calls this.
        if self.one_shot:
            return self._reach(memory, name, indices, word, "trap")
        return None

    # -- triggers --------------------------------------------------------
    def _reach(self, memory, name, indices, word, hook):
        ordinal = memory.store_count if hook == "store" else memory.load_count
        while self.queue and self.queue[-1].ordinal <= ordinal:
            trial = self.queue.pop()
            if not self.queue or self._fork(trial):
                return self._take_over(
                    trial, memory, name, indices, word, hook
                )
        self._rearm()
        return None

    def _take_over(self, trial, memory, name, indices, word, hook):
        """Become ``trial``: its injector gets the access in flight and
        every access after it."""
        seed, injector = self.spec.trial_injector(trial.index, self.prepared)
        self.current = (trial.index, seed, injector)
        # The memory method in flight holds this fork point in a local
        # and calls its remaining hooks on it.
        self.before_load = injector.before_load
        self.after_store = injector.after_store
        self.arms_at = injector.arms_at
        if hook == "trap":
            return injector.before_load(memory, name, indices, word)
        memory.injector = injector
        if not getattr(injector, "redirects", False):
            return None
        if hook == "load":
            return injector.redirect_load(memory, name, indices)
        return injector.redirect_store(memory, name, indices)

    def _fork(self, trial) -> bool:
        """Run ``trial``'s suffix in a child; True in the child.  A
        trial below the gate is left for the caller instead."""
        now = time.perf_counter()
        prefix = now - self.started - self.waited
        cost = fork_cost()
        # Measuring the fork (first use only) is not carrier work.
        self.waited += time.perf_counter() - now
        if prefix <= cost:
            self.rest.append(trial.index)
            return False
        now = time.perf_counter()
        read_fd, write_fd = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read_fd)
            self.pipe = write_fd
            self.started = time.perf_counter()
            self.waited = 0.0
            return True
        os.close(write_fd)
        try:
            with os.fdopen(read_fd, "rb") as pipe:
                payload = pipe.read()
        finally:
            _, status = os.waitpid(pid, 0)
        self.emit(_decode(payload, status, trial.index))
        TRIAL_PATHS["forked"] += 1
        self.waited += time.perf_counter() - now
        return False

    # -- the forked child's exit -----------------------------------------
    def finish_child(self, result, error) -> None:
        """Send the child's record (or its trial's exception) to the
        parent and exit without running any inherited cleanup: the
        parent's buffered log handle and worker pipe stay untouched."""
        try:
            try:
                if error is not None:
                    raise error
                message = ("record", self.classify(result))
            except BaseException as failure:  # noqa: BLE001 - re-raised
                message = ("error", failure)  # by the parent
            try:
                payload = pickle.dumps(message)
            except Exception:  # noqa: BLE001 - unpicklable exception
                failure = message[1]
                payload = pickle.dumps(
                    (
                        "error",
                        RuntimeError(f"{type(failure).__name__}: {failure}"),
                    )
                )
            with os.fdopen(self.pipe, "wb") as pipe:
                pipe.write(payload)
        finally:
            os._exit(0)

    def classify(self, result):
        index, seed, injector = self.current
        return self.spec.classify_trial(
            index,
            seed,
            self.started + self.waited,
            injector,
            result,
            self.prepared,
        )


def _decode(payload: bytes, status: int, index: int):
    code = os.waitstatus_to_exitcode(status)
    if code < 0 or not payload:
        raise ChildTrialFailed(
            f"trial {index}: forked child exited with status {code} "
            "without a record"
        )
    kind, value = pickle.loads(payload)
    if kind == "error":
        raise value
    return value


def run_carrier(spec, prepared, indices, emit) -> list[int]:
    """Run trials ``indices`` off one carrier pass, emitting each record
    as it finishes; returns the indices left for plain trials (no
    trigger, or one below the gate), in index order."""
    trials = []
    rest = []
    one_shot = True
    for index in indices:
        _, injector = spec.trial_injector(index, prepared)
        at = injector.arms_at()
        if at is None:
            rest.append(index)
        else:
            trials.append(_Trial(index, *at))
            one_shot = one_shot and injector.one_shot
    kinds = {trial.kind for trial in trials}
    if len(kinds) != 1:
        return sorted(indices)
    trials.sort(key=lambda trial: (trial.ordinal, trial.index), reverse=True)
    kernel = prepared.kernel
    trap = kernel is not None and kernel.trap_exact and one_shot
    carrier = _ForkPoint(spec, prepared, trials, kinds.pop(), emit, trap)
    TRIAL_PATHS["carriers"] += 1
    try:
        result = spec.execute_injected(prepared, carrier)
    except BaseException as error:
        if carrier.pipe is not None:
            carrier.finish_child(None, error)
        raise
    if carrier.pipe is not None:
        carrier.finish_child(result, None)
    if carrier.current is not None:
        emit(carrier.classify(result))
    rest.extend(carrier.rest)
    rest.extend(trial.index for trial in carrier.queue)
    return sorted(rest)
