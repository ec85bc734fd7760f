"""Campaign specifications: trials as pure data.

A spec is a picklable dataclass holding everything a trial needs; the
engine ships it to worker processes once and then sends only trial
indices.  Two kinds exist:

* :class:`ChecksumCampaignSpec` — the Table 1 protocol: flip ``bits``
  uniformly chosen bits over an N-word data image and ask whether the
  plain and rotated modulo-add checksums notice.
* :class:`ProgramCampaignSpec` — interpret an (instrumented) program
  under a :class:`~repro.runtime.faults.RandomCellFlipper` and classify
  the outcome against the golden run.

**Seeding model.**  All randomness in trial *i* of a campaign seeded
``s`` comes from ``random.Random(trial_seed(s, i))``, where
:func:`trial_seed` is a SHA-256 derivation (Python's builtin ``hash``
is salted per process and would break cross-process determinism).
Campaign-level randomness — the random data image of a checksum
campaign, the initial arrays of a program campaign — is derived from
``s`` with a distinct stream label via :func:`derive_seed`.  Hence:
the set of trial outcomes depends only on ``(spec, s)``, never on the
worker count, chunking, or completion order; and trial *i* can be
replayed alone without running trials ``0..i-1``.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Mapping

from repro.campaign.golden import golden_run
from repro.campaign.records import (
    BENIGN,
    DETECTED,
    DETECTED_SECOND,
    NO_INJECTION,
    RECOVERED,
    RECOVERY_FAILED,
    SDC,
    SDC_AFTER_RECOVERY,
    UNDETECTED,
    TrialRecord,
)

MASK64 = (1 << 64) - 1
WORD_BITS = 64

_SEED_SPACE = 1 << 63


def derive_seed(campaign_seed: int, *labels: object) -> int:
    """A child seed for a named stream of a campaign.

    Stable across processes and Python versions (SHA-256, no ``hash``).
    """
    payload = ":".join([str(campaign_seed), *[str(label) for label in labels]])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % _SEED_SPACE


def trial_seed(campaign_seed: int, index: int) -> int:
    """The RNG seed of trial ``index`` — the deterministic-sharding core."""
    if index < 0:
        raise ValueError(f"trial index must be >= 0, got {index}")
    return derive_seed(campaign_seed, "trial", index)


def build_initial_values(
    program, params: Mapping[str, int], how: Mapping[str, str], seed: int
):
    """Initial numpy arrays for ``program`` from initializer names.

    ``how`` maps array name to one of ``zeros`` (default), ``rand``
    (uniform [-1,1]), ``randpos`` (uniform [0.5,1.5]), ``randspd``
    (symmetric positive definite), ``arange``.  Raises ``ValueError``
    on unknown initializers — the CLI turns that into a usage error.
    """
    import numpy as np

    from repro.ir.analysis import to_affine

    rng = np.random.default_rng(seed)
    values: dict[str, Any] = {}
    for decl in program.arrays:
        shape = tuple(
            int(to_affine(d, set(program.params)).evaluate(params))
            for d in decl.dims
        )
        kind = how.get(decl.name, "zeros")
        if kind == "zeros":
            array = np.zeros(shape)
        elif kind == "rand":
            array = rng.uniform(-1.0, 1.0, size=shape)
        elif kind == "randpos":
            array = rng.uniform(0.5, 1.5, size=shape)
        elif kind == "arange":
            array = np.arange(int(np.prod(shape)), dtype=float).reshape(shape)
        elif kind == "randspd":
            if len(shape) != 2 or shape[0] != shape[1]:
                raise ValueError(
                    f"randspd needs a square 2-D array: {decl.name}"
                )
            m = rng.standard_normal(shape)
            array = m @ m.T + shape[0] * np.eye(shape[0])
        else:
            raise ValueError(
                f"unknown initializer {kind!r} for {decl.name}"
            )
        if decl.elem_type == "i64":
            array = array.astype(np.int64)
        values[decl.name] = array
    return values


def _rotl(value: int, amount: int) -> int:
    amount %= WORD_BITS
    value &= MASK64
    if amount == 0:
        return value
    return ((value << amount) | (value >> (WORD_BITS - amount))) & MASK64


def _rotation_for(index: int, base_address: int) -> int:
    address = base_address + index * 8
    return (address >> 3) & 0x1F


class _DataModel:
    """Word values without materializing huge all-0/all-1 arrays."""

    def __init__(self, pattern: str, size: int, data_seed: int) -> None:
        if pattern not in ("all0", "all1", "random"):
            raise ValueError(f"unknown data pattern {pattern!r}")
        self.pattern = pattern
        self.size = size
        if pattern == "random":
            rng = random.Random(data_seed)
            self.words: list[int] | None = [
                rng.getrandbits(64) for _ in range(size)
            ]
        else:
            self.words = None

    def word(self, index: int) -> int:
        if self.words is not None:
            return self.words[index]
        return 0 if self.pattern == "all0" else MASK64


@dataclass(frozen=True)
class ChecksumCampaignSpec:
    """Table 1 protocol as a campaign (one table cell).

    Per trial: draw ``bits`` distinct positions over ``size * 64``
    bits from the trial RNG, apply the flips as per-word XOR masks, and
    update both checksums *incrementally* (mathematically identical to
    recomputation; what makes the 10^6-word column affordable).
    """

    size: int
    bits: int
    pattern: str
    trials: int
    seed: int
    base_address: int = 0x1000

    kind = "checksum"

    def to_dict(self) -> dict:
        return {"kind": self.kind, **asdict(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ChecksumCampaignSpec":
        fields = {k: v for k, v in data.items() if k != "kind"}
        return cls(**fields)

    def prepare(self) -> _DataModel:
        data_seed = derive_seed(self.seed, "data", self.pattern, self.size)
        return golden_run(
            ("checksum-data", self.pattern, self.size, data_seed),
            lambda: _DataModel(self.pattern, self.size, data_seed),
        )

    def run_trial(self, index: int, prepared: _DataModel) -> TrialRecord:
        start = time.perf_counter()
        seed = trial_seed(self.seed, index)
        rng = random.Random(seed)
        positions = rng.sample(range(self.size * WORD_BITS), self.bits)
        masks: dict[int, int] = {}
        for position in positions:
            word_index, bit = divmod(position, WORD_BITS)
            masks[word_index] = masks.get(word_index, 0) ^ (1 << bit)
        delta_plain = 0
        delta_rot = 0
        for word_index, mask in masks.items():
            old = prepared.word(word_index)
            new = old ^ mask
            delta_plain = (delta_plain + new - old) & MASK64
            rotation = _rotation_for(word_index, self.base_address)
            delta_rot = (
                delta_rot + _rotl(new, rotation) - _rotl(old, rotation)
            ) & MASK64
        if delta_plain != 0:
            verdict = DETECTED
        elif delta_rot != 0:
            verdict = DETECTED_SECOND
        else:
            verdict = UNDETECTED
        return TrialRecord(
            index=index,
            seed=seed,
            verdict=verdict,
            injection={"positions": positions},
            elapsed=time.perf_counter() - start,
        )


@dataclass
class _PreparedProgram:
    """Worker-local context of a program campaign (built once)."""

    program: Any
    params: dict[str, int]
    values: dict[str, Any]
    total_loads: int
    golden_finals: dict[str, Any]
    targets: tuple[str, ...]
    total_stores: int = 1
    kernel: Any = None
    """Compiled kernel shared by every trial of this worker; ``None``
    when the spec asks for the interpreter or compilation fell back."""
    plan: Any = None
    """Recovery plan (``repro.recovery.RecoveryPlan``) shared by every
    trial; ``None`` unless the spec has ``recover=True``."""


@dataclass(frozen=True)
class ProgramCampaignSpec:
    """Fault injection into an interpreted (instrumented) program.

    The program comes either from ``program_text`` (mini-language
    source plus ``init`` initializer names, as on the CLI) or from
    ``benchmark``/``scale`` (a Table 2 benchmark with its canonical
    initial values).  Exactly one of the two must be set.

    ``fault_model`` picks what each trial injects (see
    ``docs/FAULT_MODELS.md``): ``random_cell`` (the paper's value
    flips, default), ``addrgen_load`` / ``addrgen_store``
    (PRESAGE-style address-generation faults), ``stuck_bit``
    (ITHICA-style intermittent stuck bit), or ``burst`` (multi-cell
    corruption).  Every injected trial additionally records the
    RepTFD-style replay-comparison baseline verdict in its ``extra``
    (``replay_detected``: does the final state differ from the golden
    re-execution, struck cells *not* masked), so checksum coverage can
    be benchmarked against output-diffing per model.
    """

    trials: int
    seed: int
    program_text: str | None = None
    benchmark: str | None = None
    scale: str = "small"
    params: tuple[tuple[str, int], ...] = ()
    init: tuple[tuple[str, str], ...] = ()
    init_seed: int = 0
    bits: int = 2
    target_arrays: tuple[str, ...] | None = None
    instrument: bool = True
    split: bool = True
    hoist: bool = True
    channels: int = 1
    backend: str = "compiled"
    recover: bool = False
    """Run trials through the detect–localize–recover controller
    (:mod:`repro.recovery`): a mismatch triggers checkpoint rollback
    and replay instead of ending the run, and the verdicts grow the
    ``recovered`` / ``recovery_failed`` / ``sdc_after_recovery``
    taxonomy."""
    recover_retries: int = 3
    """Replays allowed per detection episode (the default covers the
    controller's full escalation ladder)."""
    fault_model: str = "random_cell"
    """What each trial injects — one of
    :data:`repro.runtime.faults.FAULT_MODELS`."""
    stuck_window: int = 0
    """``stuck_bit`` model: load events the defect stays active.  0
    picks ``max(16, total_loads // 16)`` — a fixed fraction of the run
    at any scale."""
    burst_cells: int = 4
    """``burst`` model: consecutive cells struck per injection."""
    prune: str = "none"
    """``static`` skips trials the static oracle
    (:mod:`repro.analysis.oracle`) proves ``DETECTED`` or ``MASKED``,
    recording a predicted verdict (``extra.predicted = True``) instead
    of executing them — measured work concentrates on the
    vulnerable/unknown frontier.  ``none`` (default) runs everything."""

    kind = "program"

    def __post_init__(self) -> None:
        if (self.program_text is None) == (self.benchmark is None):
            raise ValueError(
                "exactly one of program_text / benchmark must be set"
            )
        if self.recover and not self.instrument:
            raise ValueError(
                "recover=True needs instrumentation (the recovery plan "
                "instruments the program itself)"
            )
        from repro.runtime.compile import BACKENDS

        if self.backend not in BACKENDS:
            raise ValueError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}"
            )
        from repro.runtime.faults import FAULT_MODELS

        if self.fault_model not in FAULT_MODELS:
            raise ValueError(
                f"unknown fault model {self.fault_model!r}; expected one "
                f"of {', '.join(FAULT_MODELS)}"
            )
        if self.recover_retries < 0:
            raise ValueError(
                f"recover_retries must be >= 0, got {self.recover_retries}"
            )
        if self.stuck_window < 0:
            raise ValueError(
                f"stuck_window must be >= 0, got {self.stuck_window}"
            )
        if self.burst_cells < 1:
            raise ValueError(
                f"burst_cells must be >= 1, got {self.burst_cells}"
            )
        if self.prune not in ("none", "static"):
            raise ValueError(
                f"prune must be 'none' or 'static', got {self.prune!r}"
            )
        if self.prune == "static" and self.recover:
            raise ValueError(
                "prune='static' is not available with recover=True "
                "(recovery trials re-execute; the static oracle does "
                "not model them)"
            )
        # Normalize dict-style inputs into hashable tuples.
        if isinstance(self.params, dict):
            object.__setattr__(self, "params", tuple(sorted(self.params.items())))
        if isinstance(self.init, dict):
            object.__setattr__(self, "init", tuple(sorted(self.init.items())))
        if self.target_arrays is not None and not isinstance(
            self.target_arrays, tuple
        ):
            object.__setattr__(self, "target_arrays", tuple(self.target_arrays))

    def to_dict(self) -> dict:
        data = asdict(self)
        data["kind"] = self.kind
        data["params"] = [list(item) for item in self.params]
        data["init"] = [list(item) for item in self.init]
        if self.target_arrays is not None:
            data["target_arrays"] = list(self.target_arrays)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ProgramCampaignSpec":
        # Older log headers carry execution knobs that never changed a
        # record: ``batch`` (trials per batched-execution group),
        # ``opt_level`` (compiled-kernel optimization level) and
        # ``verify_vector`` (a vector-backend self-check).  The vector
        # backend ran only injector-free legs on top of the compiled
        # kernel, so its campaigns are compiled campaigns.
        fields = {
            k: v
            for k, v in data.items()
            if k not in ("kind", "batch", "opt_level", "verify_vector")
        }
        if fields.get("backend") == "vector":
            fields["backend"] = "compiled"
        fields["params"] = tuple(
            (name, int(value)) for name, value in fields.get("params", ())
        )
        fields["init"] = tuple(
            (name, str(value)) for name, value in fields.get("init", ())
        )
        if fields.get("target_arrays") is not None:
            fields["target_arrays"] = tuple(fields["target_arrays"])
        return cls(**fields)

    def digest(self) -> str:
        """Stable identity of the full spec."""
        payload = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def golden_digest(self) -> str:
        """Identity of everything the *fault-free* golden run depends on.

        Fields that only shape the injected trials — trial count, seed,
        fault model and its knobs — are excluded, so campaigns that
        differ only in those (a fault-model sweep, a differential
        matrix) share one golden run per (program, build, backend)
        instead of re-executing it per spec."""
        data = self.to_dict()
        for key in (
            "trials",
            "seed",
            "bits",
            "fault_model",
            "stuck_window",
            "burst_cells",
            "recover_retries",
            # Pruning only decides which trials execute, never what the
            # golden run looks like.
            "prune",
        ):
            data.pop(key, None)
        payload = json.dumps(data, sort_keys=True)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _resolve(self):
        """(program, params, values) before instrumentation."""
        if self.benchmark is not None:
            from repro.programs import ALL_BENCHMARKS

            module = ALL_BENCHMARKS[self.benchmark]
            program = module.program()
            params = dict(
                module.SMALL_PARAMS
                if self.scale == "small"
                else module.DEFAULT_PARAMS
            )
            params.update(dict(self.params))
            values = module.initial_values(params, seed=self.init_seed)
        else:
            from repro.ir.analysis import validate_program
            from repro.ir.parser import parse_program

            program = parse_program(self.program_text)
            validate_program(program)
            params = dict(self.params)
            values = build_initial_values(
                program, params, dict(self.init), self.init_seed
            )
        return program, params, values

    def prepare(self) -> _PreparedProgram:
        return golden_run(
            ("program-campaign", self.golden_digest()), self._prepare
        )

    def _prepare(self) -> _PreparedProgram:
        from repro.instrument.cache import instrument_cached
        from repro.instrument.pipeline import InstrumentationOptions
        from repro.runtime.compile import CompileError, compile_program
        from repro.runtime.interpreter import run_program

        program, params, values = self._resolve()
        original_arrays = tuple(decl.name for decl in program.arrays)
        if self.recover:
            return self._prepare_recovery(
                program, params, values, original_arrays
            )
        if self.instrument:
            # Content-addressed: repeat sweeps over the same program and
            # options skip the instrumenter entirely (and across
            # processes too when the artifact store has a directory).
            program, _ = instrument_cached(
                program,
                InstrumentationOptions(
                    index_set_splitting=self.split,
                    hoist_inspectors=self.hoist,
                ),
            )
        # Compile once per worker; every trial (and the golden run)
        # reuses the kernel.  Unsupported constructs fall back to the
        # interpreter — the two backends are bit-identical, so the
        # choice never changes a verdict.
        kernel = None
        if self.backend == "compiled":
            try:
                kernel = compile_program(program)
            except CompileError:
                kernel = None
        if kernel is not None:
            clean = kernel.execute(
                params,
                initial_values=_copy_values(values),
                channels=self.channels,
            )
        else:
            clean = run_program(
                program,
                params,
                initial_values=_copy_values(values),
                channels=self.channels,
            )
        if clean.mismatches:
            raise RuntimeError(
                f"fault-free run flagged an error: {clean.mismatches}"
            )
        golden_finals = {
            name: clean.memory.to_array(name) for name in original_arrays
        }
        targets = self.target_arrays or original_arrays
        return _PreparedProgram(
            program=program,
            params=params,
            values=values,
            total_loads=max(1, clean.memory.load_count),
            total_stores=max(1, clean.memory.store_count),
            golden_finals=golden_finals,
            targets=tuple(targets),
            kernel=kernel,
        )

    def _prepare_recovery(
        self, program, params, values, original_arrays
    ) -> _PreparedProgram:
        from repro.instrument.pipeline import InstrumentationOptions
        from repro.recovery import build_recovery_plan, run_plan

        plan = build_recovery_plan(
            program,
            options=InstrumentationOptions(
                index_set_splitting=self.split,
                hoist_inspectors=self.hoist,
            ),
        )
        clean = run_plan(
            plan,
            params,
            initial_values=_copy_values(values),
            channels=self.channels,
            backend=self.backend,
        )
        if clean.detected:
            raise RuntimeError(
                f"fault-free recovery run flagged an error: "
                f"{clean.mismatches}"
            )
        golden_finals = {
            name: clean.memory.to_array(name) for name in original_arrays
        }
        targets = self.target_arrays or original_arrays
        return _PreparedProgram(
            program=program,
            params=params,
            values=values,
            total_loads=max(1, clean.memory.load_count),
            total_stores=max(1, clean.memory.store_count),
            golden_finals=golden_finals,
            targets=tuple(targets),
            plan=plan,
        )

    def _make_trial_injector(self, seed: int, prepared: _PreparedProgram):
        from repro.runtime.faults import injector_spec_for_model, make_injector

        return make_injector(
            injector_spec_for_model(
                self.fault_model,
                seed=seed,
                expected_loads=prepared.total_loads,
                expected_stores=prepared.total_stores,
                num_bits=self.bits,
                target_arrays=prepared.targets,
                window=self.stuck_window,
                burst_cells=self.burst_cells,
            )
        )

    def _replay_diverges(self, memory, prepared: _PreparedProgram) -> bool:
        """The RepTFD-style replay-comparison baseline: does the final
        state differ *anywhere* from the golden re-execution?  Unlike
        SDC classification nothing is masked — output diffing sees the
        struck cells too."""
        import numpy as np

        return any(
            not np.array_equal(
                memory.to_array(name), prepared.golden_finals[name]
            )
            for name in prepared.golden_finals
        )

    def _propagated(self, memory, record, prepared: _PreparedProgram) -> bool:
        """Whether corruption reached cells the fault did not directly
        strike.  The struck cells (``record.masked_cells()``) are
        zeroed on both sides first — a flip that sits unread in a dead
        cell until the end is benign, not SDC.  Address-generation
        *loads* mask nothing (no cell at rest was corrupted), so any
        divergence counts."""
        import numpy as np

        masked: dict[str, list[tuple[int, ...]]] = {}
        for cell in record.masked_cells():
            masked.setdefault(record.array, []).append(cell)
        for name in prepared.golden_finals:
            final = memory.to_array(name)
            gold = prepared.golden_finals[name]
            cells = masked.get(name)
            if cells:
                final = final.copy()
                gold = gold.copy()
                for cell in cells:
                    final[tuple(cell)] = 0
                    gold[tuple(cell)] = 0
            if not np.array_equal(final, gold):
                return True
        return False

    def trial_injector(self, index: int, prepared: _PreparedProgram):
        """``(seed, injector)`` of trial ``index``: everything random
        about a trial is drawn here, from its own seed."""
        seed = trial_seed(self.seed, index)
        return seed, self._make_trial_injector(seed, prepared)

    def run_trial(self, index: int, prepared: _PreparedProgram) -> TrialRecord:
        start = time.perf_counter()
        seed, injector = self.trial_injector(index, prepared)
        if prepared.plan is not None:
            return self._run_recovery_trial(
                index, seed, start, prepared, injector
            )
        result = self.execute_injected(prepared, injector)
        return self.classify_trial(
            index, seed, start, injector, result, prepared
        )

    def execute_injected(self, prepared: _PreparedProgram, injector):
        """One run of the (non-recovery) program with ``injector``
        attached: a trial's own, or the fork point of a campaign carrier
        (:mod:`repro.campaign.carrier`), which must see the very run a
        trial would."""
        from repro.runtime.interpreter import run_program

        if prepared.kernel is not None:
            return prepared.kernel.execute(
                prepared.params,
                initial_values=_copy_values(prepared.values),
                injector=injector,
                channels=self.channels,
                wild_reads=True,
            )
        return run_program(
            prepared.program,
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=injector,
            channels=self.channels,
            wild_reads=True,
        )

    def classify_trial(
        self, index, seed, start, injector, result, prepared
    ) -> TrialRecord:
        """The record of a finished run: verdict against the golden run,
        with ``elapsed`` measured from ``start``."""
        record = injector.record
        extra = {"fault_model": self.fault_model}
        if record is None:
            verdict = NO_INJECTION
            injection = None
        else:
            injection = record.to_dict()
            extra["replay_detected"] = self._replay_diverges(
                result.memory, prepared
            )
            extra["detection_step"] = result.first_detection_step
            extra["total_steps"] = result.statements_executed
            if result.error_detected:
                verdict = DETECTED
            else:
                propagated = self._propagated(
                    result.memory, record, prepared
                )
                verdict = SDC if propagated else BENIGN
        return TrialRecord(
            index=index,
            seed=seed,
            verdict=verdict,
            injection=injection,
            elapsed=time.perf_counter() - start,
            extra=extra,
        )

    def _run_recovery_trial(
        self, index, seed, start, prepared: _PreparedProgram, injector
    ) -> TrialRecord:
        from repro.recovery import RecoveryPolicy, run_plan

        outcome = run_plan(
            prepared.plan,
            prepared.params,
            initial_values=_copy_values(prepared.values),
            injector=injector,
            channels=self.channels,
            wild_reads=True,
            backend=self.backend,
            policy=RecoveryPolicy(max_retries=self.recover_retries),
        )
        record = injector.record
        extra = {
            "fault_model": self.fault_model,
            "mode": prepared.plan.mode,
            "epochs": outcome.epochs,
            "replays": outcome.replays,
            "targeted_restores": outcome.targeted_restores,
            "full_restores": outcome.full_restores,
            "implicated": list(outcome.implicated),
        }
        if record is None:
            verdict = NO_INJECTION
            injection = None
            return TrialRecord(
                index=index,
                seed=seed,
                verdict=verdict,
                injection=injection,
                elapsed=time.perf_counter() - start,
                extra=extra,
            )
        injection = record.to_dict()
        extra["replay_detected"] = self._replay_diverges(
            outcome.memory, prepared
        )
        if outcome.failed:
            verdict = RECOVERY_FAILED
        elif outcome.detected:
            # Recovery claims success: hold it to the strictest bar —
            # EVERY final value equals the golden run, the struck cells
            # included (the rollback must have restored them).  A
            # still-divergent state is reported as sdc_after_recovery,
            # never a silent wrong-output "recovered".
            verdict = (
                SDC_AFTER_RECOVERY
                if extra["replay_detected"]
                else RECOVERED
            )
        else:
            # No verifier fired: classify exactly like a plain campaign
            # (struck cells masked — an unread flip in a dead cell is
            # benign, not SDC).
            propagated = self._propagated(outcome.memory, record, prepared)
            verdict = SDC if propagated else BENIGN
        return TrialRecord(
            index=index,
            seed=seed,
            verdict=verdict,
            injection=injection,
            elapsed=time.perf_counter() - start,
            extra=extra,
        )


def _copy_values(values: Mapping[str, Any]) -> dict[str, Any]:
    return {
        k: (v.copy() if hasattr(v, "copy") else v) for k, v in values.items()
    }


SPEC_KINDS: dict[str, type] = {
    ChecksumCampaignSpec.kind: ChecksumCampaignSpec,
    ProgramCampaignSpec.kind: ProgramCampaignSpec,
}

CampaignSpec = ChecksumCampaignSpec | ProgramCampaignSpec


def spec_from_dict(data: dict) -> "CampaignSpec":
    """Reconstruct a spec from its :meth:`to_dict` form (log headers)."""
    try:
        cls = SPEC_KINDS[data["kind"]]
    except KeyError:
        raise ValueError(f"unknown campaign kind {data.get('kind')!r}") from None
    try:
        return cls.from_dict(data)
    except TypeError as error:  # unknown or missing fields
        raise ValueError(
            f"unreadable {data['kind']} campaign spec: {error}"
        ) from None
