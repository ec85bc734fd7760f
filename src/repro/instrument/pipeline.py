"""End-to-end checksum instrumentation (the paper's compiler pass).

:func:`instrument_program` takes a mini-language program and returns an
equivalent *resilient* program (Algorithm 3):

1. read the program's shared polyhedral analysis
   (:func:`repro.poly.analysis.program_analysis`: model, exact flow
   dependences, Algorithm 1 use counts and live-in counts for the
   affine fragment, computed once however many configs follow);
2. classify every array/scalar into a protection plan
   (:mod:`repro.instrument.classify`);
3. attach per-statement checksum instrumentation: use contributions for
   reads, def contributions with static / inspector-provided / dynamic
   counts for writes, shadow-counter increments and pre-overwrite
   adjustments where counts are dynamic;
4. generate inspectors (hoisted when legal), the live-in prologue, the
   adjustment epilogue and the final verifier;
5. optionally run Algorithm 2 index-set splitting to remove the
   conditionals introduced by varying use counts.

Options mirror the paper's evaluated configurations:

* ``InstrumentationOptions()`` — the plain "Resilient" build;
* ``InstrumentationOptions(index_set_splitting=True,
  hoist_inspectors=True)`` — "Resilient-Optimized" (Figure 10);
* hardware estimation (Figure 11) is a *cost-model* mode, not a
  different instrumentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.isl.counting import CountingError
from repro.instrument.affine import live_in_prologue, static_use_count_expr
from repro.instrument.classify import (
    ArrayPlan,
    PlanKind,
    classify_arrays,
)
from repro.instrument.general import (
    counter_ref_for,
    dynamic_epilogue,
    dynamic_prologue,
    shadow_declarations,
)
from repro.instrument.inspector import (
    ITER_COUNTER,
    IterativeArrayInfo,
    IterativeSchemeError,
    analyze_iterative_array,
    body_model,
    build_inspectors,
    inspector_count_decl,
    iter_counter_decl,
    iterative_epilogue,
    iterative_prologue,
    written_def_count_expr,
)
from repro.instrument.splitting import split_index_sets
from repro.ir.accesses import data_reads_of, program_data_names
from repro.ir.nodes import (
    Assign,
    ChecksumAssert,
    Const,
    DefContribution,
    If,
    Instrumentation,
    Loop,
    PreOverwriteAdjust,
    Program,
    Stmt,
    UseContribution,
    WhileLoop,
)
from repro.poly.analysis import program_analysis


@dataclass
class InstrumentationOptions:
    """Configuration of the instrumentation pass."""

    index_set_splitting: bool = False
    """Apply Algorithm 2 after instrumentation (Section 3.3)."""
    hoist_inspectors: bool = True
    """Run inspectors once before the while loop when legal
    (Section 4.2); when False they re-run every iteration."""
    enable_iterative: bool = True
    """Allow the Section 4.2 iterative schemes at all; when False every
    irregular array falls back to dynamic counters."""
    verify: bool = True
    """Append the checksum verifier (Algorithm 3, line 24)."""
    localize: bool = False
    """Per-array checksum groups: a verifier mismatch names the
    corrupted array (multiple-checksums extension; in-memory programs
    only — the qualified names do not round-trip through the text
    syntax)."""


@dataclass
class InstrumentationReport:
    """What the pass decided — for docs, tests and the benchmark tables."""

    plans: dict[str, ArrayPlan]
    static_counts: dict[str, str] = field(default_factory=dict)
    """Statement label -> rendered use-count expression."""
    demotions: list[str] = field(default_factory=list)
    """Human-readable reasons for plan demotions during instrumentation."""
    inspectors_hoisted: bool = True
    splits: int = 0

    def kind_of(self, name: str) -> PlanKind:
        return self.plans[name].kind


def instrument_program(
    program: Program, options: InstrumentationOptions | None = None
) -> tuple[Program, InstrumentationReport]:
    """Instrument ``program``; returns (resilient program, report)."""
    options = options or InstrumentationOptions()
    # The model, dependences and counts do not read the options: every
    # config of one program shares a single analysis.
    analysis = program_analysis(program)
    model = analysis.model
    classification = classify_arrays(
        program, model, enable_iterative=options.enable_iterative
    )
    plans = dict(classification.plans)
    report = InstrumentationReport(plans=plans)

    # -- Affine analysis for the static fragment ------------------------
    use_counts = analysis.use_counts
    # Demote arrays whose statements' counting failed.
    for info in model.statements:
        if info.in_while:
            continue
        entry = use_counts.get(info)
        if entry is not None and not entry.exact:
            target = info.write.target
            if target in plans and plans[target].kind == PlanKind.STATIC:
                plans[target] = ArrayPlan(
                    target,
                    PlanKind.DYNAMIC,
                    "symbolic use-count computation failed",
                    plans[target].is_scalar,
                )
                report.demotions.append(
                    f"{target}: demoted to dynamic (counting failed for "
                    f"{info.label})"
                )
    # Live-in counts for the static names; a counting failure demotes
    # the affected array to the dynamic scheme (a missing prologue
    # contribution would cause false positives).  Absence from the
    # result means the array is genuinely never read before written.
    live_in: dict[str, object] = {}
    for name, plan in list(plans.items()):
        if plan.kind != PlanKind.STATIC:
            continue
        try:
            counted = analysis.live_in(name)
        except CountingError as exc:
            plans[name] = ArrayPlan(
                name, PlanKind.DYNAMIC, f"live-in counting failed: {exc}",
                plan.is_scalar,
            )
            report.demotions.append(f"{name}: live-in counting failed")
            continue
        if counted is not None:
            live_in[name] = counted

    # -- Iterative analysis ----------------------------------------------
    iterative_infos: dict[str, IterativeArrayInfo] = {}
    if classification.while_loop is not None:
        inner_model = body_model(program, classification.while_loop)
        for name, plan in list(plans.items()):
            if plan.kind not in (PlanKind.ITER_READONLY, PlanKind.ITER_WRITTEN):
                continue
            kind = "readonly" if plan.kind == PlanKind.ITER_READONLY else "written"
            try:
                iterative_infos[name] = analyze_iterative_array(
                    program, inner_model, name, kind
                )
            except IterativeSchemeError as exc:
                plans[name] = ArrayPlan(
                    name, PlanKind.DYNAMIC, str(exc), plan.is_scalar
                )
                report.demotions.append(f"{name}: {exc}")

    dynamic_names = [
        name for name, plan in plans.items() if plan.kind == PlanKind.DYNAMIC
    ]

    # -- Declarations -----------------------------------------------------
    shadow_arrays, shadow_scalars = shadow_declarations(program, dynamic_names)
    for info in iterative_infos.values():
        if info.needs_before_inspector:
            shadow_arrays.append(inspector_count_decl(program, info.name, False))
        if info.needs_after_inspector:
            shadow_arrays.append(inspector_count_decl(program, info.name, True))
    if classification.while_loop is not None:
        shadow_scalars.append(iter_counter_decl())

    # -- Per-statement instrumentation -------------------------------------
    data_names = program_data_names(program)
    info_by_path = {info.path: info for info in model.statements}

    def instrument_assign(stmt: Assign, path: tuple[int, ...]) -> Assign:
        uses: list[UseContribution] = []
        counters: list = []
        reads = data_reads_of(stmt, data_names)
        for ref in reads:
            target = ref.array if hasattr(ref, "array") else ref.name
            if target not in plans:
                continue
            uses.append(UseContribution(ref=ref, checksum="use", count=Const(1)))
            if plans[target].kind == PlanKind.DYNAMIC:
                counters.append(counter_ref_for(ref))
        definition: DefContribution | None = None
        pre_overwrite: PreOverwriteAdjust | None = None
        target = (
            stmt.lhs.array if hasattr(stmt.lhs, "array") else stmt.lhs.name
        )
        plan = plans.get(target)
        if plan is not None:
            if plan.kind == PlanKind.STATIC:
                info = info_by_path.get(path)
                entry = use_counts.get(info) if info is not None else None
                if entry is None or not entry.exact:
                    # Should have been demoted; safety net.
                    definition = None
                else:
                    static_plan = static_use_count_expr(entry, info)
                    if not static_plan.is_zero:
                        definition = DefContribution(
                            count=static_plan.count_expr, checksum="def"
                        )
                        if stmt.label:
                            from repro.ir.printer import expr_to_text

                            report.static_counts[stmt.label] = expr_to_text(
                                static_plan.count_expr
                            )
            elif plan.kind == PlanKind.DYNAMIC:
                definition = DefContribution(count=Const(1), checksum="def", aux=True)
                pre_overwrite = PreOverwriteAdjust(counter=counter_ref_for(stmt.lhs))
            elif plan.kind == PlanKind.ITER_WRITTEN:
                info = iterative_infos[target]
                definition = DefContribution(
                    count=written_def_count_expr(program, info), checksum="def"
                )
            # ITER_READONLY arrays are never written (classifier checked).
        instr = Instrumentation(
            uses=tuple(uses),
            definition=definition,
            counter_increments=tuple(counters),
            pre_overwrite=pre_overwrite,
        )
        if instr.is_empty():
            return stmt
        return stmt.with_instrumentation(instr)

    def rebuild(body: tuple[Stmt, ...], path: tuple[int, ...]) -> tuple[Stmt, ...]:
        result: list[Stmt] = []
        for index, stmt in enumerate(body):
            here = path + (index,)
            if isinstance(stmt, Assign):
                result.append(instrument_assign(stmt, here))
            elif isinstance(stmt, Loop):
                result.append(replace(stmt, body=rebuild(stmt.body, here)))
            elif isinstance(stmt, WhileLoop):
                new_body = rebuild(stmt.body, here)
                if not options.hoist_inspectors and iterative_infos:
                    inspectors = build_inspectors(
                        program, list(iterative_infos.values()), with_reset=True
                    )
                    new_body = tuple(inspectors) + new_body
                result.append(
                    replace(stmt, body=new_body, counter=ITER_COUNTER)
                )
            elif isinstance(stmt, If):
                result.append(
                    replace(
                        stmt,
                        then_body=rebuild(stmt.then_body, here),
                        else_body=rebuild(stmt.else_body, here),
                    )
                )
            else:
                result.append(stmt)
        return tuple(result)

    new_body = rebuild(program.body, ())

    # -- Prologue -----------------------------------------------------------
    prologue: list[Stmt] = []
    if iterative_infos:
        # Inspectors run before anything that consumes their counts.
        prologue.extend(
            build_inspectors(
                program, list(iterative_infos.values()), with_reset=False
            )
        )
        report.inspectors_hoisted = options.hoist_inspectors
    for name, plan in plans.items():
        if plan.kind == PlanKind.STATIC and name in live_in:
            prologue.extend(live_in_prologue(program, name, live_in[name]))
        elif plan.kind == PlanKind.DYNAMIC:
            prologue.extend(dynamic_prologue(program, name))
        elif plan.kind in (PlanKind.ITER_READONLY, PlanKind.ITER_WRITTEN):
            prologue.extend(iterative_prologue(program, iterative_infos[name]))

    # -- Epilogue -------------------------------------------------------------
    epilogue: list[Stmt] = []
    for name, plan in plans.items():
        if plan.kind == PlanKind.DYNAMIC:
            epilogue.extend(dynamic_epilogue(program, name))
        elif plan.kind in (PlanKind.ITER_READONLY, PlanKind.ITER_WRITTEN):
            epilogue.extend(iterative_epilogue(program, iterative_infos[name]))
    if options.verify:
        epilogue.append(ChecksumAssert())

    if options.index_set_splitting:
        # Algorithm 2 targets the computation loops; the O(array-size)
        # prologue/epilogue keep their (cheap) conditionals so the
        # split budget is spent where iterations are O(n^d).
        kernel = Program(
            name=program.name,
            params=program.params,
            arrays=program.arrays + tuple(shadow_arrays),
            scalars=program.scalars + tuple(shadow_scalars),
            body=new_body,
        )
        new_body = split_index_sets(kernel).body

    instrumented = Program(
        name=program.name + "__resilient",
        params=program.params,
        arrays=program.arrays + tuple(shadow_arrays),
        scalars=program.scalars + tuple(shadow_scalars),
        body=tuple(prologue) + tuple(new_body) + tuple(epilogue),
    )
    from repro.instrument.cleanup import cleanup_program

    instrumented = cleanup_program(instrumented)
    if options.localize:
        from repro.instrument.localize import localize_checksums

        instrumented = localize_checksums(instrumented)
    report.plans = plans
    return instrumented, report
