"""Per-array protection plans (the Section 5 "overall approach").

Every data name (array or scalar) gets one plan:

* ``STATIC`` — all accesses are affine and outside irregular control;
  every definition's use count is a compile-time piecewise polynomial
  (Section 3).  Defs are checksummed with their exact count, reads with
  1; live-in values enter the def checksum in a prologue.

* ``ITER_READONLY`` — accessed only by reads inside one ``while`` loop
  (affine or with hoistable data-dependent subscripts) and never
  written there: the per-while-iteration read count is static or
  inspector-computed, the total is ``count × iter`` with ``iter`` known
  only at loop exit, so the def side is settled in the epilogue with
  the auxiliary checksums (Figure 9's ``cols``).

* ``ITER_WRITTEN`` — written in the while body in *steady state*: every
  iteration writes each cell of a fixed region exactly once, and reads
  of those cells follow a fixed per-iteration pattern.  Def counts are
  then known at the def site (``count_A[c] (+ affine reads)``), with
  prologue/epilogue balancing the first/last iteration (Figure 9's
  ``p_new``).

* ``DYNAMIC`` — anything else: Algorithm 3's fully general scheme with
  shadow use counters and ``e_def``/``e_use`` auxiliary checksums
  (Figure 7; the paper's ``moldyn`` case).

The classifier is conservative: any failed applicability check demotes
an array to ``DYNAMIC``, which is always correct.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.ir.accesses import Access, all_statement_accesses, StatementAccesses
from repro.ir.analysis import arrays_written_in
from repro.ir.nodes import Program, WhileLoop
from repro.poly.model import PolyhedralModel


class PlanKind(Enum):
    STATIC = "static"
    ITER_READONLY = "iter_readonly"
    ITER_WRITTEN = "iter_written"
    DYNAMIC = "dynamic"


@dataclass
class ArrayPlan:
    """Protection decision for one data name."""

    name: str
    kind: PlanKind
    reason: str
    is_scalar: bool = False


@dataclass
class AccessSite:
    """One access together with its statement's bundle."""

    bundle: StatementAccesses
    access: Access


@dataclass
class ClassificationResult:
    plans: dict[str, ArrayPlan]
    bundles: list[StatementAccesses]
    while_loop: WhileLoop | None
    """The single instrumentable while loop, when present."""

    def plan(self, name: str) -> ArrayPlan:
        return self.plans[name]

    def kind(self, name: str) -> PlanKind:
        return self.plans[name].kind


def _find_single_while(program: Program) -> tuple[WhileLoop | None, bool]:
    """The program's single top-level while loop, if that shape holds.

    Returns ``(loop, unique)``; ``unique=False`` means zero or several
    (or nested) while loops — several forces everything touched by them
    to DYNAMIC.
    """
    from repro.ir.nodes import walk_statements

    whiles = [s for s in walk_statements(program.body) if isinstance(s, WhileLoop)]
    if not whiles:
        return None, True
    if len(whiles) > 1:
        return None, False
    inner = [
        s
        for s in walk_statements(whiles[0].body)
        if isinstance(s, WhileLoop)
    ]
    if inner:
        return None, False
    return whiles[0], True


def classify_arrays(
    program: Program,
    model: PolyhedralModel,
    enable_iterative: bool = True,
) -> ClassificationResult:
    """Assign a plan to every data name.

    ``enable_iterative=False`` disables the Section 4.2 schemes (used
    by the un-optimized "Resilient" configuration of Figure 10, whose
    irregular parts run on counters).
    """
    bundles = all_statement_accesses(program)
    while_loop, while_ok = _find_single_while(program)
    data_names = [d.name for d in program.arrays] + [d.name for d in program.scalars]
    scalar_names = {d.name for d in program.scalars}

    # Statements whose iteration domain could not be modeled (non-affine
    # loop bounds / guards) force everything they touch to the dynamic
    # scheme: no compile-time or inspector counts exist for them.
    unmodeled_paths = {ctx.path for ctx in model.unanalyzable}
    unmodeled_names: set[str] = set()
    for bundle in bundles:
        if bundle.context.path in unmodeled_paths:
            for access in [bundle.write] + bundle.reads:
                unmodeled_names.add(access.target)

    sites: dict[str, list[AccessSite]] = {name: [] for name in data_names}
    for bundle in bundles:
        for access in [bundle.write] + bundle.reads:
            if access.target in sites:
                sites[access.target].append(AccessSite(bundle, access))

    plans: dict[str, ArrayPlan] = {}
    for name in data_names:
        if name in unmodeled_names:
            plans[name] = ArrayPlan(
                name,
                PlanKind.DYNAMIC,
                "accessed in a statement with a non-affine domain",
                name in scalar_names,
            )
            continue
        plans[name] = _classify_one(
            name,
            sites[name],
            scalar_names,
            while_loop,
            while_ok,
            enable_iterative,
            program,
        )
    return ClassificationResult(
        plans=plans, bundles=bundles, while_loop=while_loop
    )


def _classify_one(
    name: str,
    access_sites: list[AccessSite],
    scalar_names: set[str],
    while_loop: WhileLoop | None,
    while_ok: bool,
    enable_iterative: bool,
    program: Program,
) -> ArrayPlan:
    is_scalar = name in scalar_names
    if not access_sites:
        return ArrayPlan(name, PlanKind.STATIC, "never accessed", is_scalar)
    if not while_ok:
        return ArrayPlan(
            name, PlanKind.DYNAMIC, "multiple/nested while loops", is_scalar
        )

    in_while = [
        s for s in access_sites if s.bundle.context.while_loops
    ]
    outside_while = [
        s for s in access_sites if not s.bundle.context.while_loops
    ]
    irregular_guard = any(
        s.bundle.context.in_irregular_context(set(program.params))
        and not s.bundle.context.while_loops
        for s in access_sites
    )
    if irregular_guard:
        return ArrayPlan(
            name,
            PlanKind.DYNAMIC,
            "accessed under a data-dependent conditional",
            is_scalar,
        )

    if not in_while:
        # Purely affine-context accesses: static iff every access is
        # affine (use counts themselves are checked by the pipeline,
        # which demotes on counting failure).
        if all(s.access.is_affine for s in access_sites):
            return ArrayPlan(
                name, PlanKind.STATIC, "all accesses affine", is_scalar
            )
        return ArrayPlan(
            name,
            PlanKind.DYNAMIC,
            "irregular access outside any while loop",
            is_scalar,
        )

    if not enable_iterative:
        return ArrayPlan(
            name,
            PlanKind.DYNAMIC,
            "iterative optimization disabled",
            is_scalar,
        )

    if is_scalar:
        # Scalars inside the while (accumulators, convergence flags) use
        # the cheap single-counter dynamic scheme.
        return ArrayPlan(
            name,
            PlanKind.DYNAMIC,
            "scalar accessed inside the while loop",
            is_scalar,
        )

    assert while_loop is not None
    if outside_while:
        # Mixed inside/outside accesses: handled dynamically (the
        # steady-state argument needs exclusive in-loop access).
        return ArrayPlan(
            name,
            PlanKind.DYNAMIC,
            "accessed both inside and outside the while loop",
            is_scalar,
        )

    writes = [s for s in in_while if s.access.is_write]
    reads = [s for s in in_while if not s.access.is_write]
    body_written = arrays_written_in(while_loop.body)

    if not writes:
        # Read-only in the loop. Reads must be affine, or irregular with
        # indexing structures that are themselves loop-invariant.
        for site in reads:
            if site.access.is_affine:
                continue
            from repro.ir.nodes import ArrayRef, walk_expressions

            assert isinstance(site.access.ref, ArrayRef)
            for index in site.access.ref.indices:
                for node in walk_expressions(index):
                    if isinstance(node, ArrayRef) and node.array in body_written:
                        return ArrayPlan(
                            name,
                            PlanKind.DYNAMIC,
                            f"indexing array {node.array!r} modified in loop "
                            "(inspector not hoistable)",
                            is_scalar,
                        )
        return ArrayPlan(
            name,
            PlanKind.ITER_READONLY,
            "read-only in the while loop",
            is_scalar,
        )

    # Written in the loop: candidate for the steady-state scheme.
    for site in writes:
        if not site.access.is_affine:
            return ArrayPlan(
                name,
                PlanKind.DYNAMIC,
                "irregular write in the while loop",
                is_scalar,
            )
    for site in reads:
        if not site.access.is_affine:
            from repro.ir.nodes import ArrayRef, walk_expressions

            assert isinstance(site.access.ref, ArrayRef)
            for index in site.access.ref.indices:
                for node in walk_expressions(index):
                    if isinstance(node, ArrayRef) and node.array in body_written:
                        return ArrayPlan(
                            name,
                            PlanKind.DYNAMIC,
                            f"indexing array {node.array!r} modified in loop",
                            is_scalar,
                        )
    return ArrayPlan(
        name,
        PlanKind.ITER_WRITTEN,
        "written once per while iteration (steady-state candidate)",
        is_scalar,
    )
