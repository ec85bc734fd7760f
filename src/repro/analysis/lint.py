"""Static well-formedness checks for instrumented IR (``repro lint``).

Instrumentation bugs are quiet: a contribution added to a channel no
verifier checks, a counter pointed at a non-shadow region, a guard
that can never fire — none of them crash, they just silently erode
coverage.  The linter catches the mechanical classes:

* **uncovered-channel** (error) — a checksum channel receives
  contributions but appears in no ``ChecksumAssert`` pair.
* **no-final-assert** (error) — an instrumented program with no
  verifier at all.
* **counter-not-shadow** (error) — counter increments, pre-overwrite
  epilogues, or duplicate stores target a non-shadow region (they
  would corrupt data the checksums protect).
* **undeclared-region** (error) — an access to a region with no
  declaration.
* **channel-imbalance** (error, needs ``params``) — a final-assert
  pair whose per-generation def/use nets do not cancel on the recorded
  timeline of a zero-data run: the verifier would fire on a fault-free
  run.
* **unreachable-guard** (warning) — an ``if`` whose condition is
  provably empty inside its loop nest (ISL emptiness on the affine
  guard polyhedron).
* **vacuous-pair** (info) — an asserted pair no contribution ever
  feeds (always-zero compare; harmless but noteworthy).
* **balance-skipped** (info) — the event stream depends on data (a
  zero-data run proves nothing for other inputs) or the fault-free run
  fails, so the dynamic balance check did not run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    ChecksumAdd,
    ChecksumAssert,
    ChecksumReset,
    CounterIncrement,
    If,
    Loop,
    Program,
    Select,
    UnOp,
    VarRef,
    WhileLoop,
)

SEVERITIES = ("error", "warning", "info")


@dataclass(frozen=True)
class LintIssue:
    severity: str
    code: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity}: [{self.code}] {self.message}"


def has_errors(issues) -> bool:
    return any(issue.severity == "error" for issue in issues)


def _expr_array_refs(expr, out: list) -> None:
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, ArrayRef):
            out.append(node)
            stack.extend(node.indices)
        elif isinstance(node, BinOp):
            stack.extend((node.left, node.right))
        elif isinstance(node, UnOp):
            stack.append(node.operand)
        elif isinstance(node, Call):
            stack.extend(node.args)
        elif isinstance(node, Select):
            stack.extend((node.cond, node.if_true, node.if_false))


class _Linter:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.issues: list[LintIssue] = []
        self.arrays = {decl.name for decl in program.arrays}
        self.scalars = {decl.name for decl in program.scalars}
        self.regions = self.arrays | self.scalars
        self.shadow = {
            decl.name
            for decl in (*program.arrays, *program.scalars)
            if decl.is_shadow
        }
        self.contributed: dict[str, int] = {}
        self.asserted: set[str] = set()
        self.has_asserts = False
        self.has_instrumentation = False

    def report(self, severity: str, code: str, message: str) -> None:
        self.issues.append(LintIssue(severity, code, message))

    # -- structure walk --------------------------------------------------
    def run(self) -> list[LintIssue]:
        self._walk(self.program.body, loops=(), in_while=False)
        self._check_channels()
        return self.issues

    def _walk(self, body, loops, in_while) -> None:
        for stmt in body:
            if isinstance(stmt, Loop):
                self._walk(stmt.body, loops + (stmt,), in_while)
            elif isinstance(stmt, WhileLoop):
                self._walk(stmt.body, loops, in_while=True)
            elif isinstance(stmt, If):
                self._check_guard(stmt, loops, in_while)
                self._walk(stmt.then_body, loops, in_while)
                self._walk(stmt.else_body, loops, in_while)
            elif isinstance(stmt, Assign):
                self._check_assign(stmt)
            elif isinstance(stmt, ChecksumAdd):
                self.has_instrumentation = True
                self._count_channel(stmt.checksum)
                self._check_refs(stmt.value, f"checksum add to {stmt.checksum!r}")
                self._check_refs(stmt.count, "checksum add count")
            elif isinstance(stmt, CounterIncrement):
                self.has_instrumentation = True
                self._check_counter(stmt.counter, "counter increment")
            elif isinstance(stmt, ChecksumAssert):
                self.has_asserts = True
                for pair in stmt.pairs:
                    self.asserted.update(pair)
            elif isinstance(stmt, ChecksumReset):
                self.has_instrumentation = True

    def _count_channel(self, name: str) -> None:
        self.contributed[name] = self.contributed.get(name, 0) + 1

    def _check_refs(self, expr, where: str) -> None:
        refs: list[ArrayRef] = []
        _expr_array_refs(expr, refs)
        for ref in refs:
            if ref.array not in self.regions:
                self.report(
                    "error",
                    "undeclared-region",
                    f"{where} references undeclared region {ref.array!r}",
                )

    def _check_counter(self, ref, where: str) -> None:
        name = ref.array if isinstance(ref, ArrayRef) else ref.name
        if name not in self.regions:
            self.report(
                "error",
                "undeclared-region",
                f"{where} targets undeclared region {name!r}",
            )
        elif name not in self.shadow:
            self.report(
                "error",
                "counter-not-shadow",
                f"{where} targets non-shadow region {name!r}; it would "
                "overwrite protected data",
            )

    def _check_assign(self, stmt: Assign) -> None:
        self._check_refs(stmt.rhs, f"assignment {stmt.label or ''}".strip())
        if isinstance(stmt.lhs, ArrayRef):
            self._check_refs(stmt.lhs, "assignment target")
        instr = stmt.instrumentation
        if not instr:
            return
        self.has_instrumentation = True
        label = stmt.label or "<unlabelled>"
        for use in instr.uses:
            self._count_channel(use.checksum)
            self._check_refs(use.ref, f"{label} use contribution")
            self._check_refs(use.count, f"{label} use count")
        for counter_ref in instr.counter_increments:
            self._check_counter(counter_ref, f"{label} counter increment")
        if instr.pre_overwrite:
            adjust = instr.pre_overwrite
            self._count_channel(adjust.def_checksum)
            self._count_channel(adjust.e_use_checksum)
            self._check_counter(adjust.counter, f"{label} pre-overwrite counter")
        if instr.duplicate_store is not None:
            dup = instr.duplicate_store
            name = dup.array if isinstance(dup, ArrayRef) else dup.name
            if name not in self.regions:
                self.report(
                    "error",
                    "undeclared-region",
                    f"{label} duplicate store targets undeclared "
                    f"region {name!r}",
                )
            elif name not in self.shadow:
                self.report(
                    "error",
                    "counter-not-shadow",
                    f"{label} duplicate store targets non-shadow region "
                    f"{name!r}",
                )
        if instr.definition:
            self._count_channel(instr.definition.checksum)
            if instr.definition.aux:
                self._count_channel(instr.definition.aux_checksum)
            self._check_refs(instr.definition.count, f"{label} def count")

    # -- guard reachability ---------------------------------------------
    def _check_guard(self, stmt: If, loops, in_while: bool) -> None:
        if in_while:
            return  # while trip counts are dynamic; nothing to prove
        from repro.isl.basic_set import BasicSet
        from repro.isl.constraints import Constraint
        from repro.isl.linear import LinExpr
        from repro.isl.space import Space
        from repro.ir.analysis import to_affine
        from repro.poly.model import condition_constraints

        params = set(self.program.params)
        names = set(params)
        constraints = []
        iterators = []
        for loop in loops:
            lower = to_affine(loop.lower, names)
            upper = to_affine(loop.upper, names)
            if lower is None or upper is None:
                return
            names.add(loop.var)
            iterators.append(loop.var)
            var = LinExpr.var(loop.var)
            constraints.append(Constraint.ge(var, lower))
            constraints.append(Constraint.le(var, upper))
        guard = condition_constraints(stmt.cond, names)
        if guard is None:
            return
        space = Space.set_space(
            tuple(iterators), params=tuple(self.program.params)
        )
        domain = BasicSet(space, constraints + guard)
        if domain.is_empty():
            self.report(
                "warning",
                "unreachable-guard",
                f"guard {stmt.cond!r} is unsatisfiable inside its loop "
                "nest; the guarded instrumentation never executes",
            )

    # -- channel coverage -----------------------------------------------
    def _check_channels(self) -> None:
        if not self.has_instrumentation and not self.has_asserts:
            return
        if self.contributed and not self.has_asserts:
            self.report(
                "error",
                "no-final-assert",
                "instrumented program has no ChecksumAssert; nothing "
                "ever verifies the channels",
            )
        for name in sorted(set(self.contributed) - self.asserted):
            self.report(
                "error",
                "uncovered-channel",
                f"channel {name!r} receives {self.contributed[name]} "
                "contribution(s) but no ChecksumAssert checks it",
            )
        for name in sorted(self.asserted - set(self.contributed)):
            self.report(
                "info",
                "vacuous-pair",
                f"asserted channel {name!r} never receives a "
                "contribution (compares zero to zero)",
            )


def lint_program(program: Program, params=None) -> list[LintIssue]:
    """All lint findings for ``program``.

    With ``params`` the recorded timeline of a zero-data run
    additionally verifies the per-generation def/use balance of every
    final-assert pair — the dynamic property that a fault-free run ends
    with every checked channel pair equal.
    """
    linter = _Linter(program)
    issues = linter.run()
    if params is not None and linter.has_asserts:
        issues.extend(_balance_issues(program, params))
    return issues


def _balance_issues(program: Program, params) -> list[LintIssue]:
    from repro.analysis.classify import ProgramClassifier
    from repro.analysis.timeline import (
        TimelineUnsupported,
        build_timeline,
        ir_hazards,
    )

    def skipped(reason) -> list[LintIssue]:
        return [
            LintIssue(
                "info",
                "balance-skipped",
                f"per-generation balance not checked: {reason}",
            )
        ]

    # A zero-data run proves nothing about a stream other data steers.
    if ir_hazards(program)[1]:
        return skipped("event stream depends on data")
    try:
        timeline = build_timeline(program, params)
    except TimelineUnsupported as exc:
        return skipped(exc)
    classifier = ProgramClassifier(timeline)
    issues = []
    valid = set(classifier.valid_pairs)
    for pair in classifier.final_pairs:
        if pair not in valid:
            issues.append(
                LintIssue(
                    "error",
                    "channel-imbalance",
                    f"final-assert pair {pair!r} has a generation whose "
                    "def/use contribution net is nonzero — "
                    "the verifier can fire on a fault-free run",
                )
            )
    if not classifier.final_pairs and timeline.asserts:
        issues.append(
            LintIssue(
                "warning",
                "no-final-assert",
                "asserts exist but none runs after the last load and "
                "store; late corruption escapes verification",
            )
        )
    return issues
