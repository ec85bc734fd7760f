"""Algorithm 2: index-set splitting.

The affine instrumenter renders a varying use count as a ``Select``
conditional (Figure 5's branching structure).  This pass removes those
conditionals exactly as the paper's Algorithm 2 does — by *splitting
iteration spaces* so that within each split loop the condition has one
truth value (Figure 6's peeled loop):

1. Find the outermost loop ``for v = L .. U`` containing a condition
   ``e(v, outer, params) >= 0`` (or ``== 0``) with ``v``-coefficient ±1
   and no inner-loop variables.  These conditions are precisely the
   index sets δ of Algorithm 2, derived from the use-count pieces.
2. Solve for the threshold ``v >= t`` and emit consecutive sub-loops
   ``[L, min(U, t-1)]`` and ``[max(L, t), U]`` (three for an equality),
   clamping with ``min``/``max`` so empty pieces simply do not execute.
3. In each sub-loop, replace the condition by its now-known truth value
   and constant-fold; statement labels gain a ``_p<k>`` suffix to stay
   unique.
4. Repeat to a fixpoint (each split eliminates one conditional from
   each copy, so the process terminates).

The pass runs *after* instrumentation and sees conditionals wherever
they live: statement expressions, checksum count expressions and
instrumentation annotations alike (so the live-in prologue loops are
split, too).
"""

from __future__ import annotations

from dataclasses import replace

from repro.isl.linear import LinExpr
from repro.ir.analysis import to_affine
from repro.ir.nodes import (
    ArrayRef,
    Assign,
    BinOp,
    Call,
    ChecksumAdd,
    Const,
    CounterIncrement,
    DefContribution,
    Expr,
    If,
    Instrumentation,
    Loop,
    Program,
    Select,
    Stmt,
    UnOp,
    UseContribution,
    VarRef,
    WhileLoop,
)

MAX_SPLITS = 200


def split_index_sets(program: Program, max_splits: int = MAX_SPLITS) -> Program:
    """Split loops until no resolvable ``Select`` condition remains."""
    body = list(program.body)
    splitter = _Splitter(set(program.params), max_splits)
    new_body = splitter.process_body(body, outer_vars=())
    return program.with_body(tuple(new_body))


class _Splitter:
    def __init__(self, params: set[str], max_splits: int) -> None:
        self.params = params
        self.max_splits = max_splits
        self.splits_done = 0
        self.label_counter = 0

    # -- driver ---------------------------------------------------------
    def process_body(
        self, body: list[Stmt], outer_vars: tuple[str, ...]
    ) -> list[Stmt]:
        result: list[Stmt] = []
        for stmt in body:
            result.extend(self.process_statement(stmt, outer_vars))
        return result

    def process_statement(
        self, stmt: Stmt, outer_vars: tuple[str, ...]
    ) -> list[Stmt]:
        if isinstance(stmt, Loop):
            return self.process_loop(stmt, outer_vars)
        if isinstance(stmt, WhileLoop):
            new_body = self.process_body(list(stmt.body), outer_vars)
            return [replace(stmt, body=tuple(new_body))]
        if isinstance(stmt, If):
            then_body = self.process_body(list(stmt.then_body), outer_vars)
            else_body = self.process_body(list(stmt.else_body), outer_vars)
            return [
                replace(stmt, then_body=tuple(then_body), else_body=tuple(else_body))
            ]
        return [stmt]

    def process_loop(
        self, loop: Loop, outer_vars: tuple[str, ...]
    ) -> list[Stmt]:
        condition = self.find_condition(loop, outer_vars)
        if condition is None or self.splits_done >= self.max_splits:
            # No split (or budget exhausted: keep the conditional —
            # semantically identical, just not optimized further).
            new_body = self.process_body(
                list(loop.body), outer_vars + (loop.var,)
            )
            return [replace(loop, body=tuple(new_body))]
        self.splits_done += 1
        pieces = self.split_ranges(loop, condition)
        result: list[Stmt] = []
        for lower, upper, truth in pieces:
            resolved_body = tuple(
                _rewrite_statement(s, condition, truth) for s in loop.body
            )
            relabelled = tuple(
                self._relabel(s) for s in resolved_body
            )
            new_loop = Loop(
                var=loop.var, lower=lower, upper=upper, body=relabelled
            )
            # Re-process: more conditions may remain in each piece.
            result.extend(self.process_loop(new_loop, outer_vars))
        return result

    # -- condition discovery ---------------------------------------------
    def find_condition(
        self, loop: Loop, outer_vars: tuple[str, ...]
    ) -> BinOp | None:
        """An affine comparison splittable at this loop, if any."""
        allowed = self.params | set(outer_vars) | {loop.var}
        for expr in _loop_expressions(loop):
            found = self._find_in_expr(expr, loop.var, allowed)
            if found is not None:
                return found
        return None

    def _find_in_expr(
        self, expr: Expr, var: str, allowed: set[str]
    ) -> BinOp | None:
        if isinstance(expr, Select):
            found = self._candidate(expr.cond, var, allowed)
            if found is not None:
                return found
            for sub in (expr.cond, expr.if_true, expr.if_false):
                found = self._find_in_expr(sub, var, allowed)
                if found is not None:
                    return found
            return None
        if isinstance(expr, BinOp):
            for sub in (expr.left, expr.right):
                found = self._find_in_expr(sub, var, allowed)
                if found is not None:
                    return found
            return None
        if isinstance(expr, UnOp):
            return self._find_in_expr(expr.operand, var, allowed)
        if isinstance(expr, Call):
            for arg in expr.args:
                found = self._find_in_expr(arg, var, allowed)
                if found is not None:
                    return found
            return None
        if isinstance(expr, ArrayRef):
            for index in expr.indices:
                found = self._find_in_expr(index, var, allowed)
                if found is not None:
                    return found
        return None

    def _candidate(self, cond: Expr, var: str, allowed: set[str]) -> BinOp | None:
        """A comparison conjunct usable for splitting ``var``."""
        if isinstance(cond, BinOp) and cond.op == "&&":
            return self._candidate(cond.left, var, allowed) or self._candidate(
                cond.right, var, allowed
            )
        if not (
            isinstance(cond, BinOp)
            and cond.op in (">=", "==")
            and isinstance(cond.right, Const)
            and cond.right.value == 0
        ):
            return None
        affine = to_affine(cond.left, allowed)
        if affine is None:
            return None
        coeff = affine.coeff(var)
        if abs(coeff) != 1:
            return None
        return cond

    # -- range computation -------------------------------------------------
    def split_ranges(
        self, loop: Loop, condition: BinOp
    ) -> list[tuple[Expr, Expr, bool]]:
        """Sub-ranges of the loop with the condition's truth value.

        For ``e >= 0`` with ``e = v + r``: true iff ``v >= -r``; with
        ``e = -v + r``: true iff ``v <= r``.  Equalities produce a
        peeled single-iteration piece.
        """
        var = loop.var
        # Re-derive the affine form (allowed set irrelevant here).
        affine = to_affine(
            condition.left, _all_names(condition.left) | {var}
        )
        assert affine is not None
        coeff = int(affine.coeff(var))
        rest = affine - LinExpr.var(var, coeff)
        lower, upper = loop.lower, loop.upper
        if condition.op == ">=":
            if coeff == 1:
                threshold = _linexpr_expr(-rest)  # true iff v >= threshold
                return [
                    (lower, _minexpr(upper, _add(threshold, -1)), False),
                    (_maxexpr(lower, threshold), upper, True),
                ]
            threshold = _linexpr_expr(rest)  # true iff v <= threshold
            return [
                (lower, _minexpr(upper, threshold), True),
                (_maxexpr(lower, _add(threshold, 1)), upper, False),
            ]
        # Equality: v == point (for either sign of the coefficient).
        point = _linexpr_expr(-rest) if coeff == 1 else _linexpr_expr(rest)
        return [
            (lower, _minexpr(upper, _add(point, -1)), False),
            (_maxexpr(lower, point), _minexpr(upper, point), True),
            (_maxexpr(lower, _add(point, 1)), upper, False),
        ]

    # -- relabelling ---------------------------------------------------------
    def _relabel(self, stmt: Stmt) -> Stmt:
        if isinstance(stmt, Assign):
            if stmt.label is None:
                return stmt
            self.label_counter += 1
            return replace(stmt, label=f"{stmt.label}_p{self.label_counter}")
        if isinstance(stmt, Loop):
            return replace(
                stmt, body=tuple(self._relabel(s) for s in stmt.body)
            )
        if isinstance(stmt, WhileLoop):
            return replace(
                stmt, body=tuple(self._relabel(s) for s in stmt.body)
            )
        if isinstance(stmt, If):
            return replace(
                stmt,
                then_body=tuple(self._relabel(s) for s in stmt.then_body),
                else_body=tuple(self._relabel(s) for s in stmt.else_body),
            )
        return stmt


# ----------------------------------------------------------------------
# Expression utilities
# ----------------------------------------------------------------------


def _loop_expressions(loop: Loop):
    """Every expression inside a loop (incl. instrumentation)."""
    from repro.ir.nodes import walk_statements

    for stmt in walk_statements(loop.body):
        if isinstance(stmt, Assign):
            yield stmt.rhs
            if isinstance(stmt.lhs, ArrayRef):
                yield from stmt.lhs.indices
            if stmt.instrumentation:
                for use in stmt.instrumentation.uses:
                    yield use.count
                if stmt.instrumentation.definition:
                    yield stmt.instrumentation.definition.count
        elif isinstance(stmt, ChecksumAdd):
            yield stmt.value
            yield stmt.count
        elif isinstance(stmt, CounterIncrement):
            yield stmt.amount
        elif isinstance(stmt, (If, WhileLoop)):
            yield stmt.cond
        elif isinstance(stmt, Loop):
            yield stmt.lower
            yield stmt.upper


def _all_names(expr: Expr) -> set[str]:
    from repro.ir.nodes import walk_expressions

    return {
        node.name for node in walk_expressions(expr) if isinstance(node, VarRef)
    }


def _linexpr_expr(expr: LinExpr) -> Expr:
    from repro.instrument.render import linexpr_to_ir

    return linexpr_to_ir(expr)


def _add(expr: Expr, value: int) -> Expr:
    if isinstance(expr, Const) and isinstance(expr.value, int):
        return Const(expr.value + value)
    if value == 0:
        return expr
    if value > 0:
        return BinOp("+", expr, Const(value))
    return BinOp("-", expr, Const(-value))


def _minexpr(a: Expr, b: Expr) -> Expr:
    if a == b:
        return a
    return Call("min", (a, b))


def _maxexpr(a: Expr, b: Expr) -> Expr:
    if a == b:
        return a
    return Call("max", (a, b))


# ----------------------------------------------------------------------
# Condition resolution + constant folding
# ----------------------------------------------------------------------


def _rewrite_statement(stmt: Stmt, condition: BinOp, truth: bool) -> Stmt:
    rewrite = lambda e: _fold(_replace_condition(e, condition, truth))
    if isinstance(stmt, Assign):
        new_lhs = stmt.lhs
        if isinstance(stmt.lhs, ArrayRef):
            new_lhs = ArrayRef(
                stmt.lhs.array, tuple(rewrite(i) for i in stmt.lhs.indices)
            )
        instr = stmt.instrumentation
        if instr:
            new_uses = tuple(
                UseContribution(
                    ref=use.ref, checksum=use.checksum, count=rewrite(use.count)
                )
                for use in instr.uses
            )
            new_def = None
            if instr.definition:
                new_def = DefContribution(
                    count=rewrite(instr.definition.count),
                    checksum=instr.definition.checksum,
                    aux=instr.definition.aux,
                )
            instr = Instrumentation(
                uses=new_uses,
                definition=new_def,
                counter_increments=instr.counter_increments,
                pre_overwrite=instr.pre_overwrite,
                duplicate_store=instr.duplicate_store,
            )
        return Assign(
            lhs=new_lhs,
            rhs=rewrite(stmt.rhs),
            label=stmt.label,
            instrumentation=instr,
        )
    if isinstance(stmt, Loop):
        return Loop(
            var=stmt.var,
            lower=rewrite(stmt.lower),
            upper=rewrite(stmt.upper),
            body=tuple(_rewrite_statement(s, condition, truth) for s in stmt.body),
        )
    if isinstance(stmt, WhileLoop):
        return replace(
            stmt,
            cond=rewrite(stmt.cond),
            body=tuple(_rewrite_statement(s, condition, truth) for s in stmt.body),
        )
    if isinstance(stmt, If):
        return If(
            cond=rewrite(stmt.cond),
            then_body=tuple(
                _rewrite_statement(s, condition, truth) for s in stmt.then_body
            ),
            else_body=tuple(
                _rewrite_statement(s, condition, truth) for s in stmt.else_body
            ),
        )
    if isinstance(stmt, ChecksumAdd):
        return ChecksumAdd(
            checksum=stmt.checksum, value=rewrite(stmt.value), count=rewrite(stmt.count)
        )
    if isinstance(stmt, CounterIncrement):
        return CounterIncrement(counter=stmt.counter, amount=rewrite(stmt.amount))
    return stmt


def _replace_condition(expr: Expr, condition: BinOp, truth: bool) -> Expr:
    if expr == condition:
        return Const(1 if truth else 0)
    if isinstance(expr, BinOp):
        return BinOp(
            expr.op,
            _replace_condition(expr.left, condition, truth),
            _replace_condition(expr.right, condition, truth),
        )
    if isinstance(expr, UnOp):
        return UnOp(expr.op, _replace_condition(expr.operand, condition, truth))
    if isinstance(expr, Call):
        return Call(
            expr.func,
            tuple(_replace_condition(a, condition, truth) for a in expr.args),
        )
    if isinstance(expr, Select):
        return Select(
            cond=_replace_condition(expr.cond, condition, truth),
            if_true=_replace_condition(expr.if_true, condition, truth),
            if_false=_replace_condition(expr.if_false, condition, truth),
        )
    if isinstance(expr, ArrayRef):
        return ArrayRef(
            expr.array,
            tuple(_replace_condition(i, condition, truth) for i in expr.indices),
        )
    return expr


def _fold(expr: Expr) -> Expr:
    """Constant-fold after condition resolution."""
    if isinstance(expr, Select):
        cond = _fold(expr.cond)
        if isinstance(cond, Const):
            return _fold(expr.if_true) if cond.value else _fold(expr.if_false)
        return Select(cond, _fold(expr.if_true), _fold(expr.if_false))
    if isinstance(expr, BinOp):
        left = _fold(expr.left)
        right = _fold(expr.right)
        if expr.op == "&&":
            if isinstance(left, Const):
                return right if left.value else Const(0)
            if isinstance(right, Const):
                return left if right.value else Const(0)
        if expr.op == "||":
            if isinstance(left, Const):
                return Const(1) if left.value else right
            if isinstance(right, Const):
                return Const(1) if right.value else left
        if isinstance(left, Const) and isinstance(right, Const):
            folded = _fold_constant(expr.op, left.value, right.value)
            if folded is not None:
                return folded
        return BinOp(expr.op, left, right)
    if isinstance(expr, UnOp):
        operand = _fold(expr.operand)
        if isinstance(operand, Const):
            if expr.op == "-":
                return Const(-operand.value)
            if expr.op == "!":
                return Const(0 if operand.value else 1)
        return UnOp(expr.op, operand)
    if isinstance(expr, Call):
        return Call(expr.func, tuple(_fold(a) for a in expr.args))
    if isinstance(expr, ArrayRef):
        return ArrayRef(expr.array, tuple(_fold(i) for i in expr.indices))
    return expr


def _fold_constant(op: str, left, right) -> Const | None:
    try:
        if op == "+":
            return Const(left + right)
        if op == "-":
            return Const(left - right)
        if op == "*":
            return Const(left * right)
        if op == "==":
            return Const(1 if left == right else 0)
        if op == "!=":
            return Const(1 if left != right else 0)
        if op == "<":
            return Const(1 if left < right else 0)
        if op == "<=":
            return Const(1 if left <= right else 0)
        if op == ">":
            return Const(1 if left > right else 0)
        if op == ">=":
            return Const(1 if left >= right else 0)
    except TypeError:
        return None
    return None
