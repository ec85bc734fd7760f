"""Effect/observability analysis for the kernel optimizer.

Everything the optimizing emitter (:mod:`repro.runtime.codegen`) folds,
moves or deletes must first be proven unobservable, where "observable"
is defined by the interpreter's contract:

* **Load/store event order** — fault injectors trigger on the live
  ``Memory.load_count`` / ``store_count``, so a load may never be
  created, deleted or reordered past another load/store unless the
  interpreter's own bundle cache provably behaves identically.
* **Operation counts** — :class:`OpCounts` locals become observable
  only when a result is returned: at a ``ChecksumAssert``-triggered
  ``_Halt`` unwind (caught, spilled, returned) and at normal
  completion.  ``InterpreterError``/``StepLimitExceeded`` propagate and
  discard the result, so between observable points counter updates may
  be coalesced — but every pending update must be materialized before a
  possible ``_Halt``.
* **Pure values** — arithmetic over parameters, loop iterators and
  constants has no effect beyond its count contribution (plus a
  possible ``InterpreterError`` from ``/``/``%`` by zero, which aborts
  the run), so such expressions fold into single Python expressions
  and, when non-raising, may be hoisted and evaluated speculatively.

Provided analyses:

* :func:`try_fold` — fold a pure expression into one Python expression
  string with its *static count vector* (exactly what the interpreter
  counts evaluating it) and free variables; ``None`` for anything
  effectful, branch-count-dynamic or type-ambiguous.
* :func:`analyze_guard_chain` / :func:`fuse_condition` — decompose an
  ``&&`` conjunction into pure leaves with per-"first false leaf" count
  scenarios (derived by simulating ``Interpreter._eval_binop``, since
  branch increments land after each left subtree finishes), and build a
  single merged range test over the conjunction's domain.
* :func:`ref_affine_key` / :func:`keys_never_alias` — normalized affine
  index forms supporting must-alias ("the interpreter's bundle cache is
  guaranteed to hit — the second load never happens") and never-alias
  ("distinct cells — both loads happen") proofs.
* :func:`loop_trip_constant` / :func:`loop_trip_at_most_one` — trip
  facts for the unroller, covering the ``min``/``max``-clamped
  degenerate pieces index-set splitting emits.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.analysis import to_affine
from repro.ir.nodes import (
    ArrayRef,
    BinOp,
    Call,
    Const,
    Expr,
    Select,
    UnOp,
    VarRef,
)

_CMP_OPS = ("==", "!=", "<", "<=", ">", ">=")

#: Counter buckets, matching ``OpCounts`` fields and ``_n_<name>`` locals.
COUNTERS = (
    "loads",
    "stores",
    "fp_adds",
    "fp_muls",
    "fp_divs",
    "fp_sqrts",
    "fp_others",
    "int_ops",
    "branches",
    "checksum_ops",
    "counter_ops",
)

_ARITH_FP_BUCKET = {
    "+": "fp_adds",
    "-": "fp_adds",
    "*": "fp_muls",
    "/": "fp_divs",
    "%": "fp_divs",
}


@dataclass(frozen=True)
class Folded:
    """A pure expression folded to one Python expression string.

    ``counts`` is the exact count vector the interpreter accrues
    evaluating the expression once, in full (folding rejects
    short-circuiting shapes whose counts vary, so "in full" is the only
    case — a folded ``Select`` requires both arms to count equally).
    ``cond_atom``, when set, is a cheaper truthiness-equivalent form
    (raw comparison instead of ``1 if .. else 0``) valid in condition
    position only.
    """

    atom: str
    typ: str  # "int" | "float"
    counts: tuple[tuple[str, int], ...]
    free: frozenset[str]
    raising: bool
    complexity: int
    cond_atom: str | None = None

    @property
    def condition(self) -> str:
        return self.cond_atom if self.cond_atom is not None else self.atom


def _mk(atom, typ, counts, free, raising, complexity, cond_atom=None) -> Folded:
    return Folded(
        atom=atom,
        typ=typ,
        counts=tuple((k, counts[k]) for k in COUNTERS if counts.get(k)),
        free=free,
        raising=raising,
        complexity=complexity,
        cond_atom=cond_atom,
    )


def _merge(*counts) -> dict[str, int]:
    out: dict[str, int] = {}
    for c in counts:
        items = c.items() if isinstance(c, dict) else c
        for k, v in items:
            out[k] = out.get(k, 0) + v
    return out


def try_fold(expr: Expr, bound) -> Folded | None:
    """Fold ``expr`` when it is pure with a static count vector.

    Pure: no memory access — every leaf is an int/float constant or a
    name in ``bound`` (a parameter or enclosing loop iterator, which
    the interpreter resolves from its environment without a load).
    Static counts: no ``&&``/``||`` (their counts depend on runtime
    truth), ``Select`` only when both arms count identically, and no
    operation whose int/float bucket is undecidable at compile time.
    """
    if isinstance(expr, Const):
        value = expr.value
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        typ = "float" if isinstance(value, float) else "int"
        return _mk(repr(value), typ, {}, frozenset(), False, 1)
    if isinstance(expr, VarRef):
        if expr.name in bound:
            return _mk(
                f"v_{expr.name}", "int", {}, frozenset((expr.name,)), False, 1
            )
        return None
    if isinstance(expr, ArrayRef):
        return None
    if isinstance(expr, Select):
        cond = try_fold(expr.cond, bound)
        if cond is None:
            return None
        t = try_fold(expr.if_true, bound)
        f = try_fold(expr.if_false, bound)
        if t is None or f is None:
            return None
        if t.counts != f.counts or t.typ != f.typ:
            return None
        # Interpreter: branch counted first, then cond, then one arm —
        # with equal arm counts the vector is static; the conditional
        # expression evaluates exactly one arm, like the interpreter.
        counts = _merge(cond.counts, t.counts, {"branches": 1})
        return _mk(
            f"({t.atom} if {cond.condition} else {f.atom})",
            t.typ,
            counts,
            cond.free | t.free | f.free,
            cond.raising or t.raising or f.raising,
            cond.complexity + t.complexity + f.complexity + 1,
        )
    if isinstance(expr, UnOp):
        inner = try_fold(expr.operand, bound)
        if inner is None:
            return None
        if expr.op == "-":
            bucket = "fp_adds" if inner.typ == "float" else "int_ops"
            return _mk(
                f"(-{inner.atom})",
                inner.typ,
                _merge(inner.counts, {bucket: 1}),
                inner.free,
                inner.raising,
                inner.complexity + 1,
            )
        if expr.op == "!":
            return _mk(
                f"(0 if {inner.atom} else 1)",
                "int",
                _merge(inner.counts, {"int_ops": 1}),
                inner.free,
                inner.raising,
                inner.complexity + 1,
                cond_atom=f"(not {inner.condition})",
            )
        return None
    if isinstance(expr, BinOp):
        op = expr.op
        if op in ("&&", "||"):
            return None
        left = try_fold(expr.left, bound)
        right = try_fold(expr.right, bound)
        if left is None or right is None:
            return None
        free = left.free | right.free
        raising = left.raising or right.raising
        complexity = left.complexity + right.complexity + 1
        if op in _CMP_OPS:
            return _mk(
                f"(1 if {left.atom} {op} {right.atom} else 0)",
                "int",
                _merge(left.counts, right.counts, {"int_ops": 1}),
                free,
                raising,
                complexity,
                cond_atom=f"({left.atom} {op} {right.atom})",
            )
        if op not in _ARITH_FP_BUCKET:
            return None
        typ = "float" if "float" in (left.typ, right.typ) else "int"
        bucket = _ARITH_FP_BUCKET[op] if typ == "float" else "int_ops"
        counts = _merge(left.counts, right.counts, {bucket: 1})
        if op in ("+", "-", "*"):
            atom = f"({left.atom} {op} {right.atom})"
        elif op == "/":
            if typ == "int":
                atom = f"_idiv({left.atom}, {right.atom})"
                raising = True
            else:
                atom = f"_fdiv({left.atom}, {right.atom})"
        else:  # "%"
            atom = f"_rmod({left.atom}, {right.atom})"
            raising = True
        return _mk(atom, typ, counts, free, raising, complexity)
    if isinstance(expr, Call):
        args = [try_fold(arg, bound) for arg in expr.args]
        if not args or any(a is None for a in args):
            return None
        free = frozenset().union(*[a.free for a in args])
        raising = any(a.raising for a in args)
        complexity = sum(a.complexity for a in args) + 1
        counts = _merge(*[dict(a.counts) for a in args])
        func = expr.func
        if func == "sqrt":
            return _mk(
                f"_rsqrt({args[0].atom})", "float",
                _merge(counts, {"fp_sqrts": 1}), free, raising, complexity,
            )
        if func == "abs":
            return _mk(
                f"abs({args[0].atom})", args[0].typ,
                _merge(counts, {"fp_others": 1}), free, raising, complexity,
            )
        if func in ("min", "max"):
            counts = _merge(counts, {"int_ops": 1})
            if len(args) == 1:
                return _mk(
                    args[0].atom, args[0].typ, counts, free, raising,
                    complexity,
                )
            types = {a.typ for a in args}
            if len(types) != 1:
                return None  # result type (and downstream buckets) dynamic
            atom = f"{func}({', '.join(a.atom for a in args)})"
            return _mk(atom, types.pop(), counts, free, raising, complexity)
        if func in ("exp", "sin", "cos"):
            helper = {"exp": "_rexp", "sin": "_sin", "cos": "_cos"}[func]
            return _mk(
                f"{helper}({args[0].atom})", "float",
                _merge(counts, {"fp_others": 1}), free, raising, complexity,
            )
        if func == "floor":
            return _mk(
                f"_floor({args[0].atom})", "int",
                _merge(counts, {"int_ops": 1}), free, raising, complexity,
            )
        if func == "mod" and len(args) == 2:
            lt, rt = args[0].typ, args[1].typ
            typ = "float" if "float" in (lt, rt) else "int"
            return _mk(
                f"({args[0].atom} % {args[1].atom})", typ,
                _merge(counts, {"int_ops": 1}), free, True, complexity,
            )
        return None
    return None


# ----------------------------------------------------------------------
# Guard-chain analysis (&& conjunctions)
# ----------------------------------------------------------------------


@dataclass
class GuardChain:
    """A fusable ``&&`` conjunction of pure foldable leaves.

    ``scenarios[i]`` is the count vector the interpreter accrues when
    leaf ``i`` is the first false one; ``scenarios[len(leaves)]`` is
    the all-true vector.  Derived by simulating the interpreter's
    evaluation (each ``&&`` node counts its branch *after* its left
    subtree finishes — so a failure at the first leaf still counts one
    branch per enclosing ``&&`` on the unwind path), not by positional
    formula: the tree's associativity moves where increments land.
    """

    exprs: list[Expr]
    leaves: list[Folded]
    scenarios: list[dict[str, int]]


def analyze_guard_chain(expr: Expr, bound) -> GuardChain | None:
    if not (isinstance(expr, BinOp) and expr.op == "&&"):
        return None
    exprs: list[Expr] = []

    def collect(node: Expr) -> None:
        if isinstance(node, BinOp) and node.op == "&&":
            collect(node.left)
            collect(node.right)
        else:
            exprs.append(node)

    collect(expr)
    if len(exprs) < 2:
        return None
    leaves = []
    for leaf in exprs:
        f = try_fold(leaf, bound)
        if f is None:
            return None
        leaves.append(f)

    def simulate(first_false: int) -> dict[str, int]:
        counts: dict[str, int] = {}
        state = {"next": 0}

        def ev(node: Expr) -> bool:
            if isinstance(node, BinOp) and node.op == "&&":
                left = ev(node.left)
                counts["branches"] = counts.get("branches", 0) + 1
                if not left:
                    return False
                return ev(node.right)
            i = state["next"]
            state["next"] = i + 1
            for k, v in leaves[i].counts:
                counts[k] = counts.get(k, 0) + v
            return i != first_false

        ev(expr)
        return counts

    scenarios = [simulate(i) for i in range(len(leaves))]
    scenarios.append(simulate(len(leaves)))
    return GuardChain(exprs=exprs, leaves=leaves, scenarios=scenarios)


def _affine_atom(coeffs, const) -> str:
    """Python expression for an affine form over kernel ``v_`` locals."""
    terms = []
    for name, c in coeffs:
        if c == 1:
            terms.append(f"v_{name}")
        elif c == -1:
            terms.append(f"-v_{name}")
        else:
            terms.append(f"{c} * v_{name}")
    if const or not terms:
        terms.append(repr(const))
    joined = " + ".join(terms).replace("+ -", "- ")
    return f"({joined})" if len(terms) > 1 else joined


def _range_bound(expr: Expr, names) -> tuple[str, str, str] | None:
    """Rewrite an affine comparison as a one-variable range bound.

    Returns ``(var, "lo"|"hi", bound_atom)`` — meaning ``v_var >= atom``
    or ``v_var <= atom`` — when the comparison is affine with a ±1
    coefficient on some variable.  Strict forms shift by one (integer
    domain).  Equality/``!=`` never merge.
    """
    if not (isinstance(expr, BinOp) and expr.op in ("<", "<=", ">", ">=")):
        return None
    left = to_affine(expr.left, names)
    right = to_affine(expr.right, names)
    if left is None or right is None:
        return None
    diff = left - right  # expr  <=>  diff OP 0
    row = diff.int_row()
    if row is None:
        return None
    coeffs, const = row
    units = [(v, c) for v, c in coeffs if c in (1, -1)]
    if not units:
        return None
    var, c = units[0]
    # diff = c*var + rest;  expr  <=>  c*var OP -rest  <=>  var OP' bound.
    rest = tuple((v, k) for v, k in coeffs if v != var)
    op = expr.op
    if c == -1:
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
        bound_coeffs, bound_const = rest, const
    else:
        bound_coeffs = tuple((v, -k) for v, k in rest)
        bound_const = -const
    if op == "<":
        bound_const -= 1
        op = "<="
    elif op == ">":
        bound_const += 1
        op = ">="
    atom = _affine_atom(bound_coeffs, bound_const)
    return var, ("hi" if op == "<=" else "lo"), atom


def fuse_condition(chain: GuardChain, names) -> str:
    """One Python expression true iff every conjunct is true.

    Single-variable ±1-coefficient affine bounds merge into chained
    range tests ``lo <= v_x <= hi`` over the conjunction's domain
    (multiple bounds combine with ``min``/``max`` — constant-folded
    when literal, uncounted otherwise, which is sound: the fused test
    is pure scaffolding whose truthiness equals the conjunction's; all
    counting is replayed by the caller from the chain's scenarios).
    Leftover conjuncts stay as ``and`` terms.
    """
    lowers: dict[str, list[str]] = {}
    uppers: dict[str, list[str]] = {}
    rest: list[str] = []
    order: list[str] = []
    for leaf, raw in zip(chain.leaves, chain.exprs):
        merged = _range_bound(raw, names)
        if merged is None:
            rest.append(leaf.condition)
            continue
        var, kind, atom = merged
        if var not in order:
            order.append(var)
        (lowers if kind == "lo" else uppers).setdefault(var, []).append(atom)
    parts: list[str] = []
    for var in order:
        lo = _combine(lowers.get(var, []), "max")
        hi = _combine(uppers.get(var, []), "min")
        if lo is not None and hi is not None:
            parts.append(f"{lo} <= v_{var} <= {hi}")
        elif lo is not None:
            parts.append(f"{lo} <= v_{var}")
        else:
            parts.append(f"v_{var} <= {hi}")
    parts.extend(rest)
    return " and ".join(parts) if parts else "1"


def _combine(atoms: list[str], func: str) -> str | None:
    if not atoms:
        return None
    if len(atoms) == 1:
        return atoms[0]
    if all(_is_int_literal(a) for a in atoms):
        values = [int(a) for a in atoms]
        return repr(max(values) if func == "max" else min(values))
    return f"{func}({', '.join(atoms)})"


def _is_int_literal(atom: str) -> bool:
    try:
        int(atom)
    except ValueError:
        return False
    return True


# ----------------------------------------------------------------------
# Affine reference keys (bundle-cache elimination)
# ----------------------------------------------------------------------


def ref_affine_key(ref, bound, scalar_names) -> tuple | None:
    """Normalized affine form of a data ref's runtime cache key.

    Two refs with equal keys hit the same interpreter bundle-cache slot
    on every execution (must-alias); :func:`keys_never_alias` gives the
    disjointness proof.  ``None`` when any index is not affine over
    ``bound``.
    """
    if isinstance(ref, VarRef):
        if ref.name in scalar_names:
            return (ref.name, ())
        return None
    rows = []
    for index in ref.indices:
        affine = to_affine(index, bound)
        if affine is None:
            return None
        row = affine.int_row()
        if row is None:
            return None
        rows.append(row)
    return (ref.array, tuple(rows))


def keys_never_alias(a: tuple, b: tuple) -> bool:
    """Whether two affine keys denote distinct runtime keys on every
    execution: different region names, different arities, or some
    dimension whose difference is a nonzero constant (the forms share
    the live-iterator variable space, equal at any single point)."""
    if a[0] != b[0] or len(a[1]) != len(b[1]):
        return True
    for (rca, ca), (rcb, cb) in zip(a[1], b[1]):
        if rca == rcb and ca != cb:
            return True
    return False


# ----------------------------------------------------------------------
# Trip-count facts (unrolling)
# ----------------------------------------------------------------------


def _lower_candidates(expr: Expr, names) -> list:
    """Affine expressions provably ``<= expr`` (max distributes)."""
    affine = to_affine(expr, names)
    if affine is not None:
        return [affine]
    if isinstance(expr, Call) and expr.func == "max" and expr.args:
        out = []
        for arg in expr.args:
            out.extend(_lower_candidates(arg, names))
        return out
    return []


def _upper_candidates(expr: Expr, names) -> list:
    """Affine expressions provably ``>= expr`` (min distributes)."""
    affine = to_affine(expr, names)
    if affine is not None:
        return [affine]
    if isinstance(expr, Call) and expr.func == "min" and expr.args:
        out = []
        for arg in expr.args:
            out.extend(_upper_candidates(arg, names))
        return out
    return []


def loop_trip_constant(lower: Expr, upper: Expr, names) -> int | None:
    """The trip count ``upper - lower + 1`` when provably constant
    (inclusive bounds), clamped at zero."""
    lo = to_affine(lower, names)
    hi = to_affine(upper, names)
    if lo is None or hi is None:
        return None
    diff = hi - lo
    if not diff.is_constant():
        return None
    value = diff.constant_value()
    if getattr(value, "denominator", 1) != 1:
        return None
    return max(0, int(value) + 1)


def loop_trip_at_most_one(lower: Expr, upper: Expr, names) -> bool:
    """Prove the loop executes 0 or 1 times for every parameter value:
    ∃ affine u ≥ upper and l ≤ lower with ``u - l <= 0`` constant.
    Covers the clamped degenerate pieces index-set splitting emits
    (``for i = max(n-2, 2) .. min(n-2, 2)`` and friends)."""
    for u in _upper_candidates(upper, names):
        for low in _lower_candidates(lower, names):
            diff = u - low
            if diff.is_constant() and diff.constant_value() <= 0:
                return True
    return False

