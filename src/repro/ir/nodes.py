"""IR node definitions for the mini-language.

Programs are trees of statements (loops, while-loops, conditionals and
assignments) over expressions (constants, scalar reads, array
references, arithmetic, calls).  The checksum instrumentation the
compiler inserts is represented two ways, matching the paper's fault
model (Section 2.2):

* **Statement-attached contributions** (:class:`UseContribution`,
  :class:`DefContribution`, :class:`PreOverwriteAdjust` on
  :class:`Assign`): the checksummed value is *the very same register
  value* the statement loads or stores, so a memory error between a
  load and its checksum contribution is impossible — exactly the
  register-residency the paper requires.  The interpreter executes an
  annotated assignment as one bundle with a per-reference load cache.

* **Free-standing checksum statements** (:class:`ChecksumAdd`,
  :class:`CounterIncrement`, :class:`ChecksumAssert`): prologue,
  epilogue and inspector code, where values are freshly loaded from
  (possibly faulty) memory — also faithful to the paper, whose epilogue
  reads are ordinary loads.

All expression/statement classes are plain dataclasses; the tree is
treated as immutable by convention (the instrumenter builds new trees).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, Union

# ----------------------------------------------------------------------
# Expressions
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Const:
    """An integer or floating-point literal."""

    value: Union[int, float]

    def __str__(self) -> str:
        return repr(self.value) if isinstance(self.value, float) else str(self.value)


@dataclass(frozen=True)
class VarRef:
    """A read of a scalar variable, loop iterator or parameter."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class ArrayRef:
    """An array element reference ``A[e1][e2]...``.

    Appears both as an expression (load) and as an assignment target
    (store).  Index expressions may themselves contain array references
    (indirect accesses like ``p_new[cols[j]]`` — the paper's irregular
    case).
    """

    array: str
    indices: tuple["Expr", ...]

    def __str__(self) -> str:
        return self.array + "".join(f"[{i}]" for i in self.indices)


@dataclass(frozen=True)
class BinOp:
    """A binary operation; ``op`` is one of + - * / % and comparisons."""

    op: str
    left: "Expr"
    right: "Expr"

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class UnOp:
    """Unary minus or logical not."""

    op: str
    operand: "Expr"

    def __str__(self) -> str:
        return f"({self.op}{self.operand})"


@dataclass(frozen=True)
class Call:
    """An intrinsic call: sqrt, abs, min, max, exp, floor."""

    func: str
    args: tuple["Expr", ...]

    def __str__(self) -> str:
        return f"{self.func}({', '.join(str(a) for a in self.args)})"


@dataclass(frozen=True)
class Select:
    """``cond ? if_true : if_false`` — used to render piecewise counts."""

    cond: "Expr"
    if_true: "Expr"
    if_false: "Expr"

    def __str__(self) -> str:
        return f"({self.cond} ? {self.if_true} : {self.if_false})"


Expr = Union[Const, VarRef, ArrayRef, BinOp, UnOp, Call, Select]


# ----------------------------------------------------------------------
# Checksum instrumentation annotations (attached to Assign)
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class UseContribution:
    """Add one loaded value of this statement to a use checksum.

    ``ref`` must be (structurally equal to) a read reference of the
    statement; the interpreter contributes the *cached* loaded value.
    ``count`` scales the contribution (usually 1).
    """

    ref: ArrayRef | VarRef
    checksum: str = "use"
    count: "Expr" = Const(1)


@dataclass(frozen=True)
class DefContribution:
    """Add the stored value, scaled by ``count``, to a def checksum.

    ``count`` is the compile-time use count (an affine/piecewise
    expression, Section 3) or ``Const(1)`` in the general scheme, where
    the epilogue adjusts the remainder.  ``aux=True`` additionally
    contributes once to the auxiliary ``e_def`` checksum (Section 4.1).
    """

    count: "Expr"
    checksum: str = "def"
    aux: bool = False
    aux_checksum: str = "e_def"
    """Which auxiliary checksum receives the once-contribution when
    ``aux`` is set (qualified by the localization extension)."""


@dataclass(frozen=True)
class PreOverwriteAdjust:
    """Adjustments for the *previous* value before a store (Algorithm 3).

    For a definition whose use count is dynamic, before the new value
    overwrites the old one the interpreter must:

    * load the old value and its shadow use counter,
    * add the old value ``use_count - 1`` times to the def checksum,
    * add the old value once to the auxiliary ``e_use`` checksum,
    * reset the shadow counter to zero.

    ``counter`` names the shadow counter location (same indices as the
    stored reference).  The checksum names are parameters so the
    per-array localization extension can qualify them (``def@A``).
    """

    counter: ArrayRef | VarRef
    def_checksum: str = "def"
    e_use_checksum: str = "e_use"
    extra: int = 1
    """Extra adjustment added to the counter; kept at 1 so the net
    contribution is ``use_count - 1 + ... `` — see interpreter."""


@dataclass(frozen=True)
class Instrumentation:
    """All checksum work bundled with one assignment."""

    uses: tuple[UseContribution, ...] = ()
    definition: DefContribution | None = None
    counter_increments: tuple[ArrayRef | VarRef, ...] = ()
    pre_overwrite: PreOverwriteAdjust | None = None
    duplicate_store: "ArrayRef | VarRef | None" = None
    """Duplication baseline: also store the written register value to
    this shadow location (a second store of the same bits)."""

    def is_empty(self) -> bool:
        return (
            not self.uses
            and self.definition is None
            and not self.counter_increments
            and self.pre_overwrite is None
            and self.duplicate_store is None
        )


# ----------------------------------------------------------------------
# Statements
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class Assign:
    """``lhs = rhs`` with optional label and checksum instrumentation."""

    lhs: ArrayRef | VarRef
    rhs: Expr
    label: str | None = None
    instrumentation: Instrumentation | None = None

    def with_instrumentation(self, instr: Instrumentation) -> "Assign":
        return replace(self, instrumentation=instr)


@dataclass(frozen=True)
class Loop:
    """``for var = lower .. upper`` (inclusive), unit stride."""

    var: str
    lower: Expr
    upper: Expr
    body: tuple["Stmt", ...]


@dataclass(frozen=True)
class WhileLoop:
    """``while cond`` — iteration count unknown at compile time."""

    cond: Expr
    body: tuple["Stmt", ...]
    counter: str | None = None
    """Optional name of the iteration counter scalar maintained by the
    instrumenter (the paper's ``iter`` variable, Figure 9)."""


@dataclass(frozen=True)
class If:
    """``if cond { then } else { orelse }``."""

    cond: Expr
    then_body: tuple["Stmt", ...]
    else_body: tuple["Stmt", ...] = ()


@dataclass(frozen=True)
class ChecksumAdd:
    """Free-standing ``add_to_chksm(which, value, count)``.

    The value expression is evaluated through memory (loads may be
    faulted) — used in prologue/epilogue/inspector code.
    """

    checksum: str
    value: Expr
    count: Expr = Const(1)


@dataclass(frozen=True)
class CounterIncrement:
    """Free-standing shadow-counter increment (inspector code)."""

    counter: ArrayRef | VarRef
    amount: Expr = Const(1)


@dataclass(frozen=True)
class ChecksumAssert:
    """Verifier: assert the named def/use checksum pairs match."""

    pairs: tuple[tuple[str, str], ...] = (("def", "use"), ("e_def", "e_use"))


@dataclass(frozen=True)
class ChecksumReset:
    """Zero checksum accumulators (epoch-verification support).

    Section 2 allows verification "at any post-dominator of all
    definitions and uses tracked"; epoch instrumentation verifies and
    resets at the end of every outer-loop iteration, trading prologue
    overhead for detection latency.  ``names=None`` resets everything;
    otherwise only the listed accumulators (the epoch-boundary handoff
    pair must survive the per-epoch reset).
    """

    names: tuple[str, ...] | None = None


Stmt = Union[
    Assign,
    Loop,
    WhileLoop,
    If,
    ChecksumAdd,
    CounterIncrement,
    ChecksumAssert,
    ChecksumReset,
]


# ----------------------------------------------------------------------
# Declarations and programs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ArrayDecl:
    """An array with symbolic extents (affine in the parameters)."""

    name: str
    dims: tuple[Expr, ...]
    elem_type: str = "f64"  # "f64" or "i64"
    is_shadow: bool = False
    """Shadow arrays (use counters) are compiler-introduced."""


@dataclass(frozen=True)
class ScalarDecl:
    """A scalar program variable living in (faultable) memory."""

    name: str
    elem_type: str = "f64"
    is_shadow: bool = False


@dataclass(frozen=True)
class Program:
    """A complete mini-language program.

    ``params`` are symbolic problem sizes (registers, never faulted);
    ``arrays`` and ``scalars`` live in the simulated memory subsystem.
    """

    name: str
    params: tuple[str, ...]
    arrays: tuple[ArrayDecl, ...]
    scalars: tuple[ScalarDecl, ...]
    body: tuple[Stmt, ...]

    # -- symbol access ------------------------------------------------
    def array(self, name: str) -> ArrayDecl:
        for decl in self.arrays:
            if decl.name == name:
                return decl
        raise KeyError(f"no array {name!r} in program {self.name!r}")

    def scalar(self, name: str) -> ScalarDecl:
        for decl in self.scalars:
            if decl.name == name:
                return decl
        raise KeyError(f"no scalar {name!r} in program {self.name!r}")

    def has_array(self, name: str) -> bool:
        return any(d.name == name for d in self.arrays)

    def has_scalar(self, name: str) -> bool:
        return any(d.name == name for d in self.scalars)

    def with_body(self, body: tuple[Stmt, ...]) -> "Program":
        return replace(self, body=body)


# ----------------------------------------------------------------------
# Tree walking helpers
# ----------------------------------------------------------------------


def walk_statements(body: tuple[Stmt, ...] | list[Stmt]) -> Iterator[Stmt]:
    """Depth-first pre-order walk of every statement in a body."""
    for stmt in body:
        yield stmt
        if isinstance(stmt, Loop):
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, WhileLoop):
            yield from walk_statements(stmt.body)
        elif isinstance(stmt, If):
            yield from walk_statements(stmt.then_body)
            yield from walk_statements(stmt.else_body)


def walk_expressions(expr: Expr) -> Iterator[Expr]:
    """Depth-first pre-order walk of an expression tree."""
    yield expr
    if isinstance(expr, BinOp):
        yield from walk_expressions(expr.left)
        yield from walk_expressions(expr.right)
    elif isinstance(expr, UnOp):
        yield from walk_expressions(expr.operand)
    elif isinstance(expr, Call):
        for arg in expr.args:
            yield from walk_expressions(arg)
    elif isinstance(expr, Select):
        yield from walk_expressions(expr.cond)
        yield from walk_expressions(expr.if_true)
        yield from walk_expressions(expr.if_false)
    elif isinstance(expr, ArrayRef):
        for index in expr.indices:
            yield from walk_expressions(index)


def statement_labels(body: tuple[Stmt, ...]) -> list[str]:
    """Labels of all labelled assignments, in textual order."""
    labels: list[str] = []
    for stmt in walk_statements(body):
        if isinstance(stmt, Assign) and stmt.label:
            labels.append(stmt.label)
    return labels
