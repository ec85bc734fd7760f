"""Conjunctive integer sets (single polyhedra).

A :class:`BasicSet` is the set of integer points of a polyhedron: a
:class:`~repro.isl.space.Space` plus a conjunction of affine constraints
over the space's parameters and dimensions.  This mirrors ISL's
``basic_set``.  Unions live in :mod:`repro.isl.set_ops`.

Design notes
------------
* Constraints are deduplicated and constant tautologies dropped at
  construction; a constant contradiction marks the set empty outright.
* Equalities are exploited eagerly by most algorithms (Gaussian
  substitution) because affine loop nests produce many of them
  (subscript equalities, schedule equalities).
* Parametric emptiness is decided by eliminating *all* dims and params
  with Fourier–Motzkin; for the unit-coefficient systems of this code
  base the test is exact, and the elimination result reports exactness
  so callers can escalate to enumeration when it is not.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

from repro.isl.constraints import Constraint
from repro.isl.fastpath import fast_path_enabled, memo_lookup, memo_store
from repro.isl.fourier_motzkin import eliminate_variables
from repro.isl.linear import LinExpr
from repro.isl.space import Space


class BasicSet:
    """Integer points satisfying a conjunction of affine constraints.

    >>> space = Space.set_space(("j",), params=("n",), name="S1")
    >>> bs = BasicSet.from_strings(space, ["j >= 0", "n - 1 - j >= 0"])
    >>> bs.is_empty(params={"n": 0})
    True
    >>> bs.is_empty(params={"n": 3})
    False
    """

    __slots__ = ("_space", "_constraints", "_known_empty", "_empty_cache", "_hash")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()) -> None:
        self._space = space
        self._empty_cache: bool | None = None
        self._hash: int | None = None
        kept: list[Constraint] = []
        seen: set[Constraint] = set()
        known_empty = False
        for c in constraints:
            if c.is_tautology():
                continue
            if c.is_contradiction():
                known_empty = True
                kept = [c]
                break
            unknown = c.variables() - set(space.all_names())
            if unknown:
                raise ValueError(
                    f"constraint {c} uses names {sorted(unknown)} not in {space!r}"
                )
            if c not in seen:
                seen.add(c)
                kept.append(c)
        self._constraints = tuple(kept)
        self._known_empty = known_empty

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def universe(space: Space) -> "BasicSet":
        return BasicSet(space, ())

    @staticmethod
    def empty(space: Space) -> "BasicSet":
        return BasicSet(space, [Constraint.ineq(LinExpr.constant(-1))])

    @staticmethod
    def from_strings(space: Space, texts: Sequence[str]) -> "BasicSet":
        """Build from constraint strings like ``"n - 1 - j >= 0"``.

        Supported forms: ``<affine> >= 0``, ``<affine> == 0``, and the
        comparison forms ``a <= b``, ``a >= b``, ``a == b``, ``a < b``,
        ``a > b`` — including chains like ``0 <= j <= n - 1`` — where
        each side is an affine expression using ``+``, ``-``, integer
        literals, integer coefficients (``2j``/``2*j``) and names from
        the space.
        """
        constraints: list[Constraint] = []
        for text in texts:
            constraints.extend(parse_constraints(text))
        return BasicSet(space, constraints)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> Space:
        return self._space

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._constraints

    def equalities(self) -> list[Constraint]:
        return [c for c in self._constraints if c.is_equality()]

    def inequalities(self) -> list[Constraint]:
        return [c for c in self._constraints if c.is_inequality()]

    # ------------------------------------------------------------------
    # Logical operations
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls,
        space: Space,
        constraints: tuple[Constraint, ...],
        known_empty: bool,
    ) -> "BasicSet":
        """Build without re-validating (constraints already clean)."""
        result = cls.__new__(cls)
        result._space = space
        result._constraints = constraints
        result._known_empty = known_empty
        result._empty_cache = True if known_empty else None
        result._hash = None
        return result

    def intersect(self, other: "BasicSet") -> "BasicSet":
        if not self._space.compatible_with(other._space):
            raise ValueError(
                f"space mismatch: {self._space!r} vs {other._space!r}"
            )
        # Both operands' constraints were validated (and tautologies /
        # contradictions resolved) at their own construction; only
        # deduplication is left to do.
        if self._known_empty:
            return self
        if other._known_empty:
            return BasicSet._trusted(self._space, other._constraints, True)
        kept = list(self._constraints)
        seen = set(kept)
        for c in other._constraints:
            if c not in seen:
                seen.add(c)
                kept.append(c)
        return BasicSet._trusted(self._space, tuple(kept), False)

    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicSet":
        """Extend with new constraints (the subtraction-chain hot path).

        The existing constraints are trusted — already validated,
        deduplicated and free of constant tautologies — so only the new
        ones pay the checks.
        """
        if self._known_empty:
            return self
        extra = tuple(constraints)
        if not extra:
            return self
        kept = list(self._constraints)
        seen = set(kept)
        known_empty = False
        valid_names: set[str] | None = None
        for c in extra:
            if c.is_tautology():
                continue
            if c.is_contradiction():
                known_empty = True
                kept = [c]
                break
            if valid_names is None:
                valid_names = set(self._space.all_names())
            unknown = c.variables() - valid_names
            if unknown:
                raise ValueError(
                    f"constraint {c} uses names {sorted(unknown)} "
                    f"not in {self._space!r}"
                )
            if c not in seen:
                seen.add(c)
                kept.append(c)
        return BasicSet._trusted(self._space, tuple(kept), known_empty)

    def fix(self, name: str, value: int) -> "BasicSet":
        """Constrain dimension or parameter ``name`` to ``value``."""
        eq = Constraint.eq(LinExpr.var(name) - value)
        return self.add_constraints([eq])

    def substitute(self, bindings: Mapping[str, LinExpr]) -> "BasicSet":
        """Substitute affine expressions for names (space unchanged).

        Callers are responsible for the substituted names no longer being
        meaningful dimensions (e.g. follow with :meth:`project_out` or a
        space adjustment).
        """
        return BasicSet(
            self._space, [c.substitute(bindings) for c in self._constraints]
        )

    def rename(self, mapping: dict[str, str]) -> "BasicSet":
        return BasicSet(
            self._space.rename_dims(mapping),
            [c.rename(mapping) for c in self._constraints],
        )

    def with_space(self, space: Space) -> "BasicSet":
        """Reinterpret the constraints in a compatible (superset) space."""
        for c in self._constraints:
            unknown = c.variables() - set(space.all_names())
            if unknown:
                raise ValueError(
                    f"constraint {c} not expressible in {space!r}"
                )
        return BasicSet(space, self._constraints)

    def project_out(self, names: Sequence[str]) -> tuple["BasicSet", bool]:
        """Existentially quantify the given dims; returns (set, exact)."""
        doomed = [n for n in names if n in self._space.all_dims()]
        result = eliminate_variables(list(self._constraints), list(doomed))
        new_space = self._space.drop_dims(doomed)
        return BasicSet(new_space, result.constraints), result.exact

    def parameterize(self, names: Sequence[str] | None = None) -> "BasicSet":
        """Turn dims into parameters (Algorithm 1, line 3).

        With ``names=None`` every dimension is parameterized.
        """
        if names is None:
            names = self._space.all_dims()
        return BasicSet(self._space.dims_to_params(names), self._constraints)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        return all(c.satisfied_by(assignment) for c in self._constraints)

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        """Integer emptiness.

        With concrete ``params`` the answer is exact (enumeration-backed
        sampling).  Without, Fourier–Motzkin elimination of every name is
        used; this is exact whenever elimination stays exact (tracked),
        and otherwise errs on the side of "not empty".
        """
        if self._known_empty:
            return True
        if params is not None:
            try:
                return self.sample(params) is None
            except ValueError:
                # Unbounded in some dimension: decide by elimination
                # with the parameters fixed.
                bindings = {
                    p: LinExpr.constant(int(v)) for p, v in params.items()
                }
                fixed = self.substitute(bindings)
                result = eliminate_variables(
                    list(fixed.constraints), list(self._space.all_dims())
                )
                return any(c.is_contradiction() for c in result.constraints)
        if self._empty_cache is not None:
            return self._empty_cache
        # The parametric verdict depends only on the (normalized,
        # deduplicated) constraint system — every name it mentions gets
        # eliminated — so verdicts are shared process-wide under the
        # structural hash of that system.
        key = frozenset(self._constraints) if fast_path_enabled() else None
        if key is not None:
            memoized = memo_lookup(key)
            if memoized is not None:
                self._empty_cache = memoized
                return memoized
        verdict = self._decide_empty()
        self._empty_cache = verdict
        if key is not None:
            memo_store(key, verdict)
        return verdict

    def _decide_empty(self) -> bool:
        if not self._solve_integer_equalities_feasible():
            return True
        if self._quick_nonempty():
            return False
        if self._quick_empty():
            return True
        result = eliminate_variables(
            list(self._constraints), list(self._space.all_names())
        )
        return any(c.is_contradiction() for c in result.constraints)

    def _quick_nonempty(self) -> bool:
        """Cheap feasibility witness: greedily assign each name a value
        inside its already-determined bounds (generous default 64) and
        check the full system.  Success proves non-emptiness in
        O(vars x constraints) integer arithmetic; failure proves
        nothing and the caller falls back to elimination."""
        names = list(self._space.all_names())
        order = {name: index for index, name in enumerate(names)}
        # Interned integer coefficient rows; give up on fractions.
        rows: list[tuple[dict[str, int], int, bool]] = []
        for c in self._constraints:
            row = c.row()
            if row is None:
                return False
            rows.append(row)
        assignment: dict[str, int] = {}
        for position, name in enumerate(names):
            lo: int | None = None
            hi: int | None = None
            for coeffs, const, is_eq in rows:
                coeff = coeffs.get(name)
                if coeff is None:
                    continue
                # Usable only when every other variable is earlier.
                rest = const
                late = False
                for other, other_coeff in coeffs.items():
                    if other == name:
                        continue
                    if order[other] > position:
                        late = True
                        break
                    rest += other_coeff * assignment[other]
                if late:
                    continue
                # coeff*name + rest >= 0 (or == 0)
                if coeff > 0:
                    bound = -(rest // coeff)  # ceil(-rest / coeff)
                    lo = bound if lo is None else max(lo, bound)
                    if is_eq:
                        hi = bound if hi is None else min(hi, bound)
                else:
                    bound = rest // (-coeff)  # floor(rest / |coeff|)
                    hi = bound if hi is None else min(hi, bound)
                    if is_eq:
                        lo = bound if lo is None else max(lo, bound)
            if lo is not None and hi is not None and lo > hi:
                return False  # inconclusive here; the caller runs FM
            value = 64
            if lo is not None:
                value = max(value, lo)
            if hi is not None:
                value = min(value, hi)
            assignment[name] = value
        for coeffs, const, is_eq in rows:
            total = const
            for name, coeff in coeffs.items():
                total += coeff * assignment[name]
            if is_eq:
                if total != 0:
                    return False
            elif total < 0:
                return False
        return True

    def _quick_empty(self) -> bool:
        """Cheap contradiction witness: opposite-linear-part inequality
        pairs ``L + c1 >= 0`` and ``-L + c2 >= 0`` require
        ``c1 + c2 >= 0``; subtraction chains (which add negated
        constraints) hit this pattern constantly.  Sound but
        incomplete — the caller still runs elimination when this finds
        nothing."""
        best: dict[frozenset, int] = {}
        for c in self._constraints:
            pair = c.linear_key()
            if pair is None:
                continue
            linear, const = pair
            if not linear:
                continue
            kinds = [(linear, const)]
            if c.is_equality():
                negated = frozenset(
                    (name, -value) for name, value in linear
                )
                kinds.append((negated, -const))
            for key, value in kinds:
                current = best.get(key)
                if current is None or value < current:
                    best[key] = value
        for key, const in best.items():
            negated = frozenset((name, -value) for name, value in key)
            other = best.get(negated)
            if other is not None and const + other < 0:
                return True
        return False

    def _solve_integer_equalities_feasible(self) -> bool:
        """Integer feasibility of the equality subsystem.

        Gaussian substitution on unit-coefficient pivots, then a GCD
        test per remaining equality.  Catches direct infeasibility
        (``2x == 1``) and combined infeasibility (``j == 0`` with
        ``2i - j == 1``, which forces ``2i == 1``).  Sound but not
        complete: True only means no contradiction was found.
        """
        exprs = [c.expr for c in self.equalities()]
        while exprs:
            pivot_index: int | None = None
            pivot_name = ""
            for index, expr in enumerate(exprs):
                coeffs = expr.coefficients()
                if not coeffs:
                    if expr.const != 0:
                        return False
                    continue
                if any(v.denominator != 1 for v in coeffs.values()):
                    continue  # rational row: leave to elimination
                gcd = 0
                for value in coeffs.values():
                    gcd = math.gcd(gcd, abs(int(value)))
                const = expr.const
                if const.denominator != 1:
                    return False
                if gcd and int(const) % gcd != 0:
                    return False
                if pivot_index is None:
                    for name, value in coeffs.items():
                        if value == 1 or value == -1:
                            pivot_index, pivot_name = index, name
                            break
            if pivot_index is None:
                return True
            expr = exprs.pop(pivot_index)
            pivot_coeff = expr.coefficients()[pivot_name]
            # a*pivot + rest == 0 with a = ±1  ⇒  pivot = -a * rest.
            rest = expr - LinExpr.var(pivot_name, pivot_coeff)
            replacement = rest * (-pivot_coeff)
            exprs = [e.substitute({pivot_name: replacement}) for e in exprs]
        return True

    def sample(self, params: Mapping[str, int]) -> dict[str, int] | None:
        """Find one integer point for concrete parameter values."""
        from repro.isl.enumerate_points import iterate_points

        for point in iterate_points(self, params):
            return point
        return None

    # ------------------------------------------------------------------
    # Simplification
    # ------------------------------------------------------------------
    def simplify(self) -> "BasicSet":
        """Drop constraints redundant with respect to the others.

        Uses the emptiness test: an inequality ``e >= 0`` is redundant if
        the set with ``e <= -1`` added is empty.  Quadratic but our
        constraint systems are small.
        """
        if self._known_empty:
            return self
        constraints = list(self._constraints)
        kept: list[Constraint] = []
        for i, c in enumerate(constraints):
            if c.is_equality():
                kept.append(c)
                continue
            others = kept + constraints[i + 1 :]
            negations = c.negated()
            test = BasicSet(self._space, others + [negations[0]])
            if not test.is_empty():
                kept.append(c)
        return BasicSet(self._space, kept)

    def is_subset_of(self, other: "BasicSet") -> bool:
        """Parametric subset test: self ⊆ other.

        Exact when the underlying emptiness tests are exact.
        """
        if not self._space.compatible_with(other._space):
            raise ValueError("space mismatch in is_subset_of")
        for c in other._constraints:
            for negation in c.negated():
                if not self.add_constraints([negation]).is_empty():
                    return False
        return True

    # ------------------------------------------------------------------
    # Comparison / display
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicSet):
            return NotImplemented
        return self._space == other._space and set(self._constraints) == set(
            other._constraints
        )

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._space, frozenset(self._constraints)))
        return self._hash

    def __repr__(self) -> str:
        name = self._space.in_name or ""
        dims = ", ".join(self._space.all_dims())
        body = " and ".join(str(c) for c in self._constraints) or "true"
        params = ", ".join(self._space.params)
        prefix = f"[{params}] -> " if params else ""
        return f"{prefix}{{ {name}[{dims}] : {body} }}"


# ----------------------------------------------------------------------
# Constraint-string parsing
# ----------------------------------------------------------------------

_COMPARATORS = ("<=", ">=", "==", "<", ">", "=")


def parse_affine(text: str) -> LinExpr:
    """Parse a linear combination like ``n - 2*j + 1`` into a LinExpr."""
    import re

    expr = LinExpr.zero()
    text = text.replace(" ", "")
    if not text:
        raise ValueError("empty affine expression")
    token_re = re.compile(r"([+-]?)(\d+)?\*?([A-Za-z_][A-Za-z_0-9']*)?")
    pos = 0
    while pos < len(text):
        match = token_re.match(text, pos)
        if not match or match.end() == pos:
            raise ValueError(f"cannot parse affine expression {text!r} at {pos}")
        sign, number, name = match.groups()
        factor = -1 if sign == "-" else 1
        if number is None and name is None:
            raise ValueError(f"cannot parse affine expression {text!r} at {pos}")
        coeff = factor * (int(number) if number is not None else 1)
        if name is not None:
            expr = expr + LinExpr.var(name, coeff)
        else:
            expr = expr + coeff
        pos = match.end()
    return expr


def parse_constraint(text: str) -> Constraint:
    """Parse ``a <= b`` / ``a >= b`` / ``a == b`` / ``a < b`` / ``a > b``.

    A bare ``expr >= 0`` / ``expr == 0`` is the canonical form; chained
    comparisons (``0 <= j <= n-1``) expand to conjunctions via
    :func:`parse_constraints`.
    """
    for op in ("<=", ">=", "==", "!=", "<", ">", "="):
        if op in text:
            lhs_text, rhs_text = text.split(op, 1)
            if any(c in rhs_text for c in ("<", ">", "=")):
                raise ValueError(
                    f"chained comparison in {text!r}; use parse_constraints"
                )
            lhs = parse_affine(lhs_text)
            rhs = parse_affine(rhs_text)
            if op == "<=":
                return Constraint.le(lhs, rhs)
            if op == ">=":
                return Constraint.ge(lhs, rhs)
            if op in ("==", "="):
                return Constraint.eq_exprs(lhs, rhs)
            if op == "<":
                return Constraint.lt(lhs, rhs)
            if op == ">":
                return Constraint.gt(lhs, rhs)
            raise ValueError(f"operator {op!r} unsupported in {text!r}")
    raise ValueError(f"no comparison operator in {text!r}")


def parse_constraints(text: str) -> list[Constraint]:
    """Parse a conjunction, allowing chained comparisons.

    >>> [str(c) for c in parse_constraints("0 <= j <= n - 1")]
    ['j >= 0', 'n - j - 1 >= 0']
    """
    results: list[Constraint] = []
    for clause in text.split(" and "):
        clause = clause.strip()
        if not clause:
            continue
        parts = _split_chain(clause)
        if len(parts) == 1:
            results.append(parse_constraint(clause))
        else:
            for (lhs, op), (rhs, _next_op) in itertools.pairwise(parts):
                results.append(parse_constraint(f"{lhs} {op} {rhs}"))
    return results


def _split_chain(text: str) -> list[tuple[str, str | None]]:
    """Split ``a <= b <= c`` into [(a, '<='), (b, '<='), (c, None)]."""
    import re

    pieces: list[tuple[str, str | None]] = []
    pattern = re.compile(r"(<=|>=|==|<|>|=)")
    parts = pattern.split(text)
    operands = parts[0::2]
    operators = parts[1::2]
    for i, operand in enumerate(operands):
        op = operators[i] if i < len(operators) else None
        pieces.append((operand.strip(), op))
    return pieces
