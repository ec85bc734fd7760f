"""Piecewise polynomial values over integer-set domains.

The symbolic cardinality of a parameterized set is in general a
*piecewise* polynomial: e.g. the use count of the paper's Cholesky
statement S1 is ``n - 1 - j`` on ``0 <= j <= n-2`` and ``0`` on
``j = n-1`` (Section 3.2).  A :class:`PiecewisePolynomial` is a list of
``(domain, polynomial)`` pieces with *disjoint* domains; the value is
the polynomial of the containing piece, and 0 outside every piece.

The piece domains are what Algorithm 2 (index-set splitting) consumes
as its "index sets" δ.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from repro.isl.basic_set import BasicSet
from repro.isl.polynomial import Polynomial
from repro.isl.set_ops import Set
from repro.isl.space import Space


class PiecewisePolynomial:
    """Disjoint ``(BasicSet domain, Polynomial)`` pieces; zero elsewhere.

    Pieces with a zero polynomial are dropped (the default already is
    zero) and empty domains are discarded.
    """

    __slots__ = ("_space", "_pieces")

    def __init__(
        self,
        space: Space,
        pieces: Iterable[tuple[BasicSet, Polynomial]] = (),
    ) -> None:
        self._space = space
        kept: list[tuple[BasicSet, Polynomial]] = []
        for domain, poly in pieces:
            if poly.is_zero():
                continue
            if domain.is_empty():
                continue
            kept.append((domain, poly))
        self._pieces = tuple(kept)

    # ------------------------------------------------------------------
    @staticmethod
    def zero(space: Space) -> "PiecewisePolynomial":
        return PiecewisePolynomial(space, ())

    @staticmethod
    def constant(space: Space, value: int | Fraction) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            space, [(BasicSet.universe(space), Polynomial.constant(value))]
        )

    @staticmethod
    def single(
        domain: BasicSet, poly: Polynomial
    ) -> "PiecewisePolynomial":
        return PiecewisePolynomial(domain.space, [(domain, poly)])

    # ------------------------------------------------------------------
    @property
    def space(self) -> Space:
        return self._space

    @property
    def pieces(self) -> tuple[tuple[BasicSet, Polynomial], ...]:
        return self._pieces

    def is_zero(self) -> bool:
        return not self._pieces

    def domain(self) -> Set:
        """Union of the piece domains (where the value may be non-zero)."""
        return Set(self._space, [d for d, _ in self._pieces])

    def polynomials(self) -> list[Polynomial]:
        return [p for _, p in self._pieces]

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def add(self, other: "PiecewisePolynomial") -> "PiecewisePolynomial":
        """Pointwise sum, refining domains to keep pieces disjoint."""
        if not self._space.compatible_with(other._space):
            raise ValueError("space mismatch in piecewise addition")
        result: list[tuple[BasicSet, Polynomial]] = []
        other_domain = other.domain()
        self_domain = self.domain()
        # Overlaps: sum of both polynomials.
        for d1, p1 in self._pieces:
            for d2, p2 in other._pieces:
                overlap = d1.intersect(d2)
                if not overlap.is_empty():
                    result.append((overlap, p1 + p2))
        # Parts of self not covered by other, and vice versa.
        for d1, p1 in self._pieces:
            for remainder in Set.from_basic(d1).subtract(other_domain).basic_sets:
                result.append((remainder, p1))
        for d2, p2 in other._pieces:
            for remainder in Set.from_basic(d2).subtract(self_domain).basic_sets:
                result.append((remainder, p2))
        return PiecewisePolynomial(self._space, result)

    def scale(self, factor: int | Fraction) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self._space, [(d, p * factor) for d, p in self._pieces]
        )

    def restrict(self, domain: BasicSet) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self._space, [(d.intersect(domain), p) for d, p in self._pieces]
        )

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, int]) -> Fraction:
        """Value at a point (0 when no piece contains it).

        Raises :class:`ValueError` if the point lies in more than one
        piece — pieces are meant to be disjoint, and overlap indicates a
        construction bug.
        """
        hits = [
            poly for domain, poly in self._pieces if domain.satisfied_by(assignment)
        ]
        if len(hits) > 1:
            values = {poly.evaluate(assignment) for poly in hits}
            if len(values) > 1:
                raise ValueError(
                    f"overlapping pieces disagree at {dict(assignment)}"
                )
            return values.pop()
        if hits:
            return hits[0].evaluate(assignment)
        return Fraction(0)

    # ------------------------------------------------------------------
    # Simplification
    # ------------------------------------------------------------------
    def coalesce(self) -> "PiecewisePolynomial":
        """Drop duplicate (domain, polynomial) pieces."""
        seen: set[tuple[BasicSet, Polynomial]] = set()
        kept: list[tuple[BasicSet, Polynomial]] = []
        for domain, poly in self._pieces:
            key = (domain, poly)
            if key not in seen:
                seen.add(key)
                kept.append((domain, poly))
        return PiecewisePolynomial(self._space, kept)

    def normalized(self) -> "PiecewisePolynomial":
        """Substitute domain-implied equalities into each polynomial.

        Counting case-splits often pin a variable on a piece (e.g. the
        pair ``tsteps - 1 >= 0`` and ``1 - tsteps >= 0`` implies
        ``tsteps == 1``); substituting makes polynomials canonical on
        their domains (``3*tsteps`` becomes ``3``), enabling
        :meth:`merged` to unify pieces that only *look* different.
        """
        from fractions import Fraction as _Fraction

        from repro.isl.linear import LinExpr

        pieces: list[tuple[BasicSet, Polynomial]] = []
        for domain, poly in self._pieces:
            poly = _normalize_on(poly, domain)
            pieces.append((domain, poly))
        return PiecewisePolynomial(self._space, pieces)

    def merged(self) -> "PiecewisePolynomial":
        """Union-merge pieces that share a polynomial.

        Two pieces merge when dropping their non-shared constraints
        yields exactly their union (checked with exact set subtraction)
        — the classic "complementary constraint" coalesce.  Also drops
        pieces contained in another piece with the same polynomial.
        Runs to a fixpoint; the result is equivalent and disjointness
        is preserved (a merged domain replaces both originals).
        """
        from repro.isl.set_ops import Set

        # Phase 1: group hull per syntactic polynomial — constraints
        # common to every piece of a group; if nothing of the hull lies
        # outside the union, the whole group collapses to one piece.
        groups: dict[Polynomial, list[BasicSet]] = {}
        order: list[Polynomial] = []
        for domain, poly in self._pieces:
            if poly not in groups:
                groups[poly] = []
                order.append(poly)
            groups[poly].append(domain)
        pieces: list[tuple[BasicSet, Polynomial]] = []
        for poly in order:
            domains = groups[poly]
            if len(domains) > 1:
                shared_all = set(domains[0].constraints)
                for domain in domains[1:]:
                    shared_all &= set(domain.constraints)
                if shared_all:
                    hull = BasicSet(
                        domains[0].space, sorted_constraints(shared_all)
                    )
                    leftover = Set.from_basic(hull)
                    for domain in domains:
                        leftover = leftover.subtract(Set.from_basic(domain))
                        if leftover.is_empty():
                            break
                    if leftover.is_empty():
                        domains = [hull]
            for domain in domains:
                pieces.append((domain, poly))

        # Phase 2: pairwise merging across all pieces.  Two pieces
        # merge into the hull of their shared constraints when (a) the
        # hull adds nothing outside their union, and (b) one piece's
        # polynomial is also valid on the other's domain (their
        # difference vanishes there — e.g. `n` on k==0 merges with
        # `n - k` on k>=1).
        changed = True
        while changed:
            changed = False
            for i in range(len(pieces)):
                d_i, p_i = pieces[i]
                set_i = set(d_i.constraints)
                for j in range(i + 1, len(pieces)):
                    d_j, p_j = pieces[j]
                    set_j = set(d_j.constraints)
                    same_poly = p_i == p_j
                    if same_poly and set_j <= set_i:
                        pieces.pop(i)
                        changed = True
                        break
                    if same_poly and set_i <= set_j:
                        pieces.pop(j)
                        changed = True
                        break
                    shared = set_i & set_j
                    # Each piece may add at most two private constraints
                    # — the shape counting case-splits produce — keeping
                    # the exact union check affordable.
                    if (
                        len(set_i - shared) > 2
                        or len(set_j - shared) > 2
                        or not shared
                    ):
                        continue
                    if same_poly:
                        merged_poly = p_i
                    elif _vanishes_on(p_j - p_i, d_i):
                        merged_poly = p_j
                    elif _vanishes_on(p_i - p_j, d_j):
                        merged_poly = p_i
                    else:
                        continue
                    # The candidate keeps the shared constraints plus any
                    # private constraint that the *other* piece also
                    # implies (e.g. `j >= 0` from a j==0 piece merging
                    # with a j>=1 piece).
                    candidate_constraints = set(shared)
                    for constraint, other in [
                        *(( c, d_j) for c in set_i - shared),
                        *(( c, d_i) for c in set_j - shared),
                    ]:
                        implied = all(
                            other.add_constraints([neg]).is_empty()
                            for neg in constraint.negated()
                        )
                        if implied:
                            candidate_constraints.add(constraint)
                    candidate = BasicSet(
                        d_i.space, sorted_constraints(candidate_constraints)
                    )
                    leftover = (
                        Set.from_basic(candidate)
                        .subtract(Set.from_basic(d_i))
                        .subtract(Set.from_basic(d_j))
                    )
                    if leftover.is_empty():
                        pieces.pop(j)
                        pieces[i] = (candidate, merged_poly)
                        changed = True
                        break
                if changed:
                    break
        return PiecewisePolynomial(self._space, pieces)

    def rename(self, mapping: dict[str, str]) -> "PiecewisePolynomial":
        return PiecewisePolynomial(
            self._space.rename_dims(mapping),
            [(d.rename(mapping), p.rename(mapping)) for d, p in self._pieces],
        )

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PiecewisePolynomial):
            return NotImplemented
        return self._space.compatible_with(other._space) and set(
            self._pieces
        ) == set(other._pieces)

    def simplified(self, gist_context: BasicSet | None = None) -> "PiecewisePolynomial":
        """Normalize, gist against a context, and union-merge pieces."""
        result = self.normalized()
        if gist_context is not None:
            from repro.instrument.render import gist_constraints

            pieces = []
            for domain, poly in result.pieces:
                kept = gist_constraints(gist_context, domain.constraints)
                pieces.append((BasicSet(self._space, kept), poly))
            result = PiecewisePolynomial(self._space, pieces)
        return result.merged()

    def __repr__(self) -> str:
        if not self._pieces:
            return "PiecewisePolynomial(0)"
        parts = [f"({poly}) on {domain!r}" for domain, poly in self._pieces]
        return "PiecewisePolynomial[" + "; ".join(parts) + "]"


def _normalize_on(poly: Polynomial, domain: BasicSet) -> Polynomial:
    """Canonicalize a polynomial using the domain's implied equalities.

    Repeatedly substitutes pinned variables (unit coefficient in an
    implied equality) out of the polynomial, preferring to eliminate
    lexicographically-late names, until a fixpoint.  An eliminated
    variable is never reintroduced, so the loop terminates.
    """
    from fractions import Fraction as _Fraction

    from repro.isl.linear import LinExpr

    equalities = _implied_equalities(domain)
    eliminated: set[str] = set()
    for _ in range(len(equalities) + 1):
        changed = False
        for eq in equalities:
            for name in sorted(eq.variables(), reverse=True):
                coeff = eq.coeff(name)
                if (
                    abs(coeff) != 1
                    or name in eliminated
                    or name not in poly.variables()
                ):
                    continue
                rest = eq - LinExpr.var(name, coeff)
                solution = rest * (_Fraction(-1) / coeff)
                if solution.variables() & eliminated:
                    continue
                poly = poly.substitute({name: _linexpr_poly(solution)})
                eliminated.add(name)
                changed = True
                break
        if not changed:
            break
    return poly


def _vanishes_on(poly: Polynomial, domain: BasicSet) -> bool:
    """Whether ``poly`` is identically zero on ``domain``.

    Sufficient check: zero after substituting the domain's implied
    equalities (sound; may miss deeper identities, which only costs a
    merge opportunity).
    """
    if poly.is_zero():
        return True
    return _normalize_on(poly, domain).is_zero()


def _implied_equalities(domain: BasicSet):
    """Equality LHS expressions implied by the domain's constraints.

    Explicit equalities plus pairs of opposing inequalities
    (``e >= 0`` and ``-e >= 0``).
    """
    equalities = [c.expr for c in domain.constraints if c.is_equality()]
    inequalities = [c.expr for c in domain.constraints if c.is_inequality()]
    seen = set(inequalities)
    added: set = set()
    for expr in inequalities:
        if (-expr) in seen and expr not in added and (-expr) not in added:
            equalities.append(expr)
            added.add(expr)
    return equalities


def _linexpr_poly(expr) -> Polynomial:
    return Polynomial.from_linexpr(expr)


def sorted_constraints(constraints) -> list:
    """Deterministic constraint ordering for rebuilt domains."""
    return sorted(constraints, key=str)
