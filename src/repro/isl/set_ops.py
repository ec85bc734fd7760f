"""Finite unions of basic sets, with exact subtraction.

ISL's ``set`` is a union of ``basic_set``s; this module provides the
same for the operations the paper's analyses need:

* union / intersection,
* exact integer subtraction (used to remove *killed* dependences),
* emptiness / subset / equality,
* a light ``coalesce`` that drops pieces contained in other pieces.

Subtraction follows the textbook recipe: ``A - B`` for conjunctive
``B = c1 ∧ ... ∧ ck`` is ``(A ∧ ¬c1) ∪ (A ∧ c1 ∧ ¬c2) ∪ ...``, with
integer negation of each constraint (``¬(e >= 0)`` is ``-e-1 >= 0``;
equalities split in two).  For a union ``B = B1 ∪ B2 ∪ ...`` the pieces
are subtracted sequentially.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.isl.basic_set import BasicSet
from repro.isl.constraints import Constraint
from repro.isl.fastpath import fast_path_enabled
from repro.isl.space import Space


class Set:
    """A finite union of :class:`BasicSet` pieces over one space.

    >>> space = Space.set_space(("i",), params=("n",))
    >>> whole = Set.from_constraint_strings(space, ["0 <= i <= n - 1"])
    >>> last = Set.from_constraint_strings(space, ["i == n - 1"])
    >>> body = whole.subtract(last)
    >>> body.count({"n": 5})
    4
    """

    __slots__ = ("_space", "_pieces")

    def __init__(self, space: Space, pieces: Iterable[BasicSet] = ()) -> None:
        self._space = space
        kept: list[BasicSet] = []
        for piece in pieces:
            if not piece.space.compatible_with(space):
                raise ValueError(
                    f"piece space {piece.space!r} incompatible with {space!r}"
                )
            if not piece.is_empty():
                kept.append(piece)
        self._pieces = tuple(kept)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def from_basic(piece: BasicSet) -> "Set":
        return Set(piece.space, [piece])

    @staticmethod
    def empty(space: Space) -> "Set":
        return Set(space, ())

    @staticmethod
    def universe(space: Space) -> "Set":
        return Set(space, [BasicSet.universe(space)])

    @staticmethod
    def from_constraint_strings(space: Space, texts: Sequence[str]) -> "Set":
        from repro.isl.basic_set import parse_constraints

        constraints: list[Constraint] = []
        for text in texts:
            constraints.extend(parse_constraints(text))
        return Set(space, [BasicSet(space, constraints)])

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> Space:
        return self._space

    @property
    def basic_sets(self) -> tuple[BasicSet, ...]:
        return self._pieces

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return all(piece.is_empty(params) for piece in self._pieces)

    # ------------------------------------------------------------------
    # Boolean algebra
    # ------------------------------------------------------------------
    def union(self, other: "Set") -> "Set":
        self._check_space(other)
        return Set(self._space, self._pieces + other._pieces)

    def intersect(self, other: "Set") -> "Set":
        self._check_space(other)
        pieces = [
            a.intersect(b) for a in self._pieces for b in other._pieces
        ]
        return Set(self._space, pieces)

    def subtract(self, other: "Set") -> "Set":
        self._check_space(other)
        current: list[BasicSet] = list(self._pieces)
        for piece in other._pieces:
            next_pieces: list[BasicSet] = []
            for a in current:
                next_pieces.extend(_subtract_basic(a, piece))
            current = next_pieces
        return Set(self._space, current)

    def coalesce(self) -> "Set":
        """Drop pieces that are subsets of other pieces (cheap cleanup).

        Structurally equal pieces are hash-deduplicated first (keeping
        the earliest), so the quadratic subset pass only runs over
        distinct pieces.
        """
        unique = list(dict.fromkeys(self._pieces))
        kept: list[BasicSet] = []
        for i, piece in enumerate(unique):
            redundant = False
            for j, other in enumerate(unique):
                if i == j:
                    continue
                if piece.is_subset_of(other) and not (
                    other.is_subset_of(piece) and j > i
                ):
                    redundant = True
                    break
            if not redundant:
                kept.append(piece)
        return Set(self._space, kept)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def is_subset_of(self, other: "Set") -> bool:
        if not fast_path_enabled():
            return self.subtract(other).is_empty()
        # Per-piece short circuit: the first piece with a non-empty
        # remainder decides, without materializing the full difference
        # of the remaining pieces.
        for a in self._pieces:
            remainder = [a]
            for b in other._pieces:
                next_pieces: list[BasicSet] = []
                for r in remainder:
                    next_pieces.extend(_subtract_basic(r, b))
                remainder = next_pieces
                if not remainder:
                    break
            if remainder:
                return False
        return True

    def equals(self, other: "Set") -> bool:
        return self.is_subset_of(other) and other.is_subset_of(self)

    def satisfied_by(self, assignment: Mapping[str, int]) -> bool:
        return any(piece.satisfied_by(assignment) for piece in self._pieces)

    def count(self, params: Mapping[str, int] | None = None) -> int:
        """Exact number of integer points (brute force)."""
        from repro.isl.enumerate_points import enumerate_points

        return len(enumerate_points(self, params or {}))

    def points(self, params: Mapping[str, int] | None = None) -> list[tuple[int, ...]]:
        from repro.isl.enumerate_points import enumerate_points

        return enumerate_points(self, params or {})

    # ------------------------------------------------------------------
    # Transformation
    # ------------------------------------------------------------------
    def project_out(self, names: Sequence[str]) -> tuple["Set", bool]:
        pieces: list[BasicSet] = []
        exact = True
        for piece in self._pieces:
            projected, piece_exact = piece.project_out(names)
            pieces.append(projected)
            exact = exact and piece_exact
        return Set(self._space.drop_dims(names), pieces), exact

    def parameterize(self, names: Sequence[str] | None = None) -> "Set":
        pieces = [piece.parameterize(names) for piece in self._pieces]
        space = pieces[0].space if pieces else self._space.dims_to_params(
            names if names is not None else self._space.all_dims()
        )
        return Set(space, pieces)

    def rename(self, mapping: dict[str, str]) -> "Set":
        return Set(
            self._space.rename_dims(mapping),
            [piece.rename(mapping) for piece in self._pieces],
        )

    def with_space(self, space: Space) -> "Set":
        return Set(space, [piece.with_space(space) for piece in self._pieces])

    # ------------------------------------------------------------------
    def _check_space(self, other: "Set") -> None:
        if not self._space.compatible_with(other._space):
            raise ValueError(
                f"space mismatch: {self._space!r} vs {other._space!r}"
            )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Set):
            return NotImplemented
        return self._space.compatible_with(other._space) and self.equals(other)

    def __repr__(self) -> str:
        if not self._pieces:
            return f"{{ }} in {self._space!r}"
        return " UNION ".join(repr(piece) for piece in self._pieces)


def _subtract_basic(a: BasicSet, b: BasicSet) -> list[BasicSet]:
    """``a - b`` as a disjoint union of basic sets.

    Gist-style pruning: constraints of ``b`` that every point of ``a``
    already satisfies contribute an empty disjunct (``a ∧ ¬c = ∅``), so
    they are dropped before negation — shrinking both the emitted
    disjunction and the number of emptiness checks.  When every
    constraint of ``b`` is implied, ``a ⊆ b`` and the difference is
    empty outright.
    """
    if not a.space.compatible_with(b.space):
        raise ValueError("space mismatch in subtraction")
    implied: frozenset[Constraint] | None = None
    if fast_path_enabled():
        ineq_min: dict[frozenset, int] = {}
        equalities: dict[frozenset, int] = {}
        for other in a.constraints:
            pair = other.linear_key()
            if pair is None:
                continue
            linear, const = pair
            if other.is_equality():
                equalities[linear] = const
            else:
                current = ineq_min.get(linear)
                if current is None or const < current:
                    ineq_min[linear] = const
        implied = frozenset(
            c
            for c in b.constraints
            if _implied_by(c, ineq_min, equalities)
        )
    result: list[BasicSet] = []
    accumulated: list[Constraint] = []
    for constraint in b.constraints:
        # An implied constraint's disjunct is a ∧ ... ∧ ¬c = ∅: skip
        # building it, but keep c in the accumulated chain so the
        # surviving pieces are *identical* to the slow path's.
        if implied is None or constraint not in implied:
            for negation in constraint.negated():
                piece = a.add_constraints(accumulated + [negation])
                if not piece.is_empty():
                    result.append(piece)
        accumulated.append(constraint)
    return result


def _implied_by(
    c: Constraint,
    ineq_min: Mapping[frozenset, int],
    equalities: Mapping[frozenset, int],
) -> bool:
    """Cheap sufficient test that every point of ``a`` satisfies ``c``.

    ``ineq_min`` maps each inequality linear part of ``a`` to its
    tightest (smallest) constant; ``equalities`` maps equality linear
    parts to their constant.  ``L + k >= 0`` follows from
    ``L + k' >= 0`` with ``k' <= k`` or from an equality pinning ``L``;
    an equality follows from the structurally identical equality or
    from both bounding inequalities.  Sound but incomplete — a miss
    just means the disjunct gets built and decided by the regular
    emptiness test.
    """
    pair = c.linear_key()
    if pair is None:
        return False
    linear, const = pair
    if not linear:
        # Constant constraints never survive BasicSet construction.
        return False
    negated = frozenset((name, -value) for name, value in linear)
    if c.is_inequality():
        tightest = ineq_min.get(linear)
        if tightest is not None and tightest <= const:
            return True
        pinned = equalities.get(linear)
        if pinned is not None and pinned <= const:
            return True
        pinned = equalities.get(negated)
        if pinned is not None and -pinned <= const:
            return True
        return False
    # Equalities carry a canonical sign, so a matching equality of ``a``
    # has the same linear part.
    pinned = equalities.get(linear)
    if pinned is not None and pinned == const:
        return True
    lower = ineq_min.get(linear)
    upper = ineq_min.get(negated)
    return (
        lower is not None
        and lower <= const
        and upper is not None
        and upper <= -const
    )
