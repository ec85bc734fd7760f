"""Integer relations (maps) and unions of maps.

A :class:`BasicMap` is a conjunctive relation between an input tuple and
an output tuple — e.g. the paper's flow dependence

``{ S1[j] -> S2[j, i] : 0 <= j <= n-1 and j+1 <= i <= n-1 }``

Internally a map is just a basic set over ``in_dims + out_dims``; the
map-specific operations are thin wrappers around set operations plus
dimension bookkeeping:

* :meth:`BasicMap.apply` — the paper's *apply* operation ``r(s)``,
* :meth:`BasicMap.apply_parameterized` — apply to a single
  parameterized source iteration (Algorithm 1, lines 3–4),
* :meth:`BasicMap.compose` — relation composition (used for dependence
  kills),
* domain / range / reverse / intersections / subtraction via
  :class:`Map`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.isl.basic_set import BasicSet
from repro.isl.constraints import Constraint
from repro.isl.set_ops import Set
from repro.isl.space import Space


class BasicMap:
    """A conjunctive integer relation.

    >>> space = Space.map_space(("j",), ("jp", "ip"), params=("n",),
    ...                         in_name="S1", out_name="S2")
    >>> bm = BasicMap.from_strings(space, [
    ...     "jp == j", "0 <= j <= n - 1", "j + 1 <= ip <= n - 1"])
    >>> src = Space.set_space(("j",), params=("n",), name="S1")
    >>> pts = bm.apply(Set.from_constraint_strings(src, ["j == 0"]))
    >>> pts.count({"n": 4})
    3
    """

    __slots__ = ("_space", "_bset")

    def __init__(self, space: Space, constraints: Iterable[Constraint] = ()) -> None:
        if not space.is_map_space():
            raise ValueError("BasicMap requires a map space")
        self._space = space
        self._bset = BasicSet(space.wrapped(), constraints)

    @staticmethod
    def from_strings(space: Space, texts: Sequence[str]) -> "BasicMap":
        from repro.isl.basic_set import parse_constraints

        constraints: list[Constraint] = []
        for text in texts:
            constraints.extend(parse_constraints(text))
        return BasicMap(space, constraints)

    @staticmethod
    def universe(space: Space) -> "BasicMap":
        return BasicMap(space, ())

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def space(self) -> Space:
        return self._space

    @property
    def constraints(self) -> tuple[Constraint, ...]:
        return self._bset.constraints

    def wrapped(self) -> BasicSet:
        """The relation as a set over in+out dims."""
        return self._bset

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return self._bset.is_empty(params)

    # ------------------------------------------------------------------
    # Core operations
    # ------------------------------------------------------------------
    def reverse(self) -> "BasicMap":
        return BasicMap(self._space.reversed(), self._bset.constraints)

    def domain(self) -> BasicSet:
        projected, _ = self._bset.project_out(self._space.out_dims)
        return projected.with_space(self._space.domain_space())

    def range(self) -> BasicSet:
        projected, _ = self._bset.project_out(self._space.in_dims)
        return projected.with_space(self._space.range_space())

    def intersect(self, other: "BasicMap") -> "BasicMap":
        if not self._space.compatible_with(other._space):
            raise ValueError("space mismatch in map intersection")
        return BasicMap(
            self._space, self._bset.constraints + other._bset.constraints
        )

    def intersect_domain(self, dom: BasicSet) -> "BasicMap":
        aligned = _align_constraints(dom, self._space.in_dims)
        return BasicMap(self._space, self._bset.constraints + tuple(aligned))

    def apply(self, source: Set | BasicSet) -> Set:
        """The paper's apply operation: ``{x : ∃y ∈ source, y -> x}``."""
        if isinstance(source, BasicSet):
            source = Set.from_basic(source)
        out_space = self._space.range_space()
        pieces: list[BasicSet] = []
        for piece in source.basic_sets:
            aligned = _align_constraints(piece, self._space.in_dims)
            combined = self._bset.add_constraints(aligned)
            projected, _ = combined.project_out(self._space.in_dims)
            pieces.append(projected.with_space(out_space))
        return Set(out_space, pieces)

    def apply_parameterized(self, suffix: str = "p") -> tuple["BasicMap", Set]:
        """Apply to a single *parameterized* source iteration.

        Implements Algorithm 1 lines 3–4: each input dim ``x`` is equated
        to a fresh parameter ``x + suffix`` and the relation becomes a
        set over the output dims, parameterized by the source iteration.

        Returns ``(parameterized_map, target_set)`` where the target set
        lives in the output space extended with the new parameters.
        """
        mapping = {d: d + suffix for d in self._space.in_dims}
        renamed_space = self._space.rename_dims(mapping)
        constraints = [c.rename(mapping) for c in self._bset.constraints]
        pmap = BasicMap(renamed_space, constraints)
        wrapped = pmap.wrapped().parameterize(renamed_space.in_dims)
        target_space = Space.set_space(
            renamed_space.out_dims,
            params=wrapped.space.params,
            name=self._space.out_name,
        )
        targets = Set(target_space, [wrapped.with_space(target_space)])
        return pmap, targets

    def compose(self, other: "BasicMap") -> "BasicMap":
        """Relation composition ``other ∘ self``: A->B then B->C gives A->C.

        ``self`` maps A to B; ``other`` maps B to C.  ``other``'s input
        dims are identified with ``self``'s output dims positionally.
        """
        if len(self._space.out_dims) != len(other._space.in_dims):
            raise ValueError("arity mismatch in composition")
        # Rename middle dims to fresh names, C dims kept from `other`.
        middle = [f"__mid{i}" for i in range(len(self._space.out_dims))]
        self_map = {d: m for d, m in zip(self._space.out_dims, middle)}
        other_map = {d: m for d, m in zip(other._space.in_dims, middle)}
        # Avoid capturing names: `other` output dims may clash with self's
        # input dims; rename them too if needed.
        taken = set(self._space.in_dims) | set(middle) | set(self._space.params)
        out_dims: list[str] = []
        for d in other._space.out_dims:
            new = d
            while new in taken:
                new = new + "'"
            if new != d:
                other_map[d] = new
            out_dims.append(new)
            taken.add(new)
        params = list(self._space.params)
        for p in other._space.params:
            if p not in params:
                params.append(p)
        big_space = Space(
            params=params,
            in_dims=self._space.in_dims,
            out_dims=tuple(middle) + tuple(out_dims),
            in_name=self._space.in_name,
            out_name=other._space.out_name,
        )
        constraints = [c.rename(self_map) for c in self._bset.constraints]
        constraints += [c.rename(other_map) for c in other._bset.constraints]
        combined = BasicMap(big_space, constraints)
        projected, _ = combined.wrapped().project_out(middle)
        final_space = Space(
            params=params,
            in_dims=self._space.in_dims,
            out_dims=tuple(out_dims),
            in_name=self._space.in_name,
            out_name=other._space.out_name,
        )
        return BasicMap(final_space, projected.constraints)

    # ------------------------------------------------------------------
    # Transformation helpers
    # ------------------------------------------------------------------
    def add_constraints(self, constraints: Iterable[Constraint]) -> "BasicMap":
        return BasicMap(self._space, self._bset.constraints + tuple(constraints))

    def rename(self, mapping: dict[str, str]) -> "BasicMap":
        return BasicMap(
            self._space.rename_dims(mapping),
            [c.rename(mapping) for c in self._bset.constraints],
        )

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BasicMap):
            return NotImplemented
        return self._space == other._space and self._bset == other._bset

    def __hash__(self) -> int:
        return hash((self._space, self._bset))

    def __repr__(self) -> str:
        in_name = self._space.in_name or ""
        out_name = self._space.out_name or ""
        body = " and ".join(str(c) for c in self._bset.constraints) or "true"
        params = ", ".join(self._space.params)
        prefix = f"[{params}] -> " if params else ""
        return (
            f"{prefix}{{ {in_name}[{', '.join(self._space.in_dims)}] -> "
            f"{out_name}[{', '.join(self._space.out_dims)}] : {body} }}"
        )


class Map:
    """A finite union of :class:`BasicMap` pieces over one map space."""

    __slots__ = ("_space", "_pieces")

    def __init__(self, space: Space, pieces: Iterable[BasicMap] = ()) -> None:
        self._space = space
        kept: list[BasicMap] = []
        for piece in pieces:
            if not piece.space.compatible_with(space):
                raise ValueError("piece space incompatible in Map")
            if not piece.is_empty():
                kept.append(piece)
        self._pieces = tuple(kept)

    @staticmethod
    def from_basic(piece: BasicMap) -> "Map":
        return Map(piece.space, [piece])

    @staticmethod
    def empty(space: Space) -> "Map":
        return Map(space, ())

    @property
    def space(self) -> Space:
        return self._space

    @property
    def basic_maps(self) -> tuple[BasicMap, ...]:
        return self._pieces

    def is_empty(self, params: Mapping[str, int] | None = None) -> bool:
        return all(piece.is_empty(params) for piece in self._pieces)

    def union(self, other: "Map") -> "Map":
        if not self._space.compatible_with(other._space):
            raise ValueError("space mismatch in map union")
        return Map(self._space, self._pieces + other._pieces)

    def subtract(self, other: "Map") -> "Map":
        """Exact integer subtraction, via the wrapped sets."""
        if not self._space.compatible_with(other._space):
            raise ValueError("space mismatch in map subtraction")
        wrapped_space = self._space.wrapped()
        mine = Set(wrapped_space, [p.wrapped().with_space(wrapped_space) for p in self._pieces])
        theirs = Set(
            wrapped_space, [p.wrapped().with_space(wrapped_space) for p in other._pieces]
        )
        difference = mine.subtract(theirs)
        return Map(
            self._space,
            [BasicMap(self._space, bs.constraints) for bs in difference.basic_sets],
        )

    def apply(self, source: Set | BasicSet) -> Set:
        out_space = self._space.range_space()
        result = Set.empty(out_space)
        for piece in self._pieces:
            result = result.union(piece.apply(source))
        return result

    def wrapped_set(self) -> Set:
        wrapped_space = self._space.wrapped()
        return Set(
            wrapped_space,
            [p.wrapped().with_space(wrapped_space) for p in self._pieces],
        )

    def domain_set(self) -> Set:
        dom_space = self._space.domain_space()
        return Set(dom_space, [p.domain() for p in self._pieces])

    def range_set(self) -> Set:
        rng_space = self._space.range_space()
        return Set(rng_space, [p.range() for p in self._pieces])

    def reverse(self) -> "Map":
        return Map(self._space.reversed(), [p.reverse() for p in self._pieces])

    def intersect_domain(self, dom: BasicSet) -> "Map":
        return Map(self._space, [p.intersect_domain(dom) for p in self._pieces])

    def points(self, params: Mapping[str, int] | None = None) -> list[tuple[int, ...]]:
        from repro.isl.enumerate_points import enumerate_points

        return enumerate_points(self, params or {})

    def __repr__(self) -> str:
        if not self._pieces:
            return f"{{ }} in {self._space!r}"
        return " UNION ".join(repr(piece) for piece in self._pieces)


def _align_constraints(
    bset: BasicSet, target_dims: tuple[str, ...]
) -> list[Constraint]:
    """Rename a set's dims positionally onto ``target_dims``."""
    source_dims = bset.space.all_dims()
    if len(source_dims) != len(target_dims):
        raise ValueError(
            f"arity mismatch: {source_dims} vs {target_dims}"
        )
    mapping = {s: t for s, t in zip(source_dims, target_dims)}
    return [c.rename(mapping) for c in bset.constraints]
