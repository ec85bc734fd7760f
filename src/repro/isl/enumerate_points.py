"""Concrete integer-point enumeration.

Enumeration serves two purposes in this reproduction:

* a *fallback* when symbolic machinery reports inexactness, and
* the *brute-force oracle* the test suite uses to validate every
  symbolic result (dependences, use counts, cardinalities).

The strategy is the classical code-generation scan: dimensions are
visited in space order; the bounds for dimension ``i`` come from
Fourier–Motzkin elimination of all later dimensions, so they are fully
evaluable once the earlier dimensions are fixed.  Because FM may
over-approximate over the integers, every complete point is re-checked
against the original constraints — enumeration is therefore always
exact.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.isl.basic_set import BasicSet
from repro.isl.fourier_motzkin import (
    bounds_on,
    eliminate_variable,
    eliminate_variables,
    integer_interval,
)


def eliminate_variable_chain(constraints, names):
    """FM-eliminate several names; returns the residual constraints."""
    return eliminate_variables(list(constraints), list(names)).constraints
from repro.isl.linear import LinExpr


class BoundTable:
    """Per-dimension bounds usable during a lexicographic scan."""

    def __init__(
        self,
        dim: str,
        lowers: list[tuple[LinExpr, int]],
        uppers: list[tuple[LinExpr, int]],
    ) -> None:
        self.dim = dim
        self.lowers = lowers
        self.uppers = uppers


def dim_bound_tables(bset: BasicSet, check_bounded: bool = False) -> list[BoundTable]:
    """Bounds for each dimension after eliminating the later ones.

    With ``check_bounded=True`` raises :class:`ValueError` if some
    dimension lacks a lower or upper bound (the scan would not
    terminate).
    """
    dims = list(bset.space.all_dims())
    tables: list[BoundTable] = [None] * len(dims)  # type: ignore[list-item]
    constraints = list(bset.constraints)
    for level in range(len(dims) - 1, -1, -1):
        dim = dims[level]
        lowers, uppers = bounds_on(constraints, dim)
        if check_bounded and (not lowers or not uppers):
            raise ValueError(
                f"dimension {dim!r} is unbounded in {bset!r}"
            )
        tables[level] = BoundTable(dim, lowers, uppers)
        constraints = eliminate_variable(constraints, dim).constraints
    return tables


def iterate_points(
    bset: BasicSet, params: Mapping[str, int]
) -> Iterator[dict[str, int]]:
    """Yield every integer point as a ``{dim: value}`` dict.

    ``params`` must assign every parameter of the set's space.
    """
    missing = [p for p in bset.space.params if p not in params]
    if missing:
        raise ValueError(f"missing parameter values for {missing}")
    # Constant infeasibility (e.g. -1 >= 0) short-circuits.
    for c in bset.constraints:
        if c.is_contradiction():
            return
    param_only = [
        c for c in bset.constraints if c.variables() <= set(bset.space.params)
    ]
    assignment = {p: int(params[p]) for p in bset.space.params}
    for c in param_only:
        if not c.satisfied_by(assignment):
            return
    dims = list(bset.space.all_dims())
    if not dims:
        yield {}
        return
    # Infeasible sets can lose variable bounds during the internal
    # eliminations (a contradiction swallows the other constraints), so
    # settle emptiness — with the parameters fixed — before building the
    # scan tables.
    from repro.isl.linear import LinExpr

    bindings = {p: LinExpr.constant(v) for p, v in assignment.items()}
    fixed = [c.substitute(bindings) for c in bset.constraints]
    result = eliminate_variable_chain(fixed, dims)
    if any(c.is_contradiction() for c in result):
        return
    tables = dim_bound_tables(bset, check_bounded=True)
    constraints = list(bset.constraints)

    def scan(level: int, current: dict[str, int]) -> Iterator[dict[str, int]]:
        if level == len(dims):
            if all(c.satisfied_by(current) for c in constraints):
                yield {d: current[d] for d in dims}
            return
        table = tables[level]
        lo, hi = integer_interval(table.lowers, table.uppers, current)
        if lo is None or hi is None:
            raise ValueError(
                f"dimension {table.dim!r} not bounded under partial assignment"
            )
        for value in range(lo, hi + 1):
            current[table.dim] = value
            yield from scan(level + 1, current)
        current.pop(table.dim, None)

    yield from scan(0, dict(assignment))


def enumerate_points(
    obj, params: Mapping[str, int] | None = None
) -> list[tuple[int, ...]]:
    """All integer points of a BasicSet / Set / Map as sorted tuples.

    Points are tuples in the space's dimension order (for maps: input
    dims then output dims).  Unions are deduplicated.
    """
    from repro.isl.relation import BasicMap, Map
    from repro.isl.set_ops import Set

    params = params or {}
    if isinstance(obj, BasicSet):
        pieces = [obj]
    elif isinstance(obj, Set):
        pieces = list(obj.basic_sets)
    elif isinstance(obj, BasicMap):
        pieces = [obj.wrapped()]
    elif isinstance(obj, Map):
        pieces = [bm.wrapped() for bm in obj.basic_maps]
    else:
        raise TypeError(f"cannot enumerate {type(obj).__name__}")
    points: set[tuple[int, ...]] = set()
    for piece in pieces:
        dims = piece.space.all_dims()
        for point in iterate_points(piece, params):
            points.add(tuple(point[d] for d in dims))
    return sorted(points)


def count_points_concrete(obj, params: Mapping[str, int] | None = None) -> int:
    """Number of integer points (brute force)."""
    return len(enumerate_points(obj, params))
