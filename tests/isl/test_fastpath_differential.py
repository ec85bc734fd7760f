"""Randomized differential suite for the ISL fast path.

Three-way agreement on randomly generated bounded systems:

* the **fast path** (gist pruning, emptiness/FM memoization, subset
  short-circuit — :mod:`repro.isl.fastpath`),
* the **slow path** (all toggles off: the textbook code path), and
* a **brute-force oracle** that scans the integer bounding box and
  checks each point against the raw constraints (no subtraction,
  projection or memo machinery involved).

The fast path's contract is stronger than point-set equality: gist
pruning only skips building disjuncts that are provably empty, so
``subtract`` must return *structurally identical* pieces on both
paths.  These tests pin that down alongside the semantic properties
(disjoint pieces, exact difference, subset/emptiness verdicts).
"""

from hypothesis import given, settings, strategies as st

from repro.isl import fastpath
from repro.isl.basic_set import BasicSet
from repro.isl.constraints import Constraint
from repro.isl.linear import LinExpr
from repro.isl.set_ops import Set
from repro.isl.space import Space

SPACE = Space.set_space(("i", "j"))
LO, HI = 0, 4
BOX_POINTS = [
    {"i": i, "j": j}
    for i in range(LO, HI + 1)
    for j in range(LO, HI + 1)
]


def box_constraints() -> list[Constraint]:
    out = []
    for name in ("i", "j"):
        out.append(Constraint.ineq(LinExpr.var(name) - LO))
        out.append(Constraint.ineq(LinExpr.constant(HI) - LinExpr.var(name)))
    return out


def oracle_points(s) -> set[tuple[int, int]]:
    """Brute-force: every box point the set's constraints accept."""
    return {
        (p["i"], p["j"]) for p in BOX_POINTS if s.satisfied_by(p)
    }


@st.composite
def random_constraint(draw) -> Constraint:
    a = draw(st.integers(-2, 2))
    b = draw(st.integers(-2, 2))
    c = draw(st.integers(-6, 6))
    expr = LinExpr({"i": a, "j": b}, c)
    if draw(st.booleans()):
        return Constraint.eq(expr)
    return Constraint.ineq(expr)


@st.composite
def random_basic_set(draw) -> BasicSet:
    extra = draw(st.lists(random_constraint(), max_size=3))
    return BasicSet(SPACE, box_constraints() + extra)


@st.composite
def random_set(draw) -> Set:
    pieces = draw(st.lists(random_basic_set(), min_size=1, max_size=3))
    return Set(SPACE, pieces)


@settings(max_examples=120, deadline=None)
@given(a=random_set(), b=random_set())
def test_subtract_matches_oracle_and_slow_path(a: Set, b: Set):
    fastpath.clear_memo()
    fast = a.subtract(b)
    with fastpath.slow_path():
        slow = a.subtract(b)

    expected = oracle_points(a) - oracle_points(b)
    assert oracle_points(fast) == expected
    # Gist pruning must not change the emitted decomposition, only
    # skip the provably-empty disjuncts.
    assert fast.basic_sets == slow.basic_sets
    # The negation-chain decomposition of a single conjunctive minuend
    # is disjoint: every point lies in exactly one piece.  (Distinct
    # pieces of a union minuend may legitimately overlap.)
    if len(a.basic_sets) == 1:
        for point in expected:
            assignment = {"i": point[0], "j": point[1]}
            owners = sum(
                1
                for piece in fast.basic_sets
                if piece.satisfied_by(assignment)
            )
            assert owners == 1


@settings(max_examples=150, deadline=None)
@given(bset=random_basic_set())
def test_is_empty_fast_slow_and_oracle_agree(bset: BasicSet):
    truly_empty = not oracle_points(Set.from_basic(bset))
    fastpath.clear_memo()
    # Fresh structurally-equal copies so the per-instance verdict cache
    # cannot mask a memo bug.
    fresh = BasicSet(SPACE, list(bset.constraints))
    verdict = fresh.is_empty()
    # ``is_empty`` is documented sound-but-conservative: an "empty"
    # verdict must be true, a "non-empty" verdict may be a rational
    # artifact (elimination went inexact).
    if verdict:
        assert truly_empty
    if not truly_empty:
        assert not verdict
    warm = BasicSet(SPACE, list(bset.constraints))
    assert warm.is_empty() == verdict  # memo-warm answer
    with fastpath.slow_path():
        slow = BasicSet(SPACE, list(bset.constraints))
        assert slow.is_empty() == verdict


def test_is_empty_combined_equality_gcd():
    """``j == 0`` with ``2i - j - 1 == 0`` forces ``2i == 1``: integer
    empty though rationally feasible.  Found by hypothesis; decided
    exactly by the equality-substitution pass."""
    constraints = box_constraints() + [
        Constraint.eq(LinExpr.var("j")),
        Constraint.eq(
            LinExpr({"i": 2, "j": -1}, -1)
        ),
    ]
    fastpath.clear_memo()
    assert BasicSet(SPACE, constraints).is_empty()
    with fastpath.slow_path():
        assert BasicSet(SPACE, list(constraints)).is_empty()


@settings(max_examples=120, deadline=None)
@given(a=random_set(), b=random_set())
def test_is_subset_of_matches_oracle_and_slow_path(a: Set, b: Set):
    fastpath.clear_memo()
    expected = oracle_points(a) <= oracle_points(b)
    verdict = a.is_subset_of(b)
    # Subset verdicts inherit ``is_empty``'s conservatism: "subset"
    # must be true, "not subset" may stem from a rationally-nonempty
    # (integer-empty) remainder.
    if verdict:
        assert expected
    if not expected:
        assert not verdict
    with fastpath.slow_path():
        assert a.is_subset_of(b) == verdict


@settings(max_examples=120, deadline=None)
@given(s=random_set())
def test_coalesce_preserves_points(s: Set):
    fastpath.clear_memo()
    coalesced = s.coalesce()
    assert oracle_points(coalesced) == oracle_points(s)
    assert len(coalesced.basic_sets) <= len(s.basic_sets)
    with fastpath.slow_path():
        slow = s.coalesce()
    assert coalesced.basic_sets == slow.basic_sets


def test_duplicate_pieces_coalesced():
    piece = BasicSet(SPACE, box_constraints())
    s = Set(SPACE, [piece, BasicSet(SPACE, box_constraints())])
    assert len(s.coalesce().basic_sets) == 1


def test_slow_path_restores_fast_path():
    assert fastpath.fast_path_enabled()
    with fastpath.slow_path():
        assert not fastpath.fast_path_enabled()
    assert fastpath.fast_path_enabled()


def test_memo_stats_count_hits():
    from repro.service.store import store_stats

    fastpath.clear_memo()
    constraints = box_constraints()
    BasicSet(SPACE, list(constraints)).is_empty()
    before = store_stats()["isl_empty"]["hits"]
    BasicSet(SPACE, list(constraints)).is_empty()
    assert store_stats()["isl_empty"]["hits"] == before + 1
