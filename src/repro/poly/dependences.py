"""Exact (last-writer) flow dependence analysis.

The paper's Algorithm 1 consumes *exact* RAW dependences: pairs
``(s, t)`` where write instance ``s`` is the **last** writer of the
cell read by instance ``t`` (Section 3.1, "we consider exact
dependences and exclude transitive dependences").

This module computes them with the classical kill-based construction,
entirely on top of the ISL substrate:

1. *May* dependences for a (write S, read R of T) pair: instances with
   equal cells, with ``s`` scheduled before ``t``.
2. *Kills*: a may pair is killed when another write instance ``u`` (of
   any statement U writing the same array) touches the same cell
   strictly between ``s`` and ``t``.  The kill set is an existential
   projection over ``u``.
3. ``exact = may − kills`` with exact integer subtraction.

Dimension naming: relation input dims are the source iterators suffixed
``__s``, outputs the target iterators suffixed ``__t`` (self-dependences
therefore stay well-formed).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isl.basic_set import BasicSet
from repro.isl.constraints import Constraint
from repro.isl.relation import BasicMap, Map
from repro.isl.set_ops import Set
from repro.isl.space import Space
from repro.ir.accesses import Access
from repro.poly.model import PolyhedralModel, StatementInfo
from repro.poly.precedence import precedence_branches

SOURCE_SUFFIX = "__s"
TARGET_SUFFIX = "__t"
KILL_SUFFIX = "__k"


@dataclass
class FlowDependence:
    """Exact flow dependence from a write to one read reference."""

    source: StatementInfo
    target: StatementInfo
    read: Access
    read_position: int
    """Index of the read within ``target.reads`` (a statement can read
    the same array several times; each read is tracked separately)."""
    relation: Map
    """``{ source_iters__s -> target_iters__t }`` exact dependence."""

    def __repr__(self) -> str:
        return (
            f"FlowDependence({self.source.label} -> {self.target.label}"
            f" via {self.read.ref}, {self.relation!r})"
        )


def _rename_map(info: StatementInfo, suffix: str) -> dict[str, str]:
    return {it: it + suffix for it in info.iterators}


def _renamed_domain_constraints(
    info: StatementInfo, suffix: str
) -> list[Constraint]:
    mapping = _rename_map(info, suffix)
    return [c.rename(mapping) for c in info.domain.constraints]


def _cell_equalities(
    write: Access, write_rename: dict[str, str], read: Access, read_rename: dict[str, str]
) -> list[Constraint]:
    """Subscript equalities between a write and a read of one array."""
    assert write.index_affine is not None and read.index_affine is not None
    constraints: list[Constraint] = []
    for w_index, r_index in zip(write.index_affine, read.index_affine):
        constraints.append(
            Constraint.eq_exprs(w_index.rename(write_rename), r_index.rename(read_rename))
        )
    return constraints


def may_dependence(
    source: StatementInfo,
    target: StatementInfo,
    read: Access,
    params: tuple[str, ...],
) -> Map:
    """Access-equal, schedule-ordered (may) dependence pairs."""
    s_rename = _rename_map(source, SOURCE_SUFFIX)
    t_rename = _rename_map(target, TARGET_SUFFIX)
    space = Space.map_space(
        tuple(s_rename[it] for it in source.iterators),
        tuple(t_rename[it] for it in target.iterators),
        params=params,
        in_name=source.label,
        out_name=target.label,
    )
    base: list[Constraint] = []
    base += _renamed_domain_constraints(source, SOURCE_SUFFIX)
    base += _renamed_domain_constraints(target, TARGET_SUFFIX)
    base += _cell_equalities(source.write, s_rename, read, t_rename)
    branches = precedence_branches(
        source.schedule, target.schedule, s_rename, t_rename
    )
    pieces = [BasicMap(space, base + branch) for branch in branches]
    return Map(space, pieces)


def kill_set(
    source: StatementInfo,
    killer: StatementInfo,
    target: StatementInfo,
    read: Access,
    params: tuple[str, ...],
    relation_space: Space,
) -> Map:
    """Pairs (s, t) killed by an intermediate write of ``killer``."""
    s_rename = _rename_map(source, SOURCE_SUFFIX)
    k_rename = _rename_map(killer, KILL_SUFFIX)
    t_rename = _rename_map(target, TARGET_SUFFIX)
    kill_dims = tuple(k_rename[it] for it in killer.iterators)
    wrapped_space = Space.set_space(
        relation_space.in_dims + kill_dims + relation_space.out_dims,
        params=params,
    )
    base: list[Constraint] = []
    base += _renamed_domain_constraints(source, SOURCE_SUFFIX)
    base += _renamed_domain_constraints(killer, KILL_SUFFIX)
    base += _renamed_domain_constraints(target, TARGET_SUFFIX)
    # The killer writes the same cell that t reads (hence also the cell
    # s wrote, by transitivity with the may constraints).
    base += _cell_equalities(killer.write, k_rename, read, t_rename)
    s_before_k = precedence_branches(
        source.schedule, killer.schedule, s_rename, k_rename
    )
    k_before_t = precedence_branches(
        killer.schedule, target.schedule, k_rename, t_rename
    )
    pieces: list[BasicMap] = []
    for branch1 in s_before_k:
        for branch2 in k_before_t:
            big = BasicSet(wrapped_space, base + branch1 + branch2)
            if big.is_empty():
                continue
            projected, _ = big.project_out(list(kill_dims))
            small_space = Space.set_space(
                relation_space.in_dims + relation_space.out_dims, params=params
            )
            pieces.append(
                BasicMap(relation_space, projected.with_space(small_space).constraints)
            )
    return Map(relation_space, pieces)


def compute_flow_dependences(model: PolyhedralModel) -> list[FlowDependence]:
    """All exact flow dependences of the model's affine fragment.

    Statements under ``while`` loops are excluded — their
    cross-iteration behaviour is handled by the general scheme and
    inspectors (Section 4).
    """
    params = tuple(model.program.params)
    statements = [s for s in model.statements if not s.in_while]
    dependences: list[FlowDependence] = []
    writers_by_array: dict[str, list[StatementInfo]] = {}
    for info in statements:
        if info.write.is_affine:
            writers_by_array.setdefault(info.write.target, []).append(info)
    for target in statements:
        for position, read in enumerate(target.reads):
            if not read.is_affine:
                continue
            array = read.target
            for source in writers_by_array.get(array, []):
                may = may_dependence(source, target, read, params)
                if may.is_empty():
                    continue
                exact = may
                for killer in writers_by_array.get(array, []):
                    kills = kill_set(
                        source, killer, target, read, params, may.space
                    )
                    if not kills.is_empty():
                        exact = exact.subtract(kills)
                    if exact.is_empty():
                        break
                if not exact.is_empty():
                    dependences.append(
                        FlowDependence(
                            source=source,
                            target=target,
                            read=read,
                            read_position=position,
                            relation=exact,
                        )
                    )
    return dependences


def covered_target_instances(
    dependences: list[FlowDependence],
    target: StatementInfo,
    read_position: int,
    params: tuple[str, ...],
) -> Set:
    """Target instances of a read that *have* a last writer.

    The complement (within the target's domain) reads live-in data —
    needed for the prologue of Algorithm 3 (line 1).
    """
    t_rename = _rename_map(target, TARGET_SUFFIX)
    space = Space.set_space(
        tuple(t_rename[it] for it in target.iterators),
        params=params,
        name=target.label,
    )
    covered = Set.empty(space)
    for dep in dependences:
        if dep.target is target and dep.read_position == read_position:
            rng = dep.relation.range_set()
            covered = covered.union(rng.with_space(space))
    return covered
