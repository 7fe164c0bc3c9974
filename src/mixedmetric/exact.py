"""Exact mixed metric dimension of trees, unicyclic graphs, and cacti.

The dimension decomposes structurally: every leaf is forced into the
generator, every cycle needs enough activated ring positions to form a
geodesic triple, and a cycle whose root vertices are three or more yet
admit no triple costs one extra vertex.  The total is

    leaf count  +  sum over cycles of max(3 - rt, 0)  +  delta,

where delta counts the cycles needing the extra vertex.  Every public
function reads the one decomposition structure.decompose keeps on the
graph, and the construction of a certified minimum generator follows the
report mdim_exact computes from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .errors import CycleExcludedError, InvariantError, NotACactusError
from .graph import Graph
from .oracle import is_mixed_generator
from .structure import (
    CycleInfo,
    GraphClassTag,
    augment_for_triple,
    decompose,
    has_geodesic_triple,
)


@dataclass(frozen=True)
class CycleTerm:
    """Contribution of one cycle to the exact dimension."""

    cycle_id: int
    rt: int
    max_term: int
    needs_delta: bool


@dataclass(frozen=True)
class MdimReport:
    """Exact dimension broken into leaf, per-cycle, and delta parts."""

    l1: int
    per_cycle: tuple[CycleTerm, ...]
    delta: int
    total: int


@dataclass(frozen=True)
class GeneratorCertificate:
    """A minimum mixed metric generator with its role breakdown.

    vertices is the whole set; sa are the leaves, sb the non-root ring
    vertices added per cycle to complete a geodesic triple, and sc the one
    extra ring vertex per cycle whose roots admit no triple.  The three
    parts are pairwise disjoint and verified is the oracle's confirmation.
    """

    vertices: tuple[int, ...]
    sa: tuple[int, ...]
    sb: tuple[tuple[int, ...], ...]
    sc: tuple[tuple[int, ...], ...]
    verified: bool


@dataclass(frozen=True)
class BoundReport:
    bound: int
    attained: bool


def _cycle_terms(cycles: Iterable[CycleInfo]) -> tuple[CycleTerm, ...]:
    terms = []
    for i, c in enumerate(cycles):
        needs = c.rt >= 3 and not has_geodesic_triple(c.length, c.root_positions)
        terms.append(CycleTerm(cycle_id=i, rt=c.rt, max_term=max(3 - c.rt, 0), needs_delta=needs))
    return tuple(terms)


def mdim_exact(g: Graph) -> MdimReport:
    """Exact mixed metric dimension of a tree, unicyclic graph, or cactus.

    Raises NotACactusError otherwise; general graphs need the oracle.
    """
    d = decompose(g)
    if not d.graph_class.in_cactus_family:
        raise NotACactusError("exact formula applies to cacti only")
    l1 = d.stats.l1
    terms = _cycle_terms(d.cycles)
    delta = sum(t.needs_delta for t in terms)
    total = l1 + sum(t.max_term for t in terms) + delta
    return MdimReport(l1=l1, per_cycle=terms, delta=delta, total=total)


def build_min_generator(g: Graph) -> GeneratorCertificate:
    """Construct and verify a minimum mixed metric generator of a cactus.

    Every leaf goes in.  On a cycle with fewer than three roots, enough
    non-root ring vertices are added for the activated positions to gain a
    geodesic triple; on a cycle whose three-plus roots lack a triple, one
    ring vertex completing a triple is added.  Choices are deterministic
    (lexicographically smallest ring positions), and the result is checked
    against the definition-level oracle.
    """
    report = mdim_exact(g)
    d = decompose(g)

    sa = tuple(sorted(d.stats.leaf_set))
    sb: list[tuple[int, ...]] = []
    sc: list[tuple[int, ...]] = []
    for term, cycle in zip(report.per_cycle, d.cycles):
        if term.max_term > 0:
            added = augment_for_triple(cycle.length, cycle.root_positions,
                                       forbidden=cycle.root_positions)
            if len(added) != term.max_term:
                raise InvariantError(
                    f"cycle {term.cycle_id}: {len(added)} ring vertices added, "
                    f"formula term is {term.max_term}"
                )
            sb.append(tuple(sorted(cycle.ring[p] for p in added)))
        else:
            sb.append(())
        if term.needs_delta:
            added = augment_for_triple(cycle.length, cycle.root_positions)
            if len(added) != 1:
                raise InvariantError(
                    f"cycle {term.cycle_id}: {len(added)} delta vertices added, expected 1"
                )
            sc.append(tuple(sorted(cycle.ring[p] for p in added)))
        else:
            sc.append(())

    chosen = set(sa)
    chosen.update(v for part in sb for v in part)
    chosen.update(v for part in sc for v in part)
    vertices = tuple(sorted(chosen))
    if len(vertices) != report.total:
        raise InvariantError(
            f"construction produced {len(vertices)} vertices, formula says {report.total}"
        )
    ok, _ = is_mixed_generator(g, vertices)
    return GeneratorCertificate(vertices=vertices, sa=sa, sb=tuple(sb), sc=tuple(sc), verified=ok)


def bound_report(g: Graph) -> BoundReport:
    """Leaf-count-plus-two-per-cycle upper bound and whether it is attained.

    The bound statement excludes the bare cycle C_n (CycleExcludedError).
    Equality holds exactly when every cycle has exactly one root vertex;
    for a tree the bound equals the dimension outright.
    """
    d = decompose(g)
    info = d.graph_class
    if not info.in_cactus_family:
        raise NotACactusError("bound statement applies to cacti only")
    if info.tag is GraphClassTag.CYCLE:
        raise CycleExcludedError("the bound excludes the bare cycle C_n")
    return BoundReport(
        bound=d.stats.l1 + 2 * info.cycle_count,
        attained=all(c.rt == 1 for c in d.cycles),
    )
