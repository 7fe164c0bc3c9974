"""Exact mixed metric dimension of trees, unicyclic graphs, and cacti.

The dimension decomposes structurally: every leaf is forced into the
generator, every cycle needs enough activated ring positions to form a
geodesic triple, and a cycle whose root vertices are three or more yet
admit no triple costs one extra vertex.  The total is

    leaf count  +  sum over cycles of max(3 - rt, 0)  +  delta,

where delta counts the cycles needing the extra vertex.  Every public
function reads the one decomposition structure.decompose keeps on the
graph.  The construction of a certified minimum generator follows the
report mdim_exact computes from it: each cycle's part of the generator is
one structure.augment_for_triple call, checked against its formula term.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import CycleExcludedError, InvariantError, NotACactusError
from .graph import Graph
from .structure import GraphClassTag, augment_for_triple, decompose, has_geodesic_triple


class CycleTerm(NamedTuple):
    """Contribution of one cycle to the exact dimension."""

    cycle_id: int
    rt: int
    max_term: int
    needs_delta: bool


class MdimReport(NamedTuple):
    """Exact dimension broken into leaf, per-cycle, and delta parts."""

    l1: int
    per_cycle: tuple[CycleTerm, ...]
    delta: int
    total: int


class GeneratorCertificate(NamedTuple):
    """A minimum mixed metric generator with its role breakdown.

    vertices is the whole set; sa are the leaves, sb the non-root ring
    vertices added per cycle to complete a geodesic triple, and sc the one
    extra ring vertex per cycle whose roots admit no triple.  The three
    parts are pairwise disjoint, and verified is always True (see build_min_generator).
    """

    vertices: tuple[int, ...]
    sa: tuple[int, ...]
    sb: tuple[tuple[int, ...], ...]
    sc: tuple[tuple[int, ...], ...]
    verified: bool


class BoundReport(NamedTuple):
    bound: int
    attained: bool


def mdim_exact(g: Graph) -> MdimReport:
    """Exact mixed metric dimension of a tree, unicyclic graph, or cactus.

    Raises NotACactusError otherwise; general graphs need the oracle.
    """
    d = decompose(g)
    if d.cycles is None:
        raise NotACactusError("exact formula applies to cacti only")
    l1 = d.stats.l1
    terms: list[CycleTerm] = []
    # tuple.__new__ skips the NamedTuple's Python-level __new__, once per cycle.
    new = tuple.__new__
    max_terms = delta = 0
    for i, (ring, roots) in enumerate(d.cycles):
        rt = len(roots)
        max_term = 3 - rt if rt < 3 else 0
        needs_delta = rt >= 3 and not has_geodesic_triple(len(ring), roots)
        terms.append(new(CycleTerm, (i, rt, max_term, needs_delta)))
        max_terms += max_term
        delta += needs_delta
    return MdimReport(l1=l1, per_cycle=tuple(terms), delta=delta, total=l1 + max_terms + delta)


def build_min_generator(g: Graph) -> GeneratorCertificate:
    """Construct and verify a minimum mixed metric generator of a cactus.

    Every leaf goes in (sa).  Each cycle then adds the one completion
    augment_for_triple gives its roots, whose size must be the cycle's
    max_term plus its delta: 3 - rt non-root vertices when rt < 3 (sb), one
    vertex when three or more roots lack a triple (sc).  Choices are
    deterministic (lexicographically smallest ring positions), and a result
    the definition-level oracle refutes raises InvariantError.
    """
    report = mdim_exact(g)
    d = decompose(g)

    sa = tuple(sorted(d.stats.leaf_set))
    sb: list[tuple[int, ...]] = []
    sc: list[tuple[int, ...]] = []
    for term, (ring, roots) in zip(report.per_cycle, d.cycles):
        expected = term.max_term + term.needs_delta
        positions = augment_for_triple(len(ring), roots) if expected else ()
        if len(positions) != expected:
            raise InvariantError(
                f"cycle {term.cycle_id}: {len(positions)} ring vertices added, "
                f"formula term is {expected}"
            )
        added = tuple(sorted(ring[p] for p in positions))
        # needs_delta needs rt >= 3, where max_term is 0: one part stays empty.
        sb.append(() if term.needs_delta else added)
        sc.append(added if term.needs_delta else ())

    chosen = set(sa)
    chosen.update(v for part in sb for v in part)
    chosen.update(v for part in sc for v in part)
    vertices = tuple(sorted(chosen))
    if len(vertices) != report.total:
        raise InvariantError(
            f"construction produced {len(vertices)} vertices, formula says {report.total}"
        )
    # Imported here so that the formula alone (dim, bounds) never loads the oracle.
    from .oracle import is_mixed_generator
    if not is_mixed_generator(g, vertices)[0]:
        raise InvariantError("constructed generator failed oracle verification")
    return GeneratorCertificate(vertices=vertices, sa=sa, sb=tuple(sb), sc=tuple(sc), verified=True)


def bound_report(g: Graph) -> BoundReport:
    """Leaf-count-plus-two-per-cycle upper bound and whether it is attained.

    The bound statement excludes the bare cycle C_n (CycleExcludedError).
    Equality holds exactly when every cycle has exactly one root vertex;
    for a tree the bound equals the dimension outright.
    """
    d = decompose(g)
    if d.cycles is None:
        raise NotACactusError("bound statement applies to cacti only")
    if d.graph_class.tag is GraphClassTag.CYCLE:
        raise CycleExcludedError("the bound excludes the bare cycle C_n")
    return BoundReport(
        bound=d.stats.l1 + 2 * len(d.cycles),
        attained=all(c.rt == 1 for c in d.cycles),
    )
