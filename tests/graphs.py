"""Hand-built graphs shared across the test modules."""

from mixedmetric import Graph, build_graph


def path(n: int) -> Graph:
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> Graph:
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def star(leaves: int) -> Graph:
    return build_graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def complete(n: int) -> Graph:
    return build_graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def bowtie() -> Graph:
    # Two triangles sharing vertex 0.
    return build_graph(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])


def tadpole() -> Graph:
    # C4 with a pendant path of two vertices at ring vertex 0.
    return build_graph(6, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5)])


def cycle_with_pendants(length: int, positions: list[int]) -> Graph:
    """Ring 0..length-1 plus one pendant leaf at each listed ring vertex."""
    edges = [(i, (i + 1) % length) for i in range(length)]
    edges += [(p, length + k) for k, p in enumerate(positions)]
    return build_graph(length + len(positions), edges)


def triangle_chain(c: int) -> Graph:
    """c triangles, consecutive ones joined by a bridge between anchor vertices.

    Each triangle uses a single anchor for both of its bridges, so every
    cycle has exactly one root vertex.
    """
    edges = []
    for i in range(c):
        a, b, r = 3 * i, 3 * i + 1, 3 * i + 2
        edges += [(a, b), (b, r), (r, a)]
        if i > 0:
            edges.append((3 * (i - 1) + 2, a + 2))
    return build_graph(3 * c, edges)


def prism() -> Graph:
    # Triangles (0,1,2) and (3,4,5) joined by a perfect matching.
    return build_graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                           (0, 3), (1, 4), (2, 5)])


def k33() -> Graph:
    return build_graph(6, [(u, v) for u in (0, 1, 2) for v in (3, 4, 5)])


def wheel(rim: int) -> Graph:
    edges = [(i, (i + 1) % rim) for i in range(rim)]
    edges += [(rim, i) for i in range(rim)]
    return build_graph(rim + 1, edges)


def theta(p: int, q: int, r: int) -> Graph:
    """Poles 0 and 1 joined by internally disjoint paths of p, q and r edges.

    The inner vertices are numbered from 2 up, path by path, each path in
    order from pole 0; q >= 2 keeps the graph simple.
    """
    edges, nxt = [], 2
    for length in (p, q, r):
        inner = list(range(nxt, nxt + length - 1))
        nxt += length - 1
        ends = [0, *inner, 1]
        edges += zip(ends, ends[1:])
    return build_graph(nxt, edges)
