"""Definition-level reference for mixed metric generator verification.

Builds the full all-pairs distance table and compares every element's
profile as a tuple.  Quadratic in n, so only for the small graphs the
tests compare the package's verifier against.
"""

import numpy as np

from mixedmetric import FailingPair, all_pairs_distances, element_order


def reference_is_mixed_generator(g, members):
    """Verdict and first failing pair, by grouping whole profile tuples."""
    order = sorted(set(members))
    dist = all_pairs_distances(g)
    rows = [dist[v] for v in range(g.n)] + [np.minimum(dist[u], dist[v]) for u, v in g.edges]
    by_profile = {}
    for idx, row in enumerate(rows):
        by_profile.setdefault(tuple(int(row[s]) for s in order), []).append(idx)
    clashes = [group for group in by_profile.values() if len(group) > 1]
    if not clashes:
        return True, None
    first, second = min((group[0], group[1]) for group in clashes)
    elements = element_order(g)
    return False, FailingPair(elements[first], elements[second])
