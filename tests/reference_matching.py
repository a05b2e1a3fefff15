"""Reference maximum matching for the tests: every matching of a small
graph, searched exhaustively.

The lowest undecided vertex is either left out or matched to one of its
undecided neighbours; the best over the remaining vertex set is memoized
per bitmask, so a graph with at most 12 vertices takes at most 4096
states.  No blossoms and no augmenting paths: it is the oracle that
`bounds.max_matching_size` is checked against.
"""

from functools import lru_cache

LIMIT = 12


def max_matching_size(g):
    """nu(G) of a graph with at most LIMIT vertices."""
    if g.n > LIMIT:
        raise ValueError(f"{g.n} vertices; the search is for at most {LIMIT}")
    adj = [0] * g.n
    for u, v in g.edges:
        adj[u - 1] |= 1 << (v - 1)
        adj[v - 1] |= 1 << (u - 1)

    @lru_cache(maxsize=None)
    def best(left):
        if not left:
            return 0
        low = left & -left
        rest = left ^ low
        out = best(rest)  # the lowest vertex stays unmatched
        others = adj[low.bit_length() - 1] & rest
        while others:
            w = others & -others
            out = max(out, 1 + best(rest ^ w))
            others ^= w
        return out

    return best((1 << g.n) - 1)
