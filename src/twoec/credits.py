"""Credit/cost accounting and bridge covering.

Credits are counted in exact quarter-integer units and totalled as a
Fraction, and cost(H) = |H| + credit(H).  Bridge covering is a
bounded ear-augmentation search whose only contract is the one the analysis
needs: each iteration strictly decreases the bridge count at non-increasing
cost, preserving canonical form.  `Stuck` is a first-class outcome carrying a
serializable counterexample.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .cover import TwoEdgeCover, check_canonical, swap
from .errors import NotCanonical, Stuck
from .graph import MultiGraph

MAX_EAR = 4        # longest ear (in non-cover edges) bridge covering tries


def init_credits(h: TwoEdgeCover) -> Fraction:
    """Total credit of h per the credit scheme; requires a canonical cover."""
    violations = check_canonical(h)
    if violations:
        raise NotCanonical(violations)
    return _credit(h)


def _credit(h: TwoEdgeCover) -> Fraction:
    """Total credit of h, which is known to be canonical."""
    d = h.decomposition
    kinds = h.classification()
    # check_canonical has rejected every "Other" component: Large2EC 2,
    # complex 1, C_i i/4
    quarters = sum(8 if kind == "Large2EC" else 4 if kind == "Complex"
                   else int(kind[1:]) for kind in kinds)
    # credit 1 per block of a complex component, 1/4 per bridge
    quarters += 4 * sum(kinds[c] == "Complex" for c in d.block_component)
    quarters += len(d.bridges)
    return Fraction(quarters, 4)


def cost(h: TwoEdgeCover) -> Fraction:
    """|h| + credit(h).  h is taken to be canonical, as every cover that
    `cover.swap` accepts is; `init_credits` checks it."""
    return Fraction(len(h.members)) + _credit(h)


def assert_cost_bound(h: TwoEdgeCover):
    """cost(H) <= (5/4)|H| for canonical covers, in exact arithmetic."""
    c = cost(h)
    bound = Fraction(5, 4) * len(h.members)
    if c > bound:
        raise AssertionError(f"cost bound violated: cost={c} > (5/4)|H|={bound}")
    return c


# ---------------------------------------------------------------------------
# bridge covering

def _ear_candidates(g: MultiGraph, h: TwoEdgeCover, max_len: int):
    """Paths of 1..max_len non-cover edges whose ends lie in one cover
    component but different 2EC classes (so the ear covers >= 1 bridge)."""
    comp_of, class_of = h.decomposition.component_of, h.decomposition.class_of
    non_cover = [(e, u, v) for e, u, v in sorted(g.edges)
                 if e not in h.members]
    nc_adj = {}
    for e, u, v in non_cover:
        nc_adj.setdefault(u, []).append((v, e))
        nc_adj.setdefault(v, []).append((u, e))
    for lst in nc_adj.values():
        lst.sort()

    def good(x, y):
        return comp_of[x] == comp_of[y] and class_of[x] != class_of[y]

    # BFS-free exhaustive DFS for short ears, by increasing length
    for length in range(1, max_len + 1):
        if length == 1:
            for e, u, v in non_cover:
                if good(u, v):
                    yield (u, v, (e,))
            continue
        for x in sorted(nc_adj):
            stack = [(x, (), (x,))]
            while stack:
                cur, eids, vs = stack.pop()
                if len(eids) == length:
                    if good(x, cur):
                        yield (x, cur, eids)
                    continue
                for w, e in nc_adj.get(cur, ()):
                    if w in vs or e in eids:
                        continue
                    if len(eids) + 1 == length and not good(x, w):
                        continue
                    stack.append((w, eids + (e,), vs + (w,)))


def _local_removal_pool(h: TwoEdgeCover, x, y):
    """Cover edges of the blocks containing x and y (where canonical-form
    repairs are ever needed after an ear merges blocks).  A block is the
    non-bridge edges of one 2EC class."""
    d = h.decomposition
    emap = h.host.edge_map()
    classes = {d.class_of[x], d.class_of[y]}
    return sorted(e for e in h.members
                  if e not in d.bridges and d.class_of[emap[e][0]] in classes)


def cover_bridges(g: MultiGraph, h: TwoEdgeCover, observer=None) -> TwoEdgeCover:
    """Transform a canonical cover into a bridgeless canonical cover.

    Each iteration takes, for every ear, the first removal set (smallest
    first) whose move keeps the cover canonical, lowers the bridge count and
    does not raise the cost, and applies the least of them by (bridges, cost,
    ear, removal set), the first on ties.  Ears with a local removal pool are
    tried before ears with the whole cover as pool.  The bridge count falls
    every iteration, so the loop ends; it raises Stuck with diagnostics when
    no move exists within the search caps.
    `observer(bridge_count, cost)` is called once on entry and after every
    applied move, for contract instrumentation.
    """
    init_credits(h)                # raises NotCanonical unless h is canonical
    cur, cur_cost = h, cost(h)
    while True:
        nbridges = len(cur.decomposition.bridges)
        if observer is not None:
            observer(nbridges, cur_cost)
        if nbridges == 0:
            return cur
        moves = []                 # (key, cover, cost), one per working ear
        for widen in (False, True):
            for x, y, add in _ear_candidates(g, cur, MAX_EAR):
                pool = _local_removal_pool(cur, x, y) if not widen else \
                    sorted(cur.members)
                for remove in itertools.chain(
                        [()], itertools.combinations(pool, 1),
                        itertools.combinations(pool, 2)):
                    cand = swap(g, cur, add, remove)
                    if cand is None or \
                            len(cand.decomposition.bridges) >= nbridges:
                        continue
                    new_cost = cost(cand)
                    if new_cost > cur_cost:
                        continue
                    moves.append(((len(cand.decomposition.bridges), new_cost,
                                   tuple(sorted(add)), tuple(sorted(remove))),
                                  cand, new_cost))
                    break          # smallest removal set for this ear suffices
            if moves:
                break
        if not moves:
            raise Stuck({
                "phase": "cover_bridges",
                "bridges": sorted(cur.decomposition.bridges),
                "cover": sorted(cur.members),
                "host_n": g.n,
                "host_edges": [(e, u, v) for e, u, v in g.edges],
            })
        _, cur, cur_cost = min(moves, key=lambda move: move[0])
