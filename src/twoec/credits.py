"""Credit/cost accounting and bridge covering.

Credits are kept in exact quarter-integer units (plain ints counting 1/4s),
and cost(H) = |H| + credit(H) is exposed as a Fraction.  Bridge covering is a
bounded ear-augmentation search whose only contract is the one the analysis
needs: each iteration strictly decreases the bridge count at non-increasing
cost, preserving canonical form.  `Stuck` is a first-class outcome carrying a
serializable counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .cover import TwoEdgeCover, check_canonical, is_tf_two_edge_cover
from .errors import NotCanonical, Stuck
from .graph import MultiGraph

MAX_EAR = 4        # longest ear (in non-cover edges) bridge covering tries


@dataclass
class CreditLedger:
    quarter_credits: dict = field(default_factory=dict)

    def total_quarters(self) -> int:
        return sum(self.quarter_credits.values())

    def total(self) -> Fraction:
        return Fraction(self.total_quarters(), 4)


def init_credits(h: TwoEdgeCover) -> CreditLedger:
    """Ledger per the credit scheme; requires a canonical cover."""
    violations = check_canonical(h)
    if violations:
        raise NotCanonical(violations)
    d = h.decomposition
    ledger = CreditLedger()
    complex_comps = set()
    emap = h.host.edge_map()
    for e in d.bridges:
        complex_comps.add(d.component_of[emap[e][0]])
    for ci, comp in enumerate(d.components):
        key = ("comp", comp[0])
        cls = h.classify_component(ci)
        if cls.startswith("C") and cls != "Complex":
            ledger.quarter_credits[key] = int(cls[1:])       # i/4 for a C_i
        elif cls == "Large2EC":
            ledger.quarter_credits[key] = 8                  # credit 2
        elif cls == "Complex":
            ledger.quarter_credits[key] = 4                  # component credit 1
        else:
            raise NotCanonical([("SmallNonCycleComponent", tuple(comp))])
    for bi, block in enumerate(d.blocks):
        if d.block_component[bi] in complex_comps:
            ledger.quarter_credits[("block", block[0])] = 4  # credit 1 per block
    for e in sorted(d.bridges):
        ledger.quarter_credits[("bridge", e)] = 1            # credit 1/4 per bridge
    return ledger


def cost(h: TwoEdgeCover, ledger: CreditLedger | None = None) -> Fraction:
    if ledger is None:
        ledger = init_credits(h)
    return Fraction(len(h.members)) + ledger.total()


def assert_cost_bound(h: TwoEdgeCover, ledger: CreditLedger | None = None):
    """cost(H) <= (5/4)|H| for canonical covers, in exact arithmetic."""
    c = cost(h, ledger)
    bound = Fraction(5, 4) * len(h.members)
    if c > bound:
        raise AssertionError(f"cost bound violated: cost={c} > (5/4)|H|={bound}")
    return c


# ---------------------------------------------------------------------------
# bridge covering

def _bridge_path_classes(h: TwoEdgeCover):
    """(component_of, class_of, tree adjacency) for the cover's bridge forest.

    Vertices of one cover component fall into 2EC classes; the classes form a
    tree whose edges are the bridges.
    """
    d = h.decomposition
    emap = h.host.edge_map()
    class_of = d.class_of
    tree = {}
    for e in d.bridges:
        u, v = emap[e]
        tree.setdefault(class_of[u], []).append((class_of[v], e))
        tree.setdefault(class_of[v], []).append((class_of[u], e))
    return d.component_of, class_of, tree


def _bridges_between(tree, a, b):
    """Bridge ids on the unique tree path between classes a and b (may be [])."""
    if a == b:
        return []
    prev = {a: (None, None)}
    stack = [a]
    while stack:
        x = stack.pop()
        if x == b:
            break
        for y, e in tree.get(x, ()):
            if y not in prev:
                prev[y] = (x, e)
                stack.append(y)
    if b not in prev:
        return []
    out = []
    x = b
    while prev[x][0] is not None:
        out.append(prev[x][1])
        x = prev[x][0]
    return out


def _ear_candidates(g: MultiGraph, h: TwoEdgeCover, max_len: int):
    """Paths of 1..max_len non-cover edges whose ends lie in one cover
    component but different 2EC classes (so the ear covers >= 1 bridge)."""
    comp_of, class_of, _tree = _bridge_path_classes(h)
    emap = g.edge_map()
    non_cover = [(e, u, v) for e, u, v in sorted(g.edges)
                 if e not in h.members and u != v]
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
    repairs are ever needed after an ear merges blocks)."""
    d = h.decomposition
    emap = h.host.edge_map()
    pool = set()
    for block in d.blocks:
        vs = set()
        for e in block:
            u, v = emap[e]
            vs.add(u)
            vs.add(v)
        if x in vs or y in vs:
            pool.update(block)
    return sorted(pool)


def _keeps_degree_two(emap, deg, add, remove):
    """True iff the cover with degrees `deg`, with `remove` taken out and
    `add` put in, still has degree >= 2 at every endpoint of `remove`."""
    delta = {}
    for e in remove:
        for x in emap[e]:
            delta[x] = delta.get(x, 0) - 1
    for e in add:
        for x in emap[e]:
            if x in delta:
                delta[x] += 1
    return all(deg[x] + d >= 2 for x, d in delta.items())


def _evaluate(g, h, deg, old_bridges, old_cost, add, remove):
    # a vertex left below degree 2 fails is_tf_two_edge_cover anyway
    if not _keeps_degree_two(g.edge_map(), deg, add, remove):
        return None
    new_members = (h.members - set(remove)) | set(add)
    if not is_tf_two_edge_cover(g, new_members):
        return None
    cand = h.replace(new_members)
    if len(cand.decomposition.bridges) >= old_bridges:
        return None
    if check_canonical(cand):
        return None
    new_cost = cost(cand)
    if new_cost > old_cost:
        return None
    return cand, new_cost


def cover_bridges(g: MultiGraph, h: TwoEdgeCover, ledger: CreditLedger | None = None,
                  observer=None):
    """Transform a canonical cover into a bridgeless canonical cover.

    Iterates strictly-bridge-decreasing, cost-non-increasing moves; raises
    Stuck with diagnostics when none exists within the search caps.
    `observer(bridge_count, cost)` is called once on entry and after every
    applied move, for contract instrumentation.
    """
    if ledger is None:
        ledger = init_credits(h)
    emap = g.edge_map()
    cur = h
    cur_cost = cost(cur, ledger)
    iterations = 0
    while True:
        nbridges = len(cur.decomposition.bridges)
        if observer is not None:
            observer(nbridges, cur_cost)
        if nbridges == 0:
            return cur, init_credits(cur)
        iterations += 1
        if iterations > len(h.members) + 10:
            raise AssertionError("bridge covering failed to terminate")
        deg = [0] * g.n
        for e in cur.members:
            for x in emap[e]:
                deg[x] += 1
        best = None  # (bridges_after, cost_after, add, remove, cover)
        found = False
        for widen in (False, True):
            for x, y, add in _ear_candidates(g, cur, MAX_EAR):
                pool = _local_removal_pool(cur, x, y) if not widen else \
                    sorted(cur.members)
                removal_sets = [()]
                removal_sets += [(e,) for e in pool]
                removal_sets += list(itertools.combinations(pool, 2))
                for remove in removal_sets:
                    got = _evaluate(g, cur, deg, nbridges, cur_cost, add, remove)
                    if got is None:
                        continue
                    cand, new_cost = got
                    key = (len(cand.decomposition.bridges), new_cost,
                           tuple(sorted(add)), tuple(sorted(remove)))
                    if best is None or key < best[0]:
                        best = (key, cand, new_cost)
                    found = True
                    break          # smallest removal set for this ear suffices
            if found:
                break
        if best is None:
            raise Stuck({
                "phase": "cover_bridges",
                "bridges": sorted(cur.decomposition.bridges),
                "cover": sorted(cur.members),
                "host_n": g.n,
                "host_edges": [(e, u, v) for e, u, v in g.edges],
            })
        _, cur, cur_cost = best
