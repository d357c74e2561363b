"""Multigraph core: representation, decompositions, cuts, matchings, cycle search.

Vertices are integers 0..n-1.  Edges carry stable integer ids that survive
contraction and induced-subgraph extraction, so solutions found on derived
graphs can be mapped back to the original by id alone.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, PatchNotFound


class MultiGraph:
    """Mutable multigraph with stable edge ids (self-loops and parallels allowed)."""

    __slots__ = ("n", "edges", "_next_eid", "_adj", "_emap", "_nbr_mask")

    def __init__(self, n: int, edges=None, next_eid=None):
        self.n = n
        # list of (eid, u, v)
        self.edges = []
        self._next_eid = 0
        self._adj = None
        self._emap = None
        self._nbr_mask = None
        if edges:
            for item in edges:
                if len(item) == 3:
                    eid, u, v = item
                    self.add_edge(u, v, eid)
                else:
                    u, v = item
                    self.add_edge(u, v)
        if next_eid is not None:
            self._next_eid = max(self._next_eid, next_eid)

    def add_edge(self, u: int, v: int, eid: int | None = None) -> int:
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"endpoint out of range: ({u},{v}) with n={self.n}")
        if eid is None:
            eid = self._next_eid
        self.edges.append((eid, u, v))
        self._next_eid = max(self._next_eid, eid + 1)
        self._adj = self._emap = self._nbr_mask = None
        return eid

    @property
    def m(self) -> int:
        return len(self.edges)

    def edge(self, eid: int):
        return self.edge_map()[eid]

    def edge_map(self):
        if self._emap is None:
            self._emap = {eid: (u, v) for eid, u, v in self.edges}
        return self._emap

    def adjacency(self):
        """v -> sorted list of (other, eid); self-loops excluded."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for eid, u, v in self.edges:
                if u != v:
                    adj[u].append((v, eid))
                    adj[v].append((u, eid))
            for lst in adj:
                lst.sort()
            self._adj = adj
        return self._adj

    def neighbor_masks(self):
        if self._nbr_mask is None:
            masks = [0] * self.n
            for eid, u, v in self.edges:
                if u != v:
                    masks[u] |= 1 << v
                    masks[v] |= 1 << u
            self._nbr_mask = masks
        return self._nbr_mask

    def degree(self, v: int) -> int:
        # self-loops excluded (they never help connectivity or covers)
        return len(self.adjacency()[v])

    def edge_ids(self):
        return {eid for eid, _, _ in self.edges}

    def redundant_edges(self):
        """Ascending ids of the self-loops and of every parallel edge but the
        lowest-id one of its bundle."""
        seen = set()
        out = []
        for eid, u, v in sorted(self.edges):
            key = (min(u, v), max(u, v))
            if u == v or key in seen:
                out.append(eid)
            seen.add(key)
        return out

    def has_self_loop_or_parallel(self):
        """Return an eid of a self-loop or a redundant parallel edge, or None."""
        redundant = self.redundant_edges()
        return redundant[0] if redundant else None

    def copy(self) -> "MultiGraph":
        return MultiGraph(self.n, list(self.edges), next_eid=self._next_eid)

    def without_edges(self, eids) -> "MultiGraph":
        drop = set(eids)
        g = MultiGraph(self.n, [e for e in self.edges if e[0] not in drop],
                       next_eid=self._next_eid)
        return g

    def __repr__(self):
        return f"MultiGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class EdgeSubset:
    host: MultiGraph
    members: frozenset

    def __post_init__(self):
        object.__setattr__(self, "members", frozenset(self.members))
        missing = self.members - self.host.edge_ids()
        if missing:
            raise ValueError(f"edge ids not in host: {sorted(missing)[:5]}")

    def __len__(self):
        return len(self.members)

    def edge_list(self):
        return [(eid, u, v) for eid, u, v in self.host.edges if eid in self.members]

    def subgraph(self) -> MultiGraph:
        return MultiGraph(self.host.n, self.edge_list())


@dataclass
class BlockDecomposition:
    components: list          # list of sorted vertex lists (every vertex appears once)
    blocks: list              # list of sorted edge-id lists
    bridges: frozenset        # edge ids
    pendant_flags: list       # per-block bool
    cut_vertices: frozenset   # articulation points of the subgraph
    component_of: dict        # vertex -> component index
    block_of: dict            # edge id (non-bridge) -> block index
    block_component: list     # per-block component index
    class_of: list            # vertex -> 2EC-class index (numbered by smallest vertex)


@dataclass(frozen=True)
class CutCertificate:
    cut: frozenset
    side_a: frozenset
    side_b: frozenset
    kind: str                 # OneCut | TwoIsolating | TwoNonIsolating | ThreeSmall | ThreeLarge
    residual_components: tuple  # tuple of frozensets


@dataclass
class ContractionMap:
    result: MultiGraph
    vertex_map: dict          # host vertex -> result vertex


# ---------------------------------------------------------------------------
# connectivity

def _groups(count, index_of):
    """Sorted vertex lists of the `count` groups in the vertex -> group map."""
    groups = [[] for _ in range(count)]
    for v, i in enumerate(index_of):
        groups[i].append(v)
    return groups


def connected_components(g: MultiGraph):
    """Vertex sets of the connected components (isolated vertices included)."""
    return _groups(*low_link(g.n, g.adjacency())[:2])


def member_adjacency(g: MultiGraph, members):
    """v -> [(w, eid)] over the member edges (self-loops left out), the
    adjacency `low_link` takes."""
    emap = g.edge_map()
    adj = [[] for _ in range(g.n)]
    for e in members:
        u, v = emap[e]
        if u != v:
            adj[u].append((v, e))
            adj[v].append((u, e))
    return adj


def low_link(n: int, adj):
    """One iterative Tarjan low-link pass over adjacency lists.

    `adj[v]` lists `(w, eid)` pairs without self-loops.  Returns
    `(n_components, component_of, bridges, cut_vertices)`: components are
    numbered by their smallest vertex (isolated vertices included), bridges
    are edge ids, cut vertices are the articulation points.  The DFS skips the
    edge it arrived by, by id, so parallel edges are never bridges.
    """
    disc = [-1] * n
    low = [0] * n
    component_of = [0] * n
    bridges = set()
    points = set()
    timer = 0
    n_components = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = timer
        timer += 1
        component_of[root] = n_components
        root_children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            v, pe, it = stack[-1]
            for w, eid in it:
                if eid == pe:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = timer
                    timer += 1
                    component_of[w] = n_components
                    stack.append((w, eid, iter(adj[w])))
                    break
                if disc[w] < low[v]:
                    low[v] = disc[w]
            else:
                stack.pop()
                if stack:
                    u = stack[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                    if low[v] > disc[u]:
                        bridges.add(pe)
                    if u == root:
                        root_children += 1
                    elif low[v] >= disc[u]:
                        points.add(u)
        if root_children > 1:
            points.add(root)
        n_components += 1
    return n_components, component_of, bridges, points


def two_ec_classes(n: int, adj, bridges):
    """(n_classes, class_of): the 2EC classes of the edge set behind `adj`,
    i.e. the `low_link` components once its `bridges` are dropped, numbered
    by their smallest vertex."""
    if bridges:
        adj = [[(w, e) for w, e in nbrs if e not in bridges] for nbrs in adj]
    return low_link(n, adj)[:2]


def is_two_edge_connected(g) -> bool:
    """True iff the (sub)graph spans its vertex set, is connected and bridgeless.

    Self-loops never count toward connectivity.
    """
    if isinstance(g, EdgeSubset):
        g = g.subgraph()
    n_comps, _, bridges, _ = low_link(g.n, g.adjacency())
    return n_comps <= 1 and not bridges


def decompose(h) -> BlockDecomposition:
    """Components, 2EC blocks, bridges, pendant flags and cut vertices of h."""
    if isinstance(h, EdgeSubset):
        g = h.subgraph()
    else:
        g = h
    adj = g.adjacency()
    n_comps, comp_index, bridges, cut_vertices = low_link(g.n, adj)
    comps = _groups(n_comps, comp_index)
    component_of = dict(enumerate(comp_index))
    bridges = frozenset(bridges)
    class_of = two_ec_classes(g.n, adj, bridges)[1]

    block_edges = {}
    for eid, u, v in g.edges:
        if eid in bridges:
            continue
        block_edges.setdefault(class_of[u], []).append(eid)

    blocks = sorted((sorted(es) for es in block_edges.values()), key=lambda b: b[0])
    block_of = {}
    for i, b in enumerate(blocks):
        for eid in b:
            block_of[eid] = i

    emap = g.edge_map()
    # degree of each 2EC class in its component's bridge tree
    tree_deg = Counter(class_of[x] for eid in bridges for x in emap[eid])

    # pendant: block B of a complex component C with C \ V(B) connected.
    # V(B) is B's 2EC class, and removing a class splits the bridge tree
    # into one piece per incident bridge, so B is pendant iff its class is
    # a leaf of the tree.
    block_component = []
    pendant_flags = []
    for b in blocks:
        x = emap[b[0]][0]
        block_component.append(component_of[x])
        pendant_flags.append(tree_deg[class_of[x]] == 1)

    return BlockDecomposition(
        components=comps,
        blocks=blocks,
        bridges=bridges,
        pendant_flags=pendant_flags,
        cut_vertices=frozenset(cut_vertices),
        component_of=component_of,
        block_of=block_of,
        block_component=block_component,
        class_of=class_of,
    )


# ---------------------------------------------------------------------------
# patch search

def find_min_patch(g: MultiGraph, base, bound: int, widen_to: int | None = None):
    """Smallest F (|F| <= bound, or widen_to with a flag) making base + F a
    2-ECSS of g, the first in id order among those of its size.

    Candidates are the non-loop edges outside base that join two different
    2EC classes of base: an edge inside one class is never needed, since its
    ends stay 2-edge-connected without it.  Each candidate set costs one
    low-link pass.  Returns (patch set, widened flag); raises PatchNotFound.
    """
    base = set(base)
    adj = member_adjacency(g, base)
    class_of = two_ec_classes(g.n, adj, low_link(g.n, adj)[2])[1]
    useful = [e for e, u, v in sorted(g.edges)
              if e not in base and u != v and class_of[u] != class_of[v]]
    top = widen_to if widen_to is not None else bound
    for size in range(0, top + 1):
        for combo in itertools.combinations(useful, size):
            n_comps, _, bridges, _ = low_link(
                g.n, member_adjacency(g, base.union(combo)))
            if n_comps <= 1 and not bridges:
                return set(combo), size > bound
    raise PatchNotFound(
        f"no patch of size <= {top} completes the assembled solution")


# ---------------------------------------------------------------------------
# include/exclude search on degree demands

class DegreeSearch:
    """Branch and bound for the minimum edge sets of g in which every vertex
    outside `exempt` has degree >= 2 and which `complete` accepts.

    While some vertex is short of degree 2 the search branches on the
    smallest one, over its undecided edges ascending by id (self-loops are
    never used).  Once none is short, `complete(inc, exc)` returns None
    (feasible), [] (dead end) or the undecided edges to branch on.  Each
    branch edge is tried included, then excluded for the siblings after it.
    The bound is |inc| + ceil(deficit / 2); degrees and the deficit are
    updated on every include and undo.  `solve()` returns (minimum size,
    minimum sets) or (None, []): with `collect_all` every minimum set in the
    order found, else the first.  Opening more than `node_budget` nodes
    raises BudgetExceeded(what).
    """

    def __init__(self, g: MultiGraph, exempt, node_budget: int, complete,
                 what: str, collect_all: bool = False):
        self.emap = g.edge_map()
        self.by_vertex = [[] for _ in range(g.n)]
        for e, u, v in sorted(g.edges):
            if u != v:
                self.by_vertex[u].append(e)
                self.by_vertex[v].append(e)
        self.demand = [0 if v in exempt else 2 for v in range(g.n)]
        self.deg = [0] * g.n
        self.deficit = sum(self.demand)
        self.budget = node_budget
        self.complete = complete
        self.what = what
        self.collect_all = collect_all
        self.nodes = 0
        self.best = None
        self.found = {}            # minimum sets, in the order found

    def solve(self):
        self._go(set(), set())
        return self.best, list(self.found)

    def _go(self, inc, exc):
        self.nodes += 1
        if self.nodes > self.budget:
            raise BudgetExceeded(self.what)
        if self.best is not None:
            lb = len(inc) + (self.deficit + 1) // 2
            if lb > self.best or (not self.collect_all and lb >= self.best):
                return
        deg, demand = self.deg, self.demand
        if self.deficit:
            v = next(v for v, d in enumerate(deg) if d < demand[v])
            avail = [e for e in self.by_vertex[v] if e not in exc]
            if len(avail) < 2:
                return
            branch = [e for e in avail if e not in inc]
        else:
            branch = self.complete(inc, exc)
            if branch is None:
                self._record(inc)
                return
        for e in branch:
            ends = self.emap[e]
            inc.add(e)
            for x in ends:
                if deg[x] < demand[x]:
                    self.deficit -= 1
                deg[x] += 1
            self._go(inc, exc)
            inc.discard(e)
            for x in ends:
                deg[x] -= 1
                if deg[x] < demand[x]:
                    self.deficit += 1
            exc.add(e)
        exc.difference_update(branch)

    def _record(self, inc):
        # the bound lets through no set larger than the best, and ties only
        # with collect_all
        if self.best is None or len(inc) < self.best:
            self.best = len(inc)
            self.found = {}
        self.found.setdefault(frozenset(inc))


# ---------------------------------------------------------------------------
# matchings

def max_matching_across(g: MultiGraph, v1, v2):
    """Maximum matching among edges with one endpoint in v1 and one in v2.

    Kuhn's augmenting-path algorithm on the bipartite crossing graph;
    returns a sorted list of edge ids.
    """
    v1 = set(v1)
    v2 = set(v2)
    if v1 & v2:
        raise ValueError("sides must be disjoint")
    # left vertex -> list of (right vertex, eid)
    cross = {}
    for eid, u, v in sorted(g.edges):
        if u in v1 and v in v2:
            cross.setdefault(u, []).append((v, eid))
        elif v in v1 and u in v2:
            cross.setdefault(v, []).append((u, eid))
    for lst in cross.values():
        lst.sort()

    match_right = {}   # right vertex -> (left vertex, eid)

    def try_augment(u, seen):
        for w, eid in cross.get(u, ()):
            if w in seen:
                continue
            seen.add(w)
            if w not in match_right or try_augment(match_right[w][0], seen):
                match_right[w] = (u, eid)
                return True
        return False

    for u in sorted(cross):
        try_augment(u, set())
    return sorted(eid for _, eid in match_right.values())


# ---------------------------------------------------------------------------
# vertex cuts

def _residual(adj, removed):
    """`adj` with the `removed` vertices left isolated; every list that no
    removed vertex touches is shared, not copied."""
    touched = {w for x in removed for w, _ in adj[x]}
    return [[] if v in removed
            else [(w, e) for w, e in nbrs if w not in removed] if v in touched
            else nbrs
            for v, nbrs in enumerate(adj)]


def splitting_vertices(adj, removed):
    """The vertices v outside `removed` such that G - removed - v has at
    least two components, from one low-link pass over G - removed (`adj` as
    `MultiGraph.adjacency` gives it)."""
    n_comps, comp_of, _, points = low_link(len(adj), _residual(adj, removed))
    n_alive = n_comps - len(removed)   # removed vertices are isolated
    size = Counter(comp_of)
    # an articulation point splits its component; otherwise deleting v
    # leaves the other components intact and drops v's only if it is {v}
    return {v for v, c in enumerate(comp_of) if v not in removed
            and (v in points or n_alive - (size[c] == 1) >= 2)}


def iterate_vertex_cuts(g: MultiGraph, k: int):
    """Yield CutCertificates for every k-subset whose removal disconnects g,
    in lexicographic order of the cut vertex ids.

    S + (v,) is a cut exactly when v splits G - S, for S running over the
    lexicographic (k-1)-prefixes, so each prefix costs one low-link pass.
    """
    adj = g.adjacency()
    n = g.n
    for prefix in itertools.combinations(range(n), k - 1):
        splitters = splitting_vertices(adj, set(prefix))
        for v in range(prefix[-1] + 1 if prefix else 0, n):
            if v not in splitters:
                continue
            cut = frozenset(prefix + (v,))
            count, comp_of = low_link(n, _residual(adj, cut))[:2]
            comp_sets = tuple(frozenset(c) for c in _groups(count, comp_of)
                              if c[0] not in cut)
            yield _classify_cut(cut, comp_sets, k)


def _classify_cut(cut, comp_sets, k):
    sizes = sorted(range(len(comp_sets)), key=lambda i: (len(comp_sets[i]), min(comp_sets[i])))
    small_i = sizes[0]
    side_a = comp_sets[small_i]
    side_b = frozenset().union(*(comp_sets[i] for i in range(len(comp_sets)) if i != small_i))
    if k == 1:
        kind = "OneCut"
    elif k == 2:
        kind = "TwoIsolating" if len(comp_sets) == 2 and len(side_a) == 1 else "TwoNonIsolating"
    else:
        kind = "ThreeSmall" if len(comp_sets) == 2 and len(side_a) <= 6 else "ThreeLarge"
    return CutCertificate(cut=cut, side_a=side_a, side_b=side_b, kind=kind,
                          residual_components=comp_sets)


def find_vertex_cut(g: MultiGraph, k: int, kind=None):
    """Lexicographically least k-vertex cut, optionally filtered by kind."""
    for cert in iterate_vertex_cuts(g, k):
        if kind is None or cert.kind == kind:
            return cert
    return None


# ---------------------------------------------------------------------------
# contraction / induced subgraphs

def contract(g: MultiGraph, s) -> ContractionMap:
    """Contract vertex set s to a single vertex (internal edges become self-loops)."""
    return contract_many(g, [s])


def contract_many(g: MultiGraph, sets) -> ContractionMap:
    """Contract each (disjoint) vertex set in `sets` to a single vertex.

    New vertex ids follow the order of the representatives (min of each set)
    interleaved with untouched vertices, so numbering is deterministic.
    """
    rep = {}
    for s in sets:
        s = set(s)
        if not s:
            raise ValueError("cannot contract an empty set")
        r = min(s)
        for v in s:
            if v in rep:
                raise ValueError("contraction sets must be disjoint")
            rep[v] = r
    keep = sorted({rep.get(v, v) for v in range(g.n)})
    new_id = {r: i for i, r in enumerate(keep)}
    vmap = {v: new_id[rep.get(v, v)] for v in range(g.n)}
    out = MultiGraph(len(keep))
    for eid, u, v in g.edges:
        out.add_edge(vmap[u], vmap[v], eid)
    out._next_eid = max(out._next_eid, g._next_eid)
    return ContractionMap(result=out, vertex_map=vmap)


def induced_subgraph(g: MultiGraph, vertices, extra_drop=()):
    """Induced subgraph on `vertices` (edge ids preserved, vertices renumbered).

    Returns (subgraph, old->new vertex map).  `extra_drop` removes specific
    edge ids even when both endpoints are kept.
    """
    vs = sorted(set(vertices))
    vmap = {v: i for i, v in enumerate(vs)}
    drop = set(extra_drop)
    out = MultiGraph(len(vs))
    for eid, u, v in g.edges:
        if eid in drop:
            continue
        if u in vmap and v in vmap:
            out.add_edge(vmap[u], vmap[v], eid)
    out._next_eid = max(out._next_eid, g._next_eid)
    return out, vmap


# ---------------------------------------------------------------------------
# constrained cycle search

def find_cycle_through_edges(g: MultiGraph, f, budget: int = 10 ** 6):
    """A simple cycle (edge-id list) through every edge of f, or None.

    Exhaustive backtracking over simple paths; |f| <= 4.  Raises
    BudgetExceeded if the node-expansion budget runs out first.
    """
    f = set(f)
    if len(f) > 4:
        raise ValueError("at most 4 required edges supported")
    emap = g.edge_map()
    for eid in f:
        if eid not in emap:
            raise ValueError(f"required edge {eid} not in graph")
    loops = [eid for eid in f if emap[eid][0] == emap[eid][1]]
    if loops:
        # a simple cycle containing a self-loop is the loop alone
        if len(f) == 1:
            return [loops[0]]
        return None
    if not f:
        raise ValueError("f must be non-empty")

    # quick infeasibility: three required edges sharing a vertex
    incid = {}
    for eid in f:
        u, v = emap[eid]
        incid[u] = incid.get(u, 0) + 1
        incid[v] = incid.get(v, 0) + 1
    if any(c > 2 for c in incid.values()):
        return None

    adj = g.adjacency()
    e0 = min(f)
    start, cur0 = emap[e0]
    expansions = 0

    path = [e0]
    visited = {start, cur0}
    used_req = {e0}

    def req_reachable(cur):
        # every unused required edge needs an unvisited endpoint or the tip
        for eid in f - used_req:
            u, v = emap[eid]
            if (u in visited and u != cur) and (v in visited and v != cur):
                return False
        return True

    def extend(cur):
        nonlocal expansions
        expansions += 1
        if expansions > budget:
            raise BudgetExceeded(f"cycle search budget {budget} exhausted")
        for w, eid in adj[cur]:
            if eid in path_set:
                continue
            if w == start:
                # the closing edge may itself be required; a 2-cycle through a
                # distinct parallel edge is a valid simple cycle here
                closing = used_req | ({eid} if eid in f else set())
                if closing >= f and eid != e0:
                    path.append(eid)
                    return True
                continue
            if w in visited:
                continue
            is_req = eid in f
            path.append(eid)
            path_set.add(eid)
            visited.add(w)
            if is_req:
                used_req.add(eid)
            if req_reachable(w) and extend(w):
                return True
            if is_req:
                used_req.discard(eid)
            visited.discard(w)
            path_set.discard(eid)
            path.pop()
        return False

    path_set = {e0}
    if extend(cur0):
        return path
    return None


# ---------------------------------------------------------------------------
# contractibility certificates

def _max_independent_subset(g: MultiGraph, candidates):
    """Largest independent subset of `candidates` (brute force, small sets only)."""
    cand = sorted(candidates)
    masks = g.neighbor_masks()
    for r in range(len(cand), 0, -1):
        for combo in itertools.combinations(cand, r):
            ok = True
            for i, v in enumerate(combo):
                for w in combo[i + 1:]:
                    if masks[v] >> w & 1:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                return list(combo)
    return []


def forced_edge_lower_bound(g: MultiGraph, s):
    """Lower bound on edges inside s that every 2-ECSS of g must contain.

    Certificate class (i): vertices whose whole neighborhood lies inside s
    need both their solution edges inside s; an independent such set W forces
    2|W| distinct edges.  Degree-2 vertices force their two incident edges
    exactly, so the union of those edge sets is a second bound.
    """
    s = set(s)
    masks = g.neighbor_masks()
    s_mask = 0
    for v in s:
        s_mask |= 1 << v
    interior = [v for v in s if masks[v] & ~s_mask == 0]
    w = _max_independent_subset(g, interior)
    bound = 2 * len(w)

    forced_edges = set()
    adj = g.adjacency()
    for v in s:
        inc = adj[v]
        if len(inc) == 2:
            for u, eid in inc:
                if u in s:
                    forced_edges.add(eid)
    return max(bound, len(forced_edges))


def min_edges_inside(g: MultiGraph, s):
    """Minimum number of edges with both endpoints in s over all 2-ECSS of g,
    or None when |s| > 8, n > 24 or more than 24 such edges.

    Adding an outside edge never hurts, so the count is the size of the
    smallest patch to all the outside edges; every patch edge lies inside s.
    Raises PatchNotFound when g is not 2-edge-connected.
    """
    if len(s) > 8 or g.n > 24:
        return None
    inside = [e for e, u, v in g.edges if u != v and u in s and v in s]
    if len(inside) > 24:
        return None
    outside = {e for e, u, v in g.edges if u != v and not (u in s and v in s)}
    return len(find_min_patch(g, outside, bound=len(inside))[0])


def certify_contractible(g: MultiGraph, c_edges, alpha: Fraction):
    """Check that the 2EC subgraph with edge set c_edges is alpha-contractible.

    Returns a justification string when certified, else None.  The forced
    edges of `forced_edge_lower_bound` are tried first, then the exact
    minimum number of solution edges inside V(C), which the patch search
    `min_edges_inside` computes.
    """
    emap = g.edge_map()
    s = set()
    for eid in c_edges:
        u, v = emap[eid]
        s.add(u)
        s.add(v)
    need = Fraction(len(c_edges), 1) / alpha
    lb = forced_edge_lower_bound(g, s)
    if lb >= need:
        return f"forced-degree: {lb} forced edges >= |E(C)|/alpha = {need}"
    m = min_edges_inside(g, s)
    if m is not None and m >= need:
        return f"exact: min edges inside = {m} >= {need}"
    return None


def find_contractible_certificate(g: MultiGraph, alpha: Fraction, max_vertices: int,
                                  cycle_budget: int = 20000):
    """Scan for an alpha-contractible 2EC subgraph with <= max_vertices vertices.

    Candidates are short induced cycles rich in interior vertices.  Absence of
    a result is NOT a refutation; contractibility is only ever confirmed.
    Returns (edge_id_set, justification) or None.
    """
    masks = g.neighbor_masks()
    adj = g.adjacency()
    n = g.n
    limit = min(max_vertices, 7)

    seen_sets = set()
    budget = [cycle_budget]

    def cycles_from(start):
        # DFS for simple cycles of length <= limit starting at their min vertex
        stack = [(start, [start], [])]
        while stack:
            if budget[0] <= 0:
                return
            budget[0] -= 1
            v, path, eids = stack.pop()
            for w, eid in adj[v]:
                if w == start and len(path) >= 3 and eid != (eids[0] if eids else None):
                    yield list(path), eids + [eid]
                elif w > start and w not in path and len(path) < limit:
                    stack.append((w, path + [w], eids + [eid]))

    for start in range(n):
        for vs, eids in cycles_from(start):
            key = frozenset(vs)
            if key in seen_sets:
                continue
            seen_sets.add(key)
            # cheap screen: need some interior vertex before paying for certify
            s_mask = 0
            for v in vs:
                s_mask |= 1 << v
            if not any(masks[v] & ~s_mask == 0 for v in vs):
                continue
            just = certify_contractible(g, eids, alpha)
            if just is not None:
                return set(eids), just
    return None
