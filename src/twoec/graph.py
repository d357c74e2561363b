"""Multigraph core: representation, decompositions, cuts, matchings, cycle search.

Vertices are integers 0..n-1.  Edges carry stable integer ids that survive
contraction and induced-subgraph extraction, so solutions found on derived
graphs can be mapped back to the original by id alone.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .errors import BudgetExceeded, PatchNotFound


class MultiGraph:
    """Mutable multigraph with stable edge ids: parallels are kept,
    self-loops never stored.

    A self-loop lies in no 2-edge-connected spanning subgraph and changes no
    cut, degree demand or cover.  So `add_edge(u, u)` stores nothing but
    still uses up its id, and later edges keep theirs.  `edges`, `m` and
    every view built on them are loop-free, and a contraction drops the
    edges inside a contracted set.
    """

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
        self._next_eid = max(self._next_eid, eid + 1)
        if u != v:
            self.edges.append((eid, u, v))
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
        """v -> sorted list of (other, eid)."""
        if self._adj is None:
            adj = [[] for _ in range(self.n)]
            for eid, u, v in self.edges:
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
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._nbr_mask = masks
        return self._nbr_mask

    def degree(self, v: int) -> int:
        return len(self.adjacency()[v])

    def edge_ids(self):
        return {eid for eid, _, _ in self.edges}

    def redundant_edges(self):
        """Ascending ids of every parallel edge but the lowest-id one of its
        bundle."""
        seen = set()
        out = []
        for eid, u, v in sorted(self.edges):
            key = (min(u, v), max(u, v))
            if key in seen:
                out.append(eid)
            seen.add(key)
        return out

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


@dataclass
class ExactResult:
    value: int
    witness: EdgeSubset
    nodes_explored: int
    certified: bool


@dataclass
class BlockDecomposition:
    components: list          # list of sorted vertex lists (every vertex appears once)
    blocks: list              # list of sorted edge-id lists
    bridges: frozenset        # edge ids
    pendant_flags: list       # per-block bool
    component_of: list        # vertex -> component index
    block_component: list     # per-block component index
    class_of: list            # vertex -> 2EC-class index (numbered by smallest vertex)
    component_edges: list     # per-component sorted edge-id list


# ---------------------------------------------------------------------------
# connectivity

def _groups(count, index_of):
    """Sorted vertex lists of the `count` groups in the vertex -> group map;
    vertices mapped to -1 belong to none."""
    groups = [[] for _ in range(count)]
    for v, i in enumerate(index_of):
        if i >= 0:
            groups[i].append(v)
    return groups


def connected_components(g: MultiGraph, removed=()):
    """Sorted vertex lists of the connected components of G - `removed`
    (isolated vertices included), ordered by their smallest vertex."""
    return _groups(*low_link(g.n, g.adjacency(), removed)[:2])


def member_adjacency(g: MultiGraph, members):
    """v -> [(w, eid)] over the member edges, the adjacency `low_link`
    takes."""
    emap = g.edge_map()
    adj = [[] for _ in range(g.n)]
    for e in members:
        u, v = emap[e]
        adj[u].append((v, e))
        adj[v].append((u, e))
    return adj


def low_link(n: int, adj, removed=()):
    """One iterative Tarjan low-link pass over adjacency lists.

    `adj[v]` lists `(w, eid)` pairs.  Returns `(n_components, component_of,
    bridges, cut_vertices)`: components are numbered by their smallest
    vertex (isolated vertices included), bridges are edge ids, cut vertices
    are the articulation points.  The DFS skips the edge it arrived by, by
    id, so parallel edges are never bridges.

    The pass runs on G - `removed` without copying `adj`: a removed vertex
    starts out visited with discovery index n, above every index the pass
    hands out, so it is never entered and never lowers a low value.  Only the
    kept vertices are numbered into components; a removed vertex gets -1.
    """
    disc = [-1] * n
    low = [0] * n
    component_of = [0] * n
    for x in removed:
        disc[x] = n
        component_of[x] = -1
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


def member_components(g: MultiGraph, members):
    """(n_components, component_of) of the member edges of g, numbered by
    smallest vertex as `low_link` numbers them (isolated vertices
    included), from one union-find pass over the edge ids.

    Each union links the larger root under the smaller, so a root is its
    component's smallest vertex, every other vertex's parent lies below it,
    and one ascending sweep numbers the components.  The pass stops once
    one component is left."""
    emap = g.edge_map()
    n = g.n
    parent = list(range(n))
    count = n
    for e in members:
        u, v = emap[e]
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        if u != v:
            if u < v:
                parent[v] = u
            else:
                parent[u] = v
            count -= 1
            if count == 1:
                return 1, [0] * n
    component_of = [0] * n
    count = 0
    for v, p in enumerate(parent):
        if p == v:
            component_of[v] = count
            count += 1
        else:
            component_of[v] = component_of[p]
    return count, component_of


def two_ec_classes(n: int, adj, bridges):
    """(n_classes, class_of): the 2EC classes of the edge set behind `adj`,
    i.e. its components once its `bridges` are dropped, numbered by their
    smallest vertex: one flood from each vertex not yet reached, in
    ascending order, that never crosses a bridge."""
    class_of = [-1] * n
    count = 0
    for root in range(n):
        if class_of[root] >= 0:
            continue
        class_of[root] = count
        stack = [root]
        while stack:
            for w, e in adj[stack.pop()]:
                if class_of[w] < 0 and e not in bridges:
                    class_of[w] = count
                    stack.append(w)
        count += 1
    return count, class_of


def is_two_edge_connected(g: MultiGraph) -> bool:
    """True iff g is connected and bridgeless (a single vertex counts)."""
    return _is_2ec(g.n, g.adjacency())


def _is_2ec(n: int, adj) -> bool:
    n_comps, _, bridges, _ = low_link(n, adj)
    return n_comps <= 1 and not bridges


def is_2ec_edge_set(g: MultiGraph, edges) -> bool:
    """True iff `edges` join at least 2 vertices of g into one connected,
    bridgeless piece; every vertex they do not touch is left isolated.
    This is the subgraph a contraction witness must be."""
    emap = g.edge_map()
    touched = {x for e in edges for x in emap[e]}
    n_comps, _, bridges, _ = low_link(g.n, member_adjacency(g, edges))
    return (len(touched) >= 2 and not bridges
            and n_comps == g.n - len(touched) + 1)


def decompose(host: MultiGraph, members) -> BlockDecomposition:
    """Components (each with its sorted member edges), 2EC blocks, bridges
    and pendant flags of the member edges of host."""
    adj = member_adjacency(host, members)
    n_comps, component_of, bridges, _ = low_link(host.n, adj)
    bridges = frozenset(bridges)
    class_of = two_ec_classes(host.n, adj, bridges)[1]

    emap = host.edge_map()
    component_edges = [[] for _ in range(n_comps)]
    block_edges = {}
    for eid in sorted(members):
        x = emap[eid][0]
        component_edges[component_of[x]].append(eid)
        if eid not in bridges:
            block_edges.setdefault(class_of[x], []).append(eid)
    blocks = sorted(block_edges.values(), key=lambda b: b[0])

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
        components=_groups(n_comps, component_of),
        blocks=blocks,
        bridges=bridges,
        pendant_flags=pendant_flags,
        component_of=component_of,
        block_component=block_component,
        class_of=class_of,
        component_edges=component_edges,
    )


# ---------------------------------------------------------------------------
# patch search

def find_min_patch(g: MultiGraph, base, limit: int):
    """Smallest F, |F| <= limit, making base + F a 2-ECSS of g, the first in
    id order among those of its size.

    Candidates are the edges outside base that join two different
    2EC classes of base: an edge inside one class is never needed, since its
    ends stay 2-edge-connected without it.  Each candidate set costs one
    low-link pass.  Returns the patch set; raises PatchNotFound.
    """
    base = set(base)
    adj = member_adjacency(g, base)
    class_of = two_ec_classes(g.n, adj, low_link(g.n, adj)[2])[1]
    useful = [e for e, u, v in sorted(g.edges)
              if e not in base and class_of[u] != class_of[v]]
    for size in range(0, limit + 1):
        for combo in itertools.combinations(useful, size):
            if _is_2ec(g.n, member_adjacency(g, base.union(combo))):
                return set(combo)
    raise PatchNotFound(
        f"no patch of size <= {limit} completes the assembled solution")


# ---------------------------------------------------------------------------
# include/exclude search on degree demands

class DegreeSearch:
    """Branch and bound for a minimum edge set of g, of at most `cap`
    edges, in which every vertex v has degree >= demand[v] (0, 1 or 2) and
    which `complete` accepts.

    While some vertex is short of its demand the search branches on the
    smallest one, over its undecided edges ascending by id; a short vertex
    with fewer edges left (not excluded) than its demand is a dead end.
    Once none is short, `complete(inc, exc)` returns None (feasible), []
    (dead end) or the undecided edges to branch on.  Each branch edge is
    tried included, then excluded for the siblings after it.  The bound is
    max(floor, |inc| + ceil(deficit / 2)), where `floor` is a lower bound
    the caller has proven for every set `complete` accepts; degrees and the
    deficit are updated on every include and undo.  A node is searched only
    while its bound is at most the limit: `cap` (no limit without one) until
    a set is found, then the best size - 1.  The parent computes a child's
    bound from the deficit its edge's two ends would drop, so a child the
    limit cuts off is counted as a node without being entered; once the best
    reaches the floor, every child is cut off.  `solve()` returns (minimum
    size, the first minimum set found) or (None, None).  Counting more than
    `node_budget` nodes raises BudgetExceeded(what).
    """

    def __init__(self, g: MultiGraph, demand, node_budget: int, complete,
                 what: str, cap=None, floor=0):
        self.emap = g.edge_map()
        self.by_vertex = [[] for _ in range(g.n)]
        for e, u, v in sorted(g.edges):
            self.by_vertex[u].append(e)
            self.by_vertex[v].append(e)
        self.demand = list(demand)
        self.deg = [0] * g.n
        self.deficit = sum(self.demand)
        self.budget = node_budget
        self.complete = complete
        self.what = what
        self.floor = floor
        self.limit = math.inf if cap is None else cap
        self.nodes = 0
        self.best = None
        self.found = None

    def solve(self):
        self.nodes += 1            # the root
        if self.nodes > self.budget:
            raise BudgetExceeded(self.what)
        if max(self.floor, (self.deficit + 1) // 2) <= self.limit:
            self._go(set(), set())
        return self.best, self.found

    def _go(self, inc, exc):
        deg, demand = self.deg, self.demand
        if self.deficit:
            v = next(v for v, d in enumerate(deg) if d < demand[v])
            avail = [e for e in self.by_vertex[v] if e not in exc]
            if len(avail) < demand[v]:
                return
            branch = [e for e in avail if e not in inc]
        else:
            branch = self.complete(inc, exc)
            if branch is None:
                self._record(inc)
                return
        floor = self.floor
        for e in branch:
            self.nodes += 1
            if self.nodes > self.budget:
                raise BudgetExceeded(self.what)
            u, v = self.emap[e]
            drop = (deg[u] < demand[u]) + (deg[v] < demand[v])
            lb = len(inc) + 1 + (self.deficit - drop + 1) // 2
            limit = self.limit
            if lb > limit or floor > limit:
                exc.add(e)
                continue
            inc.add(e)
            deg[u] += 1
            deg[v] += 1
            self.deficit -= drop
            self._go(inc, exc)
            inc.discard(e)
            deg[u] -= 1
            deg[v] -= 1
            self.deficit += drop
            exc.add(e)
        exc.difference_update(branch)

    def _record(self, inc):
        # a node is entered only within the limit, so inc beats the best
        self.best = len(inc)
        self.found = frozenset(inc)
        self.limit = self.best - 1


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

def splitting_vertices(adj, removed):
    """The vertices v outside `removed` such that G - removed - v has at
    least two components, from one low-link pass over G - removed (`adj` as
    `MultiGraph.adjacency` gives it).

    With three or more components every kept vertex splits; with two, every
    kept vertex but an isolated one, whose deletion takes its component
    along; with one, exactly the articulation points.
    """
    n_comps, _, _, points = low_link(len(adj), adj, removed)
    if n_comps == 1:
        return points
    return {v for v, nbrs in enumerate(adj) if v not in removed
            and (n_comps >= 3 or any(w not in removed for w, _ in nbrs))}


def iterate_vertex_cuts(g: MultiGraph, k: int, within=None):
    """Yield every k-subset of `within` (all of V by default) whose removal
    disconnects g, as a sorted tuple, in lexicographic order.

    S + (v,) is a cut exactly when v splits G - S, for S running over the
    lexicographic (k-1)-prefixes of sorted(`within`) that stop before its
    last vertex (no v lies above it), so each prefix costs one low-link
    pass.  A caller that knows every cut it wants lies in a smaller set
    (see `cut_region`) passes that set as `within`.
    `connected_components(g, cut)` gives the components a cut leaves.
    """
    adj = g.adjacency()
    pool = range(g.n) if within is None else sorted(within)
    for prefix in itertools.combinations(pool[:-1], k - 1):
        splitters = splitting_vertices(adj, set(prefix))
        for v in pool[pool.index(prefix[-1]) + 1 if prefix else 0:]:
            if v in splitters:
                yield prefix + (v,)


def find_vertex_cut(g: MultiGraph, k: int):
    """Lexicographically least k-vertex cut as a sorted tuple, or None."""
    return next(iterate_vertex_cuts(g, k), None)


def _fan(adj, source, targets, removed=()):
    """How many paths, up to 4, run from `source` to distinct vertices
    of `targets` (source not among them) sharing only `source` and avoiding
    `removed`.  Unit-capacity augmenting paths over the vertex-split graph:
    node 2v enters v, 2v + 1 leaves it, -1 is the sink behind every target;
    `flow` holds the arcs that carry a path."""
    flow = set()
    found = 0
    start = 2 * source + 1
    while found < 4:
        parent = {start: None}
        queue = [start]
        for x in queue:
            v = x >> 1
            if x & 1:
                # forward to a neighbor's entry, back through v's own arc
                steps = [(2 * w, (x, 2 * w) not in flow) for w, _ in adj[v]
                         if w != source and w not in removed]
                steps.append((2 * v, (2 * v, x) in flow))
            else:
                # forward out of v (to the sink at a target), back along the
                # arc that entered v
                out = -1 if v in targets else x + 1
                steps = [(out, (x, out) not in flow)]
                steps += [(2 * u + 1, (2 * u + 1, x) in flow) for u, _ in adj[v]]
            for y, open_ in steps:
                if open_ and y not in parent:
                    parent[y] = x
                    if y == -1:
                        break
                    queue.append(y)
            if -1 in parent:
                break
        if -1 not in parent:
            return found
        y = -1
        while (x := parent[y]) is not None:
            if (y, x) in flow:
                flow.discard((y, x))
            else:
                flow.add((x, y))
            y = x
        found += 1
    return found


def three_cut_core(g: MultiGraph):
    """A vertex set K such that, for every set S of at most 3 vertices, K - S
    lies in one component of G - S; the empty set when the roots fail.

    K starts from four roots of largest degree, every pair of them adjacent
    or joined by 4 internally disjoint paths (for non-adjacent a, b: a 4-fan
    from a into N(b) in G - b, each path closed by its edge to b).  Then a
    vertex joins while it has >= 4 neighbors in K or a 4-fan into K: 4 paths
    to distinct vertices of K that share only their start.

    Proof: S misses some root r.  Another root outside S is adjacent to r,
    or S, with at most 3 vertices, misses all of one of their 4 paths.  A
    later vertex outside S likewise keeps an edge, or a whole fan path, to a
    vertex of K - S that joined before it, which by induction lies in r's
    component.  So every other component of G - S lies outside K.

    With fewer than 4 vertices of >= 4 distinct neighbors the result is the
    empty set, before any sort or fan.  A joiner needs 4 neighbors, and
    every vertex with 4 is a root, so the core could hold at most the four
    roots, and the empty set is always a valid core.

    Region lemma: a cut S of at most 3 vertices with a component C of G - S
    outside K and N(C) = S lies in R = N(V - K), which `cut_region` returns.
    """
    masks = g.neighbor_masks()
    if sum(m.bit_count() >= 4 for m in masks) < 4:
        return set()
    adj = g.adjacency()
    order = sorted(range(g.n), key=lambda v: (-masks[v].bit_count(), v))
    roots = order[:4]
    for a, b in itertools.combinations(roots, 2):
        if not masks[a] >> b & 1:
            nb = {w for w, _ in adj[b]}
            if _fan(adj, a, nb, {b}) < 4:
                return set()
    core = set(roots)
    core_mask = sum(1 << r for r in roots)
    grown = True
    while grown:
        grown = False
        for v in order:
            if v not in core and masks[v].bit_count() >= 4 and (
                    (masks[v] & core_mask).bit_count() >= 4
                    or _fan(adj, v, core) >= 4):
                core.add(v)
                core_mask |= 1 << v
                grown = True
    return core


def cut_region(g: MultiGraph, core):
    """R = N(V - K) for the core K of `three_cut_core`: every vertex with a
    neighbor outside K, or all of V when K is empty.

    A cut S of at most 3 vertices leaves two or more components, and K - S,
    nonempty since |K| >= 4, lies in one of them, so every other component
    C lies outside K.  When N(C) = S, each vertex of S has a neighbor in C,
    so S lies in R.  If G is connected without a cut vertex, every component
    of G - S is joined to both vertices of a 2-cut S, so every 2-cut lies in
    R; `reduction._find_large_three_cut` shows the same for the 3-cuts it
    looks for.
    """
    if not core:
        return set(range(g.n))
    outside = sum(1 << v for v in range(g.n) if v not in core)
    return {v for v, m in enumerate(g.neighbor_masks()) if m & outside}


# ---------------------------------------------------------------------------
# contraction / induced subgraphs

def contract(g: MultiGraph, s) -> MultiGraph:
    """Contract vertex set s to a single vertex (its internal edges are
    dropped)."""
    return contract_many(g, [s])


def contract_many(g: MultiGraph, sets) -> MultiGraph:
    """Contract each (disjoint) vertex set in `sets` to a single vertex.

    New vertex ids follow the order of the representatives (min of each set)
    interleaved with untouched vertices, so numbering is deterministic.
    Edges inside a set are dropped; every other edge keeps its id.
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
    return out


def induced_subgraph(g: MultiGraph, vertices):
    """Induced subgraph on `vertices` (edge ids preserved, vertices renumbered).

    Returns (subgraph, old->new vertex map).
    """
    vs = sorted(set(vertices))
    vmap = {v: i for i, v in enumerate(vs)}
    out = MultiGraph(len(vs))
    for eid, u, v in g.edges:
        if u in vmap and v in vmap:
            out.add_edge(vmap[u], vmap[v], eid)
    out._next_eid = max(out._next_eid, g._next_eid)
    return out, vmap


# ---------------------------------------------------------------------------
# constrained cycle search

CYCLE_SEARCH_BUDGET = 10 ** 6   # node expansions per `find_cycle_through_edges`


def find_cycle_through_edges(g: MultiGraph, f):
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
        if expansions > CYCLE_SEARCH_BUDGET:
            raise BudgetExceeded(
                f"cycle search budget {CYCLE_SEARCH_BUDGET} exhausted")
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

INSIDE_COUNT_MAX_N = 24   # above this many vertices `min_edges_inside` gives up
CONTRACTIBLE_MAX_VERTICES = 7     # largest cycle the contractibility scan lists
CONTRACTIBLE_SCAN_BUDGET = 4000   # cycle-search nodes per contractibility scan


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


def _countable_inside_edges(g: MultiGraph, s):
    """The edges inside s, or None where the inside counts give up."""
    if len(s) > 8 or g.n > INSIDE_COUNT_MAX_N:
        return None
    inside = [e for e, u, v in g.edges if u in s and v in s]
    return inside if len(inside) <= 24 else None


def min_edges_inside(g: MultiGraph, s):
    """Minimum number of edges with both endpoints in s over all 2-ECSS of g,
    or None when |s| > 8, n > 24 or more than 24 such edges.

    Adding an outside edge never hurts, so the count is the size of the
    smallest patch to all the outside edges; every patch edge lies inside s.
    Raises PatchNotFound when g is not 2-edge-connected.
    """
    if (inside := _countable_inside_edges(g, s)) is None:
        return None
    outside = g.edge_ids().difference(inside)
    return len(find_min_patch(g, outside, len(inside)))


def greedy_edges_inside(g: MultiGraph, s):
    """Upper bound on `min_edges_inside(g, s)`, or None where that gives up
    or g is not 2EC: from all edges, drop each inside edge in id order whose
    loss keeps the rest 2EC (one low-link pass each), and count.  An edge at
    a vertex of degree <= 2 is kept without a pass."""
    inside = _countable_inside_edges(g, s)
    emap = g.edge_map()
    keep = g.edge_ids()
    if inside is None or not is_two_edge_connected(g):
        return None
    deg = [g.degree(v) for v in range(g.n)]       # degrees in keep
    for e in sorted(inside):
        # a vertex left at degree <= 1 always fails the 2EC check
        if min(deg[x] for x in emap[e]) <= 2:
            continue
        keep.discard(e)
        if _is_2ec(g.n, member_adjacency(g, keep)):
            for x in emap[e]:
                deg[x] -= 1
        else:
            keep.add(e)
    return len(keep.intersection(inside))


def certify_contractible(g: MultiGraph, c_edges, alpha: Fraction):
    """Check that the 2EC subgraph with edge set c_edges is alpha-contractible.

    Returns a justification string when certified, else None.  The forced
    edges of `forced_edge_lower_bound` are tried first, then the exact
    minimum number of solution edges inside V(C) (`min_edges_inside`),
    unless the upper bound `greedy_edges_inside` already falls short.
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
    ub = greedy_edges_inside(g, s)
    m = min_edges_inside(g, s) if ub is None or ub >= need else None
    if m is not None and m >= need:
        return f"exact: min edges inside = {m} >= {need}"
    return None


def _no_certifiable_candidate(g: MultiGraph, alpha: Fraction, limit: int):
    """True when no cycle C of at most `limit` vertices passes
    `certify_contractible(g, C, alpha)`.

    Above INSIDE_COUNT_MAX_N vertices the exact inside count is never
    computed, so only the forced-degree bound can certify.  A cycle with k
    vertices has k edges, so it needs a bound of at least k / alpha on its
    vertex set s, |s| = k.  The bound is 2|W| for an independent set W of
    vertices whose neighbors all lie in s, or the number of edges of s at
    its degree-2 vertices; both count at most two per vertex, so s holds
    r_k = ceil(k / (2 alpha)) such vertices.  That is r_k non-adjacent
    vertices whose closed neighborhoods together fill at most k vertices, or
    r_k degree-2 vertices on the cycle, two of which lie within distance
    k // r_k on it, and so in g.  Without either in g for any k, no cycle can
    be certified.  Returns False whenever the exact count could run or some
    r_k is 1.
    """
    n = g.n
    if n <= INSIDE_COUNT_MAX_N:
        return False
    # (k, r_k), r_k = ceil(k / (2 alpha)) in integers
    p, q = Fraction(alpha).as_integer_ratio()
    need = [(k, -(-k * q // (2 * p))) for k in range(3, limit + 1)]
    if any(r < 2 for _, r in need):
        return False
    adj = g.adjacency()
    deg2 = {v for v in range(n) if len(adj[v]) == 2}
    reach = max((k // r for k, r in need), default=0)
    for v in deg2:
        # breadth-first search from v, `reach` levels deep
        seen = {v}
        level = [v]
        for _ in range(reach):
            level = [w for x in level for w, _ in adj[x] if w not in seen]
            if deg2.intersection(level):
                return False
            seen.update(level)
    closed = [m | 1 << v for v, m in enumerate(g.neighbor_masks())]
    for r, k in {r: k for k, r in need}.items():
        # a member's closed neighborhood leaves room for the other r - 1
        small = [v for v in range(n) if closed[v].bit_count() <= k - r + 1]
        for combo in itertools.combinations(small, r):
            members = union = 0
            for v in combo:
                members |= 1 << v
                union |= closed[v]
            if union.bit_count() <= k and all(
                    closed[v] & members == 1 << v for v in combo):
                return False
    return True


def find_contractible_certificate(g: MultiGraph, alpha: Fraction):
    """Scan for an alpha-contractible 2EC subgraph with at most
    CONTRACTIBLE_MAX_VERTICES vertices.

    Candidates are short induced cycles rich in interior vertices.  Absence of
    a result is NOT a refutation; contractibility is only ever confirmed.
    Returns (edge_id_set, justification) or None.

    The cycle enumeration is skipped, with the same None, when
    `_no_certifiable_candidate` shows that no candidate can pass
    `certify_contractible`.
    """
    masks = g.neighbor_masks()
    adj = g.adjacency()
    n = g.n
    limit = CONTRACTIBLE_MAX_VERTICES
    if _no_certifiable_candidate(g, alpha, limit):
        return None

    seen_sets = set()
    budget = [CONTRACTIBLE_SCAN_BUDGET]

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
