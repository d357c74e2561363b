"""Independent solution check and output digest.

The check uses networkx, not `twoec.oracle`: a solution must be a set of
edge ids of the input whose subgraph spans every vertex, is connected and
has no bridge, with parallel edges kept as separate edges.
"""

from __future__ import annotations

import hashlib

import networkx as nx


def check_solution(g, edges):
    """None if `edges` is a 2-edge-connected spanning subgraph of g, else
    the reason it is not."""
    endpoints = {eid: (u, v) for eid, u, v in g.edges}
    if len(set(edges)) != len(edges):
        return "repeated edge id"
    h = nx.MultiGraph()
    h.add_nodes_from(range(g.n))
    for eid in edges:
        if eid not in endpoints:
            return f"edge id {eid} is not in the input"
        u, v = endpoints[eid]
        h.add_edge(u, v, key=eid)
    if not nx.is_connected(h):
        return "not connected"
    if nx.has_bridges(h):
        return "has a bridge"
    return None


def digest(outcomes):
    """sha256 over every instance's solution edge list, in workload order;
    a failed instance contributes its exception type."""
    h = hashlib.sha256()
    for i, outcome in enumerate(outcomes):
        h.update(f"{i}:{outcome}\n".encode())
    return h.hexdigest()
