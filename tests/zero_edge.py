"""Deleting a 0-labelled edge of a trivalent network, for the tests.

A 0-labelled edge carries no lines, so the network it sits in has the same
chromatic value as the network with the edge removed and its two endpoints
smoothed.  ``test_networks.py`` checks that invariance; the program itself
never deletes edges.
"""

from __future__ import annotations

from qspin.errors import InadmissibleLabel
from qspin.networks import LabelledNetwork


def delete_zero_edge(net: LabelledNetwork, ei: int) -> LabelledNetwork:
    """Remove a 0-labelled edge and smooth the two freed 2-valent vertices.

    At each endpoint the two remaining edge-ends are concatenated; if the
    smoothing closes a circle it becomes a free loop.
    """
    if net.edges[ei][2] != 0:
        raise InadmissibleLabel("edge is not labelled 0")
    v0, v1, _ = net.edges[ei]

    # Collect, at each endpoint of ei, the other two edge-ends to splice.
    splices = []
    for v in {v0, v1}:
        rot = net.rotation[v]
        rest = [end for end in rot if end[0] != ei]
        if len(rest) != 2:
            raise InadmissibleLabel("0-edge endpoints must be distinct simple")
        splices.append(tuple(rest))

    # Union-find over edge-ends to trace the concatenated strands.
    # Each surviving edge is an arc between its two ends; splices glue ends.
    survive = [k for k in range(len(net.edges)) if k != ei]
    partner = {}
    for a, b in splices:
        partner[a] = b
        partner[b] = a

    def other_end(end):
        return (end[0], 1 - end[1])

    new_edges = []
    new_loops = list(net.free_loops)
    seen = set()
    endmap = {}  # old edge-end -> (new edge index, side) for surviving chains
    for k in survive:
        for side in (0, 1):
            start = (k, side)
            if start in seen or start in partner:
                continue
            # walk the chain from a true endpoint
            chain = []
            cur = start
            while True:
                seen.add(cur)
                chain.append(cur)
                nxt = other_end(cur)
                seen.add(nxt)
                chain.append(nxt)
                if nxt in partner:
                    cur = partner[nxt]
                else:
                    break
            label = net.edges[chain[0][0]][2]
            for e2, _ in chain:
                if net.edges[e2][2] != label:
                    raise InadmissibleLabel("spliced edges carry unequal labels")
            va = _end_vertex(net, chain[0])
            vb = _end_vertex(net, chain[-1])
            ni = len(new_edges)
            new_edges.append((va, vb, label))
            endmap[chain[0]] = (ni, 0)
            endmap[chain[-1]] = (ni, 1)
    # closed chains (circles)
    for k in survive:
        for side in (0, 1):
            start = (k, side)
            if start in seen:
                continue
            cur = start
            label = net.edges[k][2]
            while True:
                seen.add(cur)
                nxt = other_end(cur)
                seen.add(nxt)
                cur = partner[nxt]
                if cur == start:
                    break
            new_loops.append(label)

    new_vertices = [v for v in net.vertices if v not in (v0, v1)]
    new_rot = {}
    for v in new_vertices:
        new_rot[v] = [endmap[end] for end in net.rotation[v]]
    return LabelledNetwork(
        vertices=new_vertices,
        edges=new_edges,
        rotation=new_rot,
        free_loops=new_loops,
    )


def _end_vertex(net: LabelledNetwork, end):
    ei, side = end
    return net.edges[ei][side]
