"""The left-right planarity test on plain dicts and lists.

This is a port of the non-recursive ``LRPlanarity`` of networkx 3.6.1
(``networkx/algorithms/planarity.py``), which implements Ulrik Brandes,
"The Left-Right Planarity Test" (2009).  It keeps networkx's order of
work step for step, so for the same vertex order and adjacency order it
certifies the same graphs and returns the same clockwise rotation at
every vertex, starting from the same neighbour, as
``nx.check_planarity(G)[1].neighbors_cw_order(v)``; ``kuratowski_edges``
keeps the edge order of ``networkx.algorithms.planarity.get_counterexample``.

What differs is only the representation:

- the oriented graph is one list of successors per vertex, in the order
  the orientation DFS oriented them, instead of an ``nx.DiGraph``;
- a conflict pair is a list ``[left_low, left_high, right_low,
  right_high]`` owned by that pair alone (networkx's ``ConflictPair``
  shares its default ``Interval`` objects between instances);
- the embedding keeps ``cw``/``ccw`` links per vertex plus the leftmost
  neighbour that ``PlanarEmbedding.add_half_edge`` tracks, instead of a
  ``PlanarEmbedding``;
- the embedding phase also returns its ``cw`` links and each vertex's
  DFS root, and signs the nesting depths into a new dict, so it can run
  twice on one test's result;
- each of the three depth-first walks keeps a stack of ``(vertex,
  iterator over its neighbours)`` pairs instead of networkx's stack of
  vertices with per-vertex resume indices and skip flags: a tree edge
  pushes the child, and the work networkx does on coming back from a
  child runs when the child's iterator is exhausted and it is popped;
- the three ``cw``/``ccw`` insertions of the embedding's walk are one
  ``link``, which puts a neighbour just counterclockwise of another
  (clockwise of ``c`` is counterclockwise of the neighbour after ``c``).

Edges are tuples ``(v, w)`` oriented from ``v`` to ``w``.

The ported code is covered by networkx's license:

    Copyright (c) 2004-2025, NetworkX Developers
    Aric Hagberg <hagberg@lanl.gov>
    Dan Schult <dschult@colgate.edu>
    Pieter Swart <swart@lanl.gov>
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are
    met:

      * Redistributions of source code must retain the above copyright
        notice, this list of conditions and the following disclaimer.

      * Redistributions in binary form must reproduce the above
        copyright notice, this list of conditions and the following
        disclaimer in the documentation and/or other materials provided
        with the distribution.

      * Neither the name of the NetworkX Developers nor the names of its
        contributors may be used to endorse or promote products derived
        from this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS
    "AS IS" AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT
    LIMITED TO, THE IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR
    A PARTICULAR PURPOSE ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT
    OWNER OR CONTRIBUTORS BE LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL,
    SPECIAL, EXEMPLARY, OR CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT
    LIMITED TO, PROCUREMENT OF SUBSTITUTE GOODS OR SERVICES; LOSS OF USE,
    DATA, OR PROFITS; OR BUSINESS INTERRUPTION) HOWEVER CAUSED AND ON ANY
    THEORY OF LIABILITY, WHETHER IN CONTRACT, STRICT LIABILITY, OR TORT
    (INCLUDING NEGLIGENCE OR OTHERWISE) ARISING IN ANY WAY OUT OF THE USE
    OF THIS SOFTWARE, EVEN IF ADVISED OF THE POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations


def kuratowski_edges(vertices, adjacency) -> list[tuple[int, int]]:
    """The edges of a Kuratowski subgraph of a non-planar graph, sorted.

    The edges are decided one at a time, each at its earlier endpoint in
    ``vertices`` order, in that endpoint's adjacency order: an edge goes
    when the graph of the edges kept so far and the edges not decided yet,
    less that edge, stays non-planar, and is kept otherwise.  The kept
    edges are the witness, the one networkx's ``get_counterexample``
    returns.

    Deletion keeps a graph planar, so when the graph stays non-planar
    without a whole block of consecutive undecided edges, each edge of the
    block goes when its turn comes; a block is therefore tested whole and
    split in halves only when its removal leaves a planar graph.  That
    costs a planarity test per block tested, about two per witness edge
    and level of halving, instead of one per edge.
    """
    position = {v: i for i, v in enumerate(vertices)}
    order = [
        (u, v) for u in vertices for v in adjacency[u] if position[v] > position[u]
    ]
    kept: list[tuple[int, int]] = []
    blocks = [(0, len(order))]
    # (len(kept), stop) of the last graph ``kept + order[stop:]`` found
    # planar.  A block whose first half all went is tested on that graph
    # again, so it is split without a test.
    planar = None
    while blocks:
        start, stop = blocks.pop()
        if (len(kept), stop) != planar:
            if not _is_planar(kept + order[stop:]):
                continue
            planar = (len(kept), stop)
        if stop - start == 1:
            kept.append(order[start])
            continue
        middle = (start + stop) // 2
        blocks.append((middle, stop))
        blocks.append((start, middle))
    return sorted((u, v) if u < v else (v, u) for u, v in kept)


def _is_planar(edges) -> bool:
    """Whether the graph of ``edges`` is planar.

    Vertices of degree at most one are deleted, and a vertex of degree
    two is suppressed: its two edges become one, dropped when it is there
    already.  Neither step changes planarity, so the test runs on what is
    left when no such vertex remains.
    """
    adj: dict[int, set[int]] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    low = [v for v, nbrs in adj.items() if len(nbrs) <= 2]
    while low:
        v = low.pop()
        nbrs = adj.get(v)
        if nbrs is None or len(nbrs) > 2:
            continue
        del adj[v]
        for u in nbrs:
            adj[u].discard(v)
        if len(nbrs) == 2:
            u, w = nbrs
            adj[u].add(w)
            adj[w].add(u)
        for u in nbrs:
            if len(adj[u]) <= 2:
                low.append(u)
    return _lr_test(list(adj), {v: list(nbrs) for v, nbrs in adj.items()}) is not None


def _lr_test(vertices, adjacency):
    """Orientation and testing phases; ``None`` when the graph is not planar.

    Otherwise returns what the embedding phase reads: the DFS roots, tree
    parent edges, oriented successors, nesting depths, ``ref`` and ``side``.
    """
    n = len(vertices)
    if n > 2 and sum(map(len, adjacency.values())) // 2 > 3 * n - 6:
        return None

    # Orientation: DFS orientation, lowpoints and nesting depths.
    height = {}
    parent_edge = {}
    lowpt = {}
    lowpt2 = {}
    nesting = {}
    succ = {v: [] for v in vertices}
    roots = []

    # An edge is closed once its lowpoints are final: a back edge when it
    # is oriented, a tree edge when the walk pops its child.
    def close(vw):
        # nesting depth, chordal edges one deeper
        v = vw[0]
        low = lowpt[vw]
        nesting[vw] = 2 * low + (lowpt2[vw] < height[v])
        # lowpoints of the parent edge
        e = parent_edge[v]
        if e is not None:
            le = lowpt[e]
            if low < le:
                lowpt2[e] = min(le, lowpt2[vw])
                lowpt[e] = low
            elif low > le:
                lowpt2[e] = min(lowpt2[e], low)
            else:
                lowpt2[e] = min(lowpt2[e], lowpt2[vw])

    for root in vertices:
        if root in height:
            continue
        height[root] = 0
        parent_edge[root] = None
        roots.append(root)
        stack = [(root, iter(adjacency[root]))]
        while stack:
            v, nbrs = stack[-1]
            hv = height[v]
            for w in nbrs:
                vw = (v, w)
                if vw in lowpt or (w, v) in lowpt:
                    continue  # the edge was already oriented
                succ[v].append(w)
                lowpt[vw] = lowpt2[vw] = hv
                hw = height.get(w)
                if hw is None:  # tree edge
                    parent_edge[w] = vw
                    height[w] = hv + 1
                    stack.append((w, iter(adjacency[w])))
                    break
                lowpt[vw] = hw  # back edge
                close(vw)
            else:
                stack.pop()
                e = parent_edge[v]
                if e is not None:
                    close(e)

    # Testing: constraints between return edges as a stack of conflict pairs.
    ordered = {v: sorted(succ[v], key=lambda w: nesting[(v, w)]) for v in vertices}
    S = []
    stack_bottom = {}
    lowpt_edge = {}
    ref = {}
    side = {}

    def conflicting(low, high, lei):
        return (low is not None or high is not None) and lowpt[high] > lei

    def add_constraints(ei, e):
        P = [None, None, None, None]
        le = lowpt[e]
        bottom = stack_bottom[ei]
        # merge the return edges of ei into P's right interval
        while True:
            Q = S.pop()
            if Q[0] is not None or Q[1] is not None:
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if Q[0] is not None or Q[1] is not None:
                return False
            if lowpt[Q[2]] > le:
                if P[2] is None and P[3] is None:  # topmost interval
                    P[3] = Q[3]
                else:
                    ref[P[2]] = Q[3]
                P[2] = Q[2]
            else:  # align
                ref[Q[2]] = lowpt_edge[e]
            if (S[-1] if S else None) is bottom:
                break
        # merge the conflicting return edges of earlier siblings into P's left
        lei = lowpt[ei]
        top = S[-1]
        while conflicting(top[0], top[1], lei) or conflicting(top[2], top[3], lei):
            Q = S.pop()
            if conflicting(Q[2], Q[3], lei):
                Q[0], Q[1], Q[2], Q[3] = Q[2], Q[3], Q[0], Q[1]
            if conflicting(Q[2], Q[3], lei):
                return False
            ref[P[2]] = Q[3]
            if Q[2] is not None:
                P[2] = Q[2]
            if P[0] is None and P[1] is None:  # topmost interval
                P[1] = Q[1]
            else:
                ref[P[0]] = Q[1]
            P[0] = Q[0]
            top = S[-1]
        if P[0] is not None or P[1] is not None or P[2] is not None or P[3] is not None:
            S.append(P)
        return True

    def lowest(P):
        if P[0] is None and P[1] is None:
            return lowpt[P[2]]
        if P[2] is None and P[3] is None:
            return lowpt[P[0]]
        return min(lowpt[P[0]], lowpt[P[2]])

    def remove_back_edges(e):
        u = e[0]
        hu = height[u]
        # drop the conflict pairs whose return edges all end at u
        while S and lowest(S[-1]) == hu:
            P = S.pop()
            if P[0] is not None:
                side[P[0]] = -1
        if S:  # trim the intervals of one more pair
            P = S[-1]
            while P[1] is not None and P[1][1] == u:
                P[1] = ref.get(P[1])
            if P[1] is None and P[0] is not None:  # just emptied
                ref[P[0]] = P[2]
                side[P[0]] = -1
                P[0] = None
            while P[3] is not None and P[3][1] == u:
                P[3] = ref.get(P[3])
            if P[3] is None and P[2] is not None:  # just emptied
                ref[P[2]] = P[0]
                side[P[2]] = -1
                P[2] = None
        # the side of e is the side of a highest return edge
        if lowpt[e] < hu:
            top = S[-1]
            hl, hr = top[1], top[3]
            if hl is not None and (hr is None or lowpt[hl] > lowpt[hr]):
                ref[e] = hl
            else:
                ref[e] = hr

    # Like ``close``: a back edge at once, a tree edge after its child's
    # back edges are removed.
    def integrate(ei):
        # the new return edges of ei join the constraints of v's parent edge
        v = ei[0]
        if lowpt[ei] < height[v]:
            e = parent_edge[v]
            if ei[1] == ordered[v][0]:
                lowpt_edge[e] = lowpt_edge[ei]
            else:
                return add_constraints(ei, e)
        return True

    for root in roots:
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                ei = (v, w)
                stack_bottom[ei] = S[-1] if S else None
                if ei == parent_edge[w]:  # tree edge
                    stack.append((w, iter(ordered[w])))
                    break
                lowpt_edge[ei] = ei  # back edge
                S.append([None, None, ei, ei])
                if not integrate(ei):
                    return None
            else:
                stack.pop()
                e = parent_edge[v]
                if e is not None:
                    remove_back_edges(e)
                    if not integrate(e):
                        return None
    return roots, parent_edge, succ, nesting, ref, side


def _embedding(vertices, roots, parent_edge, succ, nesting, ref, side):
    """Resolve sides, then build the rotation of every vertex.

    Returns ``rotation``, where ``rotation[v]`` lists ``v``'s neighbours
    clockwise from the leftmost one; the links ``cw``, where ``cw[v][u]``
    is the neighbour after ``u`` in it; and the root of each vertex's DFS
    tree.  The trees are the components, each rooted at its first vertex
    in ``vertices`` order.  The path compression in ``sign`` is
    idempotent, so the phase can run on the same inputs more than once.
    """

    def sign(e):
        chain = []
        r = ref.get(e)
        while r is not None:
            chain.append(e)
            ref[e] = None
            e = r
            r = ref.get(e)
        s = side.get(e, 1)
        for f in reversed(chain):
            s *= side.get(f, 1)
            side[f] = s
        return s

    signed = {}
    for v in vertices:
        for w in succ[v]:
            vw = (v, w)
            signed[vw] = sign(vw) * nesting[vw]

    # Each vertex's oriented edges in nesting order, linked into a cycle.
    cw = {}
    ccw = {}
    leftmost = {}
    ordered = {}
    for v in vertices:
        nbrs = ordered[v] = sorted(succ[v], key=lambda w: signed[(v, w)])
        cwv = cw[v] = {}
        ccwv = ccw[v] = {}
        prev = None
        for w in nbrs:
            if prev is None:
                cwv[w] = ccwv[w] = leftmost[v] = w
            else:
                nxt = cwv[prev]
                cwv[w] = nxt
                ccwv[w] = prev
                ccwv[nxt] = w
                cwv[prev] = w
            prev = w

    # Insert the other half of every edge at its target.
    left_ref = {}
    right_ref = {}

    def link(w, v, c):
        # v goes just counterclockwise of c around w
        cww = cw[w]
        ccww = ccw[w]
        r = ccww[c]
        cww[v] = c
        ccww[v] = r
        cww[r] = v
        ccww[c] = v

    for root in roots:
        stack = [(root, iter(ordered[root]))]
        while stack:
            v, nbrs = stack[-1]
            for w in nbrs:
                ei = (v, w)
                if ei == parent_edge[w]:  # tree edge: v becomes w's leftmost
                    if cw[w]:
                        link(w, v, leftmost[w])
                    else:
                        cw[w][v] = ccw[w][v] = v
                    leftmost[w] = v
                    left_ref[v] = right_ref[v] = w
                    stack.append((w, iter(ordered[w])))
                    break
                if side.get(ei, 1) == 1:  # just clockwise of right_ref[w]
                    link(w, v, cw[w][right_ref[w]])
                else:  # just counterclockwise of left_ref[w]
                    c = left_ref[w]
                    link(w, v, c)
                    if c == leftmost[w]:
                        leftmost[w] = v
                    left_ref[w] = v
            else:
                stack.pop()

    rotation = {}
    for v in vertices:
        cwv = cw[v]
        if not cwv:
            rotation[v] = ()
            continue
        start = leftmost[v]
        out = [start]
        cur = cwv[start]
        while cur != start:
            out.append(cur)
            cur = cwv[cur]
        rotation[v] = tuple(out)

    # ``parent_edge`` holds the vertices in discovery order, each after its parent.
    root_of = {}
    for v, e in parent_edge.items():
        root_of[v] = v if e is None else root_of[e[0]]
    return rotation, cw, root_of
