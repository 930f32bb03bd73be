"""The undirected network graph of §4 (Figs. 13-16).

One vertex per gate and per net; an undirected edge joins a gate vertex
to a net vertex whenever the gate uses the net as an input or as an
output.  The graph is bipartite and — because a net may feed the same
gate twice — a multigraph.

Shift elimination reads this graph as a constraint system: an *output*
edge says ``alignment(net) = alignment(gate)`` and an *input* edge says
``alignment(net) = alignment(gate) - 1`` (conditions 2-4 of §4).  A
cycle is consistent iff its *weight* — computed by the paper's
traversal rule — is zero; a non-zero-weight cycle forces a retained
shift of that magnitude.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.netlist.circuit import Circuit

__all__ = [
    "Vertex",
    "Edge",
    "UndirectedNetworkGraph",
    "cycle_weight",
    "fundamental_cycles",
    "can_eliminate_all_shifts",
]

#: A vertex is ("net", name) or ("gate", name).
Vertex = tuple[str, str]


class Edge:
    """An undirected gate-net edge.

    ``role`` is ``"input"`` if the gate reads the net, ``"output"`` if
    the gate drives it.  ``key`` disambiguates parallel edges (a net
    wired to two input pins of the same gate).
    """

    __slots__ = ("gate", "net", "role", "key")

    def __init__(self, gate: str, net: str, role: str, key: int) -> None:
        self.gate = gate
        self.net = net
        self.role = role
        self.key = key

    @property
    def gate_vertex(self) -> Vertex:
        return ("gate", self.gate)

    @property
    def net_vertex(self) -> Vertex:
        return ("net", self.net)

    def other(self, vertex: Vertex) -> Vertex:
        return self.net_vertex if vertex == self.gate_vertex else self.gate_vertex

    def __repr__(self) -> str:
        return f"Edge({self.gate}-{self.net}, {self.role}, #{self.key})"


class UndirectedNetworkGraph:
    """The undirected network graph of a circuit."""

    def __init__(self, circuit: Circuit) -> None:
        self.circuit = circuit
        self.edges: list[Edge] = []
        self.adjacency: dict[Vertex, list[Edge]] = {}
        key = 0
        for gate in circuit.gates.values():
            for in_net in gate.inputs:
                self._add(Edge(gate.name, in_net, "input", key))
                key += 1
            self._add(Edge(gate.name, gate.output, "output", key))
            key += 1
        # Nets with no incident edge (isolated primary inputs) still get
        # vertices so component counting is honest.
        for net_name in circuit.nets:
            self.adjacency.setdefault(("net", net_name), [])

    def _add(self, edge: Edge) -> None:
        self.edges.append(edge)
        self.adjacency.setdefault(edge.gate_vertex, []).append(edge)
        self.adjacency.setdefault(edge.net_vertex, []).append(edge)

    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self.adjacency)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def vertices(self) -> Iterator[Vertex]:
        return iter(self.adjacency)

    def components(self) -> list[set[Vertex]]:
        """Connected components (as vertex sets)."""
        seen: set[Vertex] = set()
        result: list[set[Vertex]] = []
        for start in self.adjacency:
            if start in seen:
                continue
            component: set[Vertex] = set()
            stack = [start]
            while stack:
                vertex = stack.pop()
                if vertex in component:
                    continue
                component.add(vertex)
                for edge in self.adjacency[vertex]:
                    stack.append(edge.other(vertex))
            seen |= component
            result.append(component)
        return result

    def cycle_rank(self) -> int:
        """Number of independent cycles: sum over components of E-V+1.

        §4: "The number of edges that must be removed from each connected
        component is equal to F = E - V + 1", the back-arc count of any
        DFS of the component.
        """
        return self.num_edges - self.num_vertices + len(self.components())

    def is_acyclic(self) -> bool:
        return self.cycle_rank() == 0

    def to_networkx(self):
        """Export as a ``networkx.MultiGraph`` (for plotting/debugging)."""
        import networkx as nx

        graph = nx.MultiGraph()
        for vertex in self.adjacency:
            graph.add_node(vertex, kind=vertex[0])
        for edge in self.edges:
            graph.add_edge(
                edge.gate_vertex, edge.net_vertex, key=edge.key, role=edge.role
            )
        return graph

    def __repr__(self) -> str:
        return (
            f"UndirectedNetworkGraph({self.circuit.name!r}: "
            f"{self.num_vertices} vertices, {self.num_edges} edges, "
            f"rank {self.cycle_rank()})"
        )


def cycle_weight(cycle: list[Edge]) -> int:
    """Weight of a simple cycle, per the §4 traversal rule.

    ``cycle`` is the edge sequence of a closed walk alternating net and
    gate vertices.  Each gate vertex is entered by one edge and left by
    the next; it contributes +1 when entered through an input edge and
    left through an output edge, -1 for the opposite, 0 when both edges
    have the same role.  Net vertices contribute 0.  The sign depends on
    traversal direction; the magnitude does not.
    """
    if not cycle:
        return 0
    total = 0
    n = len(cycle)
    for i, edge in enumerate(cycle):
        next_edge = cycle[(i + 1) % n]
        if edge.gate != next_edge.gate:
            continue  # the shared vertex is a net, weight 0
        # Consecutive edges sharing the gate vertex: entering via `edge`,
        # leaving via `next_edge`.  But two consecutive edges may share
        # both a gate and a net name (e.g. a 2-edge parallel cycle);
        # alternation means edge i and i+1 share exactly one vertex, and
        # for even positions in a net-started walk that vertex is a gate.
        if edge.role == "input" and next_edge.role == "output":
            total += 1
        elif edge.role == "output" and next_edge.role == "input":
            total -= 1
    return total


def fundamental_cycles(
    graph: UndirectedNetworkGraph,
    roots: Optional[list[Vertex]] = None,
) -> list[list[Edge]]:
    """A fundamental cycle basis via an iterative DFS spanning forest.

    Each non-tree ("back") edge closes exactly one cycle with the tree
    path between its endpoints.  Returns each cycle as an edge list
    ordered along the cycle, suitable for :func:`cycle_weight`.
    """
    parent_edge: dict[Vertex, Optional[Edge]] = {}
    depth: dict[Vertex, int] = {}
    cycles: list[list[Edge]] = []
    visited_edges: set[int] = set()

    order = list(roots) if roots else list(graph.adjacency)
    for root in order:
        if root in parent_edge:
            continue
        parent_edge[root] = None
        depth[root] = 0
        stack: list[Vertex] = [root]
        while stack:
            vertex = stack.pop()
            for edge in graph.adjacency[vertex]:
                if edge.key in visited_edges:
                    continue
                other = edge.other(vertex)
                if other not in parent_edge:
                    visited_edges.add(edge.key)
                    parent_edge[other] = edge
                    depth[other] = depth[vertex] + 1
                    stack.append(other)
                else:
                    visited_edges.add(edge.key)
                    cycles.append(_close_cycle(edge, vertex, other,
                                               parent_edge, depth))
    return cycles


def _close_cycle(
    back_edge: Edge,
    u: Vertex,
    v: Vertex,
    parent_edge: dict[Vertex, Optional[Edge]],
    depth: dict[Vertex, int],
) -> list[Edge]:
    """Build the cycle formed by ``back_edge`` and the tree path u..v."""
    up_from_u: list[Edge] = []
    up_from_v: list[Edge] = []
    while depth[u] > depth[v]:
        edge = parent_edge[u]
        assert edge is not None
        up_from_u.append(edge)
        u = edge.other(u)
    while depth[v] > depth[u]:
        edge = parent_edge[v]
        assert edge is not None
        up_from_v.append(edge)
        v = edge.other(v)
    while u != v:
        edge_u = parent_edge[u]
        edge_v = parent_edge[v]
        assert edge_u is not None and edge_v is not None
        up_from_u.append(edge_u)
        up_from_v.append(edge_v)
        u = edge_u.other(u)
        v = edge_v.other(v)
    # Walk: back_edge (u0 -> v0), then v0 up to meeting point, then down
    # to u0.  Ordering the edges along the closed walk:
    return [back_edge] + up_from_v + list(reversed(up_from_u))


def can_eliminate_all_shifts(circuit: Circuit) -> bool:
    """Whether conditions 1-4 of §4 are simultaneously enforceable.

    "A necessary and sufficient condition for a cycle to prevent the
    enforcement of conditions 1-4 is that its weight be non-zero."
    Cycle weights are linear over the cycle space (each weight is a sum
    of per-edge alignment constraints), so checking one fundamental
    cycle basis suffices: every cycle's weight is an integer
    combination of the basis weights.

    When this returns ``True``, path tracing retains zero shifts (a
    property the test suite cross-checks); when ``False``, *any*
    alignment must keep at least one shift.
    """
    graph = UndirectedNetworkGraph(circuit)
    return all(
        cycle_weight(cycle) == 0 for cycle in fundamental_cycles(graph)
    )
