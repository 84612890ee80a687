"""Undirected communication topologies for networks of learners.

Graphs are small (tens of nodes), immutable, and sampled from the
Erdos-Renyi model with rejection until connected.  Nodes are numbered
0..num_nodes-1 and edges are unordered pairs without self loops.  A
graph holds every adjacency table the learners read: the neighbour
tuples, and, built on first use, the padded closed-neighbourhood table
and the breadth-first spanning forest that hedge messages travel.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Graph:
    """Immutable undirected graph.

    Parameters
    ----------
    num_nodes : int
        Number of nodes, at least 1.
    edges : tuple of (int, int)
        Unordered edges; each pair is stored sorted and the tuple itself
        is kept in sorted order so equal graphs compare and hash equal.
    """

    num_nodes: int
    edges: tuple
    neighbors: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        canonical = set()
        for k, l in self.edges:
            if k == l:
                raise ValueError("self loop at node %d" % k)
            if k > l:
                k, l = l, k
            if not (0 <= k < l < self.num_nodes):
                raise ValueError("edge (%d, %d) out of range for %d nodes"
                                 % (k, l, self.num_nodes))
            if (k, l) in canonical:
                raise ValueError("duplicate edge (%d, %d)" % (k, l))
            canonical.add((k, l))
        object.__setattr__(self, "edges", tuple(sorted(canonical)))
        adjacency = [[] for _ in range(self.num_nodes)]
        for k, l in self.edges:
            adjacency[k].append(l)
            adjacency[l].append(k)
        object.__setattr__(
            self, "neighbors", tuple(tuple(sorted(a)) for a in adjacency)
        )

    def __reduce__(self):
        # Rebuild through __init__, so that unpickled tables are read-only.
        return (Graph, (self.num_nodes, self.edges))

    @cached_property
    def closed_neighborhoods(self):
        """Each node's closed neighbourhood: a read-only (K, W) table of
        ids in ascending order, padded with K, and the (K,) float sizes."""
        sizes = np.array([1.0 + len(n) for n in self.neighbors])
        table = np.full((self.num_nodes, int(sizes.max())), self.num_nodes)
        for k, n in enumerate(self.neighbors):
            table[k, :1 + len(n)] = sorted((k,) + n)
        table.setflags(write=False)
        sizes.setflags(write=False)
        return table, sizes

    @cached_property
    def _breadth_first(self):
        """One breadth-first search from each component's lowest id,
        visiting children in ascending id order: the components, as
        sorted tuples, and each node's neighbours in the spanning forest
        it grows, as ascending tuples."""
        seen = [False] * self.num_nodes
        tree = [[] for _ in range(self.num_nodes)]
        components = []
        for start in range(self.num_nodes):
            if seen[start]:
                continue
            seen[start] = True
            queue = deque([start])
            members = [start]
            while queue:
                node = queue.popleft()
                for other in self.neighbors[node]:
                    if not seen[other]:
                        seen[other] = True
                        members.append(other)
                        queue.append(other)
                        tree[node].append(other)
                        tree[other].append(node)
            components.append(tuple(sorted(members)))
        return tuple(components), tuple(tuple(sorted(t)) for t in tree)

    @property
    def tree_neighbors(self):
        """Each node's neighbours in the breadth-first spanning forest;
        on a forest these are exactly ``neighbors``."""
        return self._breadth_first[1]

    def degree(self, node):
        return len(self.neighbors[node])


def generate_er(num_nodes, connection_prob, seed):
    """Sample an Erdos-Renyi graph G(num_nodes, connection_prob).

    Every unordered pair is included independently with probability
    ``connection_prob``.  Pairs are visited in a fixed order, so the edge
    set is a deterministic function of the seed.
    """
    if num_nodes < 2:
        raise ValueError("num_nodes must be at least 2")
    if not 0.0 < connection_prob <= 1.0:
        raise ValueError("connection_prob must be in (0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for k in range(num_nodes):
        for l in range(k + 1, num_nodes):
            if rng.random() < connection_prob:
                edges.append((k, l))
    return Graph(num_nodes, tuple(edges))


def connected_components(graph):
    """Return the node sets of each connected component, as sorted tuples."""
    return graph._breadth_first[0]


def sample_connected_er(num_nodes, connection_prob, seed, max_attempts=50):
    """Rejection-sample a connected Erdos-Renyi graph.

    Attempt ``i`` draws with seed ``seed + i`` so the sequence of
    candidates, and hence the accepted graph, is reproducible.  Raises
    ``RuntimeError`` naming the attempt count when no connected
    candidate appears within ``max_attempts``.
    """
    if max_attempts < 1:
        raise ValueError("max_attempts must be at least 1")
    for attempt in range(max_attempts):
        candidate = generate_er(num_nodes, connection_prob, seed + attempt)
        if len(connected_components(candidate)) == 1:
            return candidate
    raise RuntimeError(
        "no connected graph in %d attempts (num_nodes=%d, connection_prob=%g)"
        % (max_attempts, num_nodes, connection_prob))


def from_edge_list(text, num_nodes):
    """Parse a topology of ``num_nodes`` nodes given as text, one ``"k l"``
    pair per line, 0-based; a node no line names is isolated."""
    edges = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError("line %d: expected two indices" % lineno)
        try:
            k, l = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError("line %d: non-integer index" % lineno) from None
        edges.append((k, l))
    return Graph(num_nodes, tuple(edges))
