"""Immutable undirected simple graphs and the degree/subgraph primitives.

Vertex ids are always ``0..n-1``.  A graph keeps one adjacency, which also
answers every edge question.  Operations that restrict to a vertex subset
return the new graph together with an id-remapping table so callers can
lift results back to the host graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .outcomes import EmptyGraphError, InvalidArgumentError, InvalidVertexError


class Graph:
    """Simple undirected graph, immutable once constructed.

    Self-loops are rejected; duplicate edges collapse silently.  The one
    adjacency has two views: sorted neighbour tuples (`_adj`) for ordered,
    deterministic walks, and bitsets (`neighbor_masks()`, built on first
    use) for set algebra.  No edge set is kept beside them.
    """

    __slots__ = ("n", "_adj", "_masks")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if n < 0:
            raise InvalidArgumentError("vertex count must be nonnegative")
        self.n = n
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidVertexError(f"edge ({u}, {v}) outside 0..{n - 1}")
            if u == v:
                raise InvalidArgumentError(f"self-loop at {u}")
            adj[u].add(v)
            adj[v].add(u)
        self._adj: tuple[tuple[int, ...], ...] = tuple(
            tuple(sorted(nbrs)) for nbrs in adj
        )
        self._masks: tuple[int, ...] | None = None

    # -- basic accessors ---------------------------------------------------

    def vertices(self) -> range:
        return range(self.n)

    def neighbors(self, v: int) -> tuple[int, ...]:
        self.check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self.check_vertex(v)
        return len(self._adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        # the range check keeps a negative u from wrapping to another vertex
        return 0 <= u < self.n and v in self._adj[u]

    def edge_count(self) -> int:
        return sum(map(len, self._adj)) // 2

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge as (u, v) with u < v, in sorted order."""
        return tuple(
            (u, v) for u, nbrs in enumerate(self._adj) for v in nbrs if v > u
        )

    def neighbor_masks(self) -> tuple[int, ...]:
        """Each vertex's neighbourhood as a bitmask, built on first use."""
        if self._masks is None:
            masks = []
            for nbrs in self._adj:
                m = 0
                for w in nbrs:
                    m |= 1 << w
                masks.append(m)
            self._masks = tuple(masks)
        return self._masks

    def check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InvalidVertexError(f"vertex {v} outside 0..{self.n - 1}")

    def check_subset(self, vs: Iterable[int]) -> frozenset[int]:
        out = frozenset(vs)
        # the range check is cheap; the loop only runs to name the culprit
        if out and (min(out) < 0 or max(out) >= self.n):
            for v in out:
                self.check_vertex(v)
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __hash__(self) -> int:
        return hash(self._adj)

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count()})"

    # -- traversal helpers -------------------------------------------------

    def components(self) -> list[frozenset[int]]:
        """Connected components, sorted by smallest member id.

        Not built on `bfs_distances`: `brute_force_subdivision` tries branch
        sets in the frozensets' iteration order, which a version built on it
        changed on G(n, p) hosts.
        """
        seen = [False] * self.n
        comps: list[frozenset[int]] = []
        for s in range(self.n):
            if seen[s]:
                continue
            seen[s] = True
            queue = deque([s])
            comp = {s}
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.add(w)
                        queue.append(w)
            comps.append(frozenset(comp))
        return comps

    def two_coloring(self) -> tuple[int, ...] | None:
        """Proper 2-coloring with color 0 on each component's least vertex,
        or None when some component contains an odd cycle.  Not built on
        `bfs_distances`, so that it stops at the first conflict: colouring by
        `bfs_distances` parity took 1.0 ms instead of 0.017 ms on K160 and
        7-40% longer on bipartite hosts (2-vCPU Xeon VM).
        """
        color = [-1] * self.n
        for s in range(self.n):
            if color[s] != -1:
                continue
            color[s] = 0
            queue = deque([s])
            while queue:
                u = queue.popleft()
                for w in self._adj[u]:
                    if color[w] == -1:
                        color[w] = 1 - color[u]
                        queue.append(w)
                    elif color[w] == color[u]:
                        return None
        return tuple(color)

    def bfs_distances(self, sources: Iterable[int], blocked: frozenset[int] = frozenset()) -> dict[int, int]:
        """Distances from the source set, never entering `blocked`: the
        library's one distance BFS, which grows and checks expansions."""
        dist: dict[int, int] = {}
        queue: deque[int] = deque()
        for s in sorted(set(sources)):
            self.check_vertex(s)
            if s in blocked:
                continue
            dist[s] = 0
            queue.append(s)
        while queue:
            u = queue.popleft()
            for w in self._adj[u]:
                if w not in dist and w not in blocked:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return dist

    # -- subgraphs ----------------------------------------------------------

    def induced(self, keep: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph plus the table mapping new ids to host ids.

        Keeping every vertex returns this graph itself, which is safe
        because graphs are immutable.
        """
        kept = self.check_subset(keep)
        if len(kept) == self.n:
            return self, tuple(self.vertices())
        ids = tuple(sorted(kept))
        back = {old: new for new, old in enumerate(ids)}
        edges = [
            (new, back[w])
            for new, u in enumerate(ids)
            for w in self._adj[u]
            if w > u and w in back
        ]
        return Graph(len(ids), edges), ids

    def delete(self, drop: Iterable[int]) -> tuple["Graph", tuple[int, ...]]:
        """Induced subgraph on the complement of `drop`, with id table."""
        gone = self.check_subset(drop)
        return self.induced(v for v in range(self.n) if v not in gone)


@dataclass(frozen=True)
class DegreeStats:
    """Exact degree summary; the average is kept rational."""

    average: Fraction
    minimum: int
    maximum: int


def degree_stats(g: Graph) -> DegreeStats:
    """Average (exact), minimum, and maximum degree of a nonempty graph."""
    if g.n == 0:
        raise EmptyGraphError("degree stats need at least one vertex")
    degs = [g.degree(v) for v in g.vertices()]
    return DegreeStats(Fraction(2 * g.edge_count(), g.n), min(degs), max(degs))


def average_degree(g: Graph) -> Fraction:
    if g.n == 0:
        raise EmptyGraphError("average degree needs at least one vertex")
    return Fraction(2 * g.edge_count(), g.n)


def external_neighborhood(g: Graph, xs: Iterable[int]) -> frozenset[int]:
    """N(X): vertices outside X with at least one neighbor in X."""
    x = g.check_subset(xs)
    out: set[int] = set()
    for v in x:
        for w in g.neighbors(v):
            if w not in x:
                out.add(w)
    return frozenset(out)


def core_numbers(g: Graph, alive: Iterable[int]) -> dict[int, int]:
    """Core number of every vertex of G[alive]: the largest t such that the
    vertex lies in the t-core, the maximal induced subgraph of G[alive]
    with minimum degree >= t.

    A level peel on the host's bitset adjacency, so no subgraph is built.
    Each level k is the least degree left.  While some vertex has degree
    <= k, every such vertex is removed in one round and gets core number k,
    and only the removed batch's live neighbours have their degrees
    recounted (by popcount).  When none is left, every remaining degree
    exceeds k, so the next level is higher.
    """
    live = g.check_subset(alive)
    masks = g.neighbor_masks()
    rest = sum(1 << v for v in live)  # distinct bits: the sum is the union
    deg = {v: (masks[v] & rest).bit_count() for v in live}
    core: dict[int, int] = {}
    while deg:
        k = min(deg.values())
        batch = [v for v, d in deg.items() if d <= k]
        while batch:
            touched = 0
            for v in batch:
                core[v] = k
                del deg[v]
                rest ^= 1 << v
                touched |= masks[v]
            touched &= rest
            batch = []
            while touched:
                low = touched & -touched
                touched ^= low
                w = low.bit_length() - 1
                d = deg[w] = (masks[w] & rest).bit_count()
                if d <= k:
                    batch.append(w)
    return core


def min_degree_peel(g: Graph, t: int) -> tuple[Graph, tuple[int, ...]]:
    """Maximal induced subgraph with minimum degree >= t (the t-core).

    Possibly empty.  The result is order-independent, so any deletion
    schedule reaches the same core; returns the core with its id table.
    """
    if t < 0:
        raise InvalidArgumentError("degree threshold must be nonnegative")
    core = core_numbers(g, g.vertices())
    return g.induced(v for v, c in core.items() if c >= t)


def bipartite_half(g: Graph) -> tuple[Graph, tuple[frozenset[int], frozenset[int]]]:
    """Spanning bipartite subgraph keeping at least half the edges.

    Seeds the partition by vertex-id parity, then runs a deterministic
    local search: any vertex with strictly more same-side than cross
    neighbors flips.  At the fixed point every vertex has at least half its
    edges crossing, so the crossing subgraph H has d(H) >= d(G)/2.
    """
    side = [v % 2 for v in g.vertices()]
    changed = True
    while changed:
        changed = False
        for v in g.vertices():
            same = sum(1 for w in g._adj[v] if side[w] == side[v])
            cross = len(g._adj[v]) - same
            if same > cross:
                side[v] = 1 - side[v]
                changed = True
    crossing = [(u, v) for u, v in g.edges() if side[u] != side[v]]
    part0 = frozenset(v for v in g.vertices() if side[v] == 0)
    part1 = frozenset(v for v in g.vertices() if side[v] == 1)
    return Graph(g.n, crossing), (part0, part1)
