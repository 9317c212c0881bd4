"""Immutable undirected simple graphs and the degree/subgraph primitives.

Vertex ids are always ``0..n-1``.  A graph keeps one adjacency, which also
answers every edge question.  Operations that restrict to a vertex subset
return the new graph together with an id-remapping table so callers can
lift results back to the host graph.

The kernels the unit route leans on (`Graph.two_coloring`,
`bipartite_half`, `core_levels`) work on the cached bitset adjacency, one
big-int operation per vertex rather than one step per edge.  Graphs this
module derives from a checked one (`Graph.induced`, `bipartite_half`), and
those `Graph.from_ends` has checked in bulk, are built by the unchecked
`Graph._of`, which no other module calls.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, islice, pairwise
from operator import lt
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

    @classmethod
    def _of(
        cls,
        adj: tuple[tuple[int, ...], ...],
        masks: tuple[int, ...] | None = None,
    ) -> "Graph":
        """A graph on adjacency this module built, unchecked: `adj` must
        be sorted, symmetric and loop-free, and `masks` its bitset view."""
        g = cls.__new__(cls)
        g.n = len(adj)
        g._adj = adj
        g._masks = masks
        return g

    @classmethod
    def from_ends(cls, n: int, us: list[int], vs: list[int]) -> "Graph":
        """`Graph(n, zip(us, vs))`, built in bulk when the edges come as
        canonical edge-list text lists them.

        That is: each ``0 <= us[i] < vs[i] < n``, and the pairs strictly
        increasing.  C-level passes over the lists check this, so no edge is
        checked on its own.  Each vertex's higher neighbours are then one
        slice of `vs`, and only its lower ones take a Python loop.  A vertex
        without edges takes no Python step and no object of its own: all of
        them share the empty tuple.  Any other lists go to the constructor,
        which sorts them or names the first bad edge.
        """
        if n >= 0 and (not us or us[0] >= 0 and us[-1] < n and sorted(us) == us):
            # each distinct u, and where its run of edges starts
            heads: list[int] = []
            bounds: list[int] = []
            i = 0
            while i < len(us):
                heads.append(us[i])
                bounds.append(i)
                i = bisect_right(us, us[i], i)
            bounds.append(len(us))
            higher = [vs[a:b] for a, b in pairwise(bounds)]
            # a run above u must start past u, end below n and increase
            if all(
                u < run[0] and run[-1] < n and all(map(lt, run, islice(run, 1, None)))
                for u, run in zip(heads, higher)
            ):
                adj: list = [()] * n
                for v in set(vs):
                    adj[v] = []
                for u, v in zip(us, vs):
                    adj[v].append(u)
                for u, run in zip(heads, higher):
                    run[:0] = adj[u]
                    adj[u] = run
                return cls._of(tuple(map(tuple, adj)))
        return cls(n, zip(us, vs))

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
        or None when some component contains an odd cycle.

        Colours whole BFS levels at once on the bitset adjacency: a level's
        neighbourhood is the OR of its members' masks, one big-int OR per
        vertex instead of one visit per edge.  Not built on `bfs_distances`,
        so that it stops at the first conflict: a member whose neighbourhood
        meets its own colour class closes an odd cycle, and on K160 the
        first member of the second level already does.
        """
        masks = self.neighbor_masks()
        classes = [0, 0]
        unseen = (1 << self.n) - 1
        while unseen:
            level = unseen & -unseen
            colour = 0
            while level:
                unseen &= ~level
                classes[colour] |= level
                own = classes[colour]
                reach = 0
                while level:
                    low = level & -level
                    level ^= low
                    nbrs = masks[low.bit_length() - 1]
                    if nbrs & own:
                        return None
                    reach |= nbrs
                level = reach & unseen
                colour ^= 1
        colours = f"{classes[1]:0{self.n}b}"[::-1] if self.n else ""
        return tuple(map(int, colours))

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
        # the id map is increasing, so each filtered tuple stays sorted
        adj = tuple(
            tuple(back[w] for w in self._adj[u] if w in back) for u in ids
        )
        return Graph._of(adj), ids

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


def _members(mask: int, limit: int | None = None) -> list[int]:
    """The vertex ids set in `mask`, in increasing order; only the `limit`
    least of them when a limit is given."""
    count = mask.bit_count()
    if limit is not None and limit < count:
        count = limit
    out = []
    for _ in range(count):
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


def core_levels(g: Graph, alive: int) -> list[tuple[int, int]]:
    """The core numbers of G[alive], for the vertex mask `alive`, as
    (k, level mask) pairs in increasing k: the level holds the vertices
    whose core number is k, the largest t such that the vertex lies in the
    t-core, the maximal induced subgraph of G[alive] with minimum degree
    >= t.  Levels no vertex has are left out.

    A level peel on the host's bitset adjacency, so no subgraph is built.
    Each level k is the least degree left.  While some vertex has degree
    <= k, every such vertex is removed in one round, and only the removed
    batch's live neighbours have their degrees recounted (by popcount).
    When none is left, every remaining degree exceeds k, so the next level
    is higher; the vertices removed meanwhile are the level's mask.
    """
    if alive < 0 or alive >> g.n:
        raise InvalidVertexError(f"vertex mask {alive:#x} outside 0..{g.n - 1}")
    masks = g.neighbor_masks()
    rest = alive
    deg = {v: (masks[v] & rest).bit_count() for v in _members(alive)}
    levels: list[tuple[int, int]] = []
    while deg:
        k = min(deg.values())
        start = rest
        batch = [v for v, d in deg.items() if d <= k]
        while batch:
            touched = 0
            for v in batch:
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
        levels.append((k, start ^ rest))
    return levels


def min_degree_peel(g: Graph, t: int) -> tuple[Graph, tuple[int, ...]]:
    """Maximal induced subgraph with minimum degree >= t (the t-core).

    Possibly empty.  The result is order-independent, so any deletion
    schedule reaches the same core; returns the core with its id table.
    """
    if t < 0:
        raise InvalidArgumentError("degree threshold must be nonnegative")
    keep = 0
    for k, level in core_levels(g, (1 << g.n) - 1):
        if k >= t:
            keep |= level
    return g.induced(_members(keep))


def bipartite_half(g: Graph) -> tuple[Graph, tuple[frozenset[int], frozenset[int]]]:
    """Spanning bipartite subgraph keeping at least half the edges.

    Seeds the partition by vertex-id parity, then runs a deterministic
    local search: any vertex with strictly more same-side than cross
    neighbors flips.  At the fixed point every vertex has at least half its
    edges crossing, so the crossing subgraph H has d(H) >= d(G)/2.

    The sides are bitmasks, so a vertex's same-side count is one popcount,
    and H's bitsets are the host's masked by the other side.
    """
    masks = g.neighbor_masks()
    full = (1 << g.n) - 1
    ones = sum(1 << v for v in range(1, g.n, 2))  # side 1: the odd ids
    changed = True
    while changed:
        changed = False
        for v in g.vertices():
            on_one = ones >> v & 1
            degree = len(g._adj[v])
            hits = (masks[v] & ones).bit_count()
            same = hits if on_one else degree - hits
            if 2 * same > degree:
                ones ^= 1 << v
                changed = True
    zeros = full ^ ones
    side = [ones >> v & 1 for v in g.vertices()]
    across = ([w == 1 for w in side], [w == 0 for w in side])
    adj = tuple(
        tuple(compress(nbrs, map(across[s].__getitem__, nbrs)))
        for nbrs, s in zip(g._adj, side)
    )
    half_masks = tuple(
        m & (zeros if s else ones) for m, s in zip(masks, side)
    )
    part0 = frozenset(_members(zeros))
    part1 = frozenset(_members(ones))
    return Graph._of(adj, half_masks), (part0, part1)
