"""Short paths inside expanders: path witnesses, the paper's diameter bound
and robustness budget as formulas, and deterministic set-to-set connection.

`short_connect` is the library's one shortest-path search: the unit spokes
of the gadget layer call it directly.  It finds a shortest path that avoids
a given vertex set; nothing here searches for connections that survive
vertex deletions, so `robust_budget` only evaluates the paper's formula.
Plain distances come from `Graph.bfs_distances`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

from .expander import ExpansionProfile, epsilon_of
from .graph import Graph
from .outcomes import InvalidArgumentError


@dataclass(frozen=True)
class PathWitness:
    """A concrete path given by its vertex sequence."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InvalidArgumentError("a path needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise InvalidArgumentError("path vertices must be distinct")

    @property
    def length(self) -> int:
        return len(self.vertices) - 1

    @property
    def ends(self) -> tuple[int, int]:
        return self.vertices[0], self.vertices[-1]

    def interior(self) -> tuple[int, ...]:
        return self.vertices[1:-1]

    def reversed(self) -> "PathWitness":
        return PathWitness(tuple(reversed(self.vertices)))


def check_path(g: Graph, w: PathWitness) -> bool:
    """Every consecutive pair is an edge of g."""
    return all(
        g.has_edge(u, v) for u, v in zip(w.vertices, w.vertices[1:])
    )


def diameter_bound(n: int, profile: ExpansionProfile) -> int:
    """Upper bound on the distance between linked vertices in an expander:
    ceil((2/epsilon1) * ln^3(15n/k)), clamped to at least 1."""
    if n < 1:
        raise InvalidArgumentError("need n >= 1")
    raw = (2.0 / profile.epsilon1) * math.log(15.0 * n / profile.k) ** 3
    return max(1, math.ceil(raw))


def robust_budget(x: int, profile: ExpansionProfile) -> int:
    """How many vertices may be deleted while sets of size x keep expanding:
    floor(x * eps(x) / 4)."""
    if x < 0:
        raise InvalidArgumentError("need x >= 0")
    return math.floor(x * epsilon_of(x, profile) / 4.0)


def short_connect(
    g: Graph,
    a: Iterable[int],
    b: Iterable[int],
    avoid: Iterable[int] = (),
    cap: int | None = None,
) -> PathWitness | None:
    """Shortest path from set A to set B avoiding a vertex set.

    The path's interior touches neither A, B, nor `avoid`; ties at every
    search layer break toward smaller vertex ids, so the result is unique
    for fixed inputs.  Returns None when no path of length <= cap exists.
    """
    a_set = g.check_subset(a)
    b_set = g.check_subset(b)
    avoid_set = g.check_subset(avoid)
    if not a_set or not b_set:
        raise InvalidArgumentError("both endpoint sets must be nonempty")
    if a_set & b_set:
        raise InvalidArgumentError("endpoint sets must be disjoint")
    if avoid_set & (a_set | b_set):
        raise InvalidArgumentError("avoid set overlaps an endpoint set")

    parent: dict[int, int | None] = {v: None for v in sorted(a_set)}
    frontier = sorted(a_set)
    depth = 0
    while frontier and (cap is None or depth < cap):
        depth += 1
        nxt: list[int] = []
        hit: int | None = None
        for u in frontier:
            for w in g.neighbors(u):
                if w in parent or w in avoid_set:
                    continue
                parent[w] = u
                if w in b_set:
                    if hit is None or w < hit:
                        hit = w
                else:
                    nxt.append(w)
        if hit is not None:
            path = [hit]
            cur: int | None = parent[hit]
            while cur is not None:
                path.append(cur)
                cur = parent[cur]
            path.reverse()
            return PathWitness(tuple(path))
        frontier = sorted(set(nxt))
    return None

