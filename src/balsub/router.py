"""Routing paths with prescribed lengths.

`exact_paths` is the one exact-length path search: iterative, depth first
in ascending id order, pruned by a distance bound, a parity cut and a memo
of dead states, under a node budget callers can share.  It serves the
single-path searches, the length menu and the two windowed connectors here,
and the brute-force oracle in `certify`.  The connectors join a single
endpoint to a target set by the first in-window length the search finds,
and a pair of target sets by a shortest leg through one expansion plus a
windowed leg from the other.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator

from .connect import PathWitness, path_within, short_connect
from .graph import Graph
from .outcomes import BuildFailure, InvalidArgumentError, SearchBudgetExceeded, TooLargeError

MENU_CAP = 24
REALIZE_CAP = 26
_SEARCH_BUDGET = 400_000


@dataclass(frozen=True)
class LengthWindow:
    lo: int
    hi: int

    def __post_init__(self) -> None:
        if self.lo < 1 or self.hi < self.lo:
            raise InvalidArgumentError("need 1 <= lo <= hi")

    def __contains__(self, length: int) -> bool:
        return self.lo <= length <= self.hi


def exact_paths(
    g: Graph,
    start: int,
    targets: frozenset[int],
    length: int,
    allowed: frozenset[int],
    spent: list[int],
    budget: float,
) -> Iterator[tuple[int, ...]]:
    """Every simple path of exactly `length` edges from `start` to a vertex
    of `targets`, with every interior vertex in `allowed`; targets are
    terminal.

    Iterative depth-first search over the host's adjacency, neighbours in
    ascending id order.  Prunes with a distance bound toward the targets, a
    parity cut, and a memo of (vertex, visited) states that yielded nothing.
    Each expanded node adds one to `spent[0]`, which callers may share
    across searches; once it passes `budget` the search raises
    SearchBudgetExceeded.  The distance bound comes from its own BFS, not
    `Graph.bfs_distances`, because that BFS also decides the parity cut.
    """
    g.check_vertex(start)
    g.check_subset(targets)
    if length < 1 or start in targets:
        return
    # every id read below comes from the graph itself: skip the checks
    # Graph.neighbors makes for outside callers
    adj = g._adj
    # BFS from the targets through `allowed` (start is reached, not crossed)
    # to depth `length`.  If every edge it examines joins depths of opposite
    # parity, any path from w to a target has the parity of depth[w]; edges
    # it skips join two vertices at depth `length`, which no path here uses.
    depth = dict.fromkeys(targets, 0)
    frontier = sorted(targets)
    parity = True
    d = 0
    while frontier and d < length:
        d += 1
        reached = []
        for u in frontier:
            for w in adj[u]:
                if w not in allowed and w != start:
                    continue
                if w not in depth:
                    depth[w] = d
                    if w != start:
                        reached.append(w)
                elif depth[w] % 2 != d % 2:
                    parity = False
        frontier = reached

    def viable(w: int, remaining: int) -> bool:
        dw = depth.get(w)
        return dw is not None and dw <= remaining and not (parity and (remaining - dw) % 2)

    if not viable(start, length):
        return
    failed: set[tuple[int, int]] = set()
    path = [start]
    visited = 1 << start
    frames = [iter(adj[start])]
    # yields so far when each frame was entered: a frame that leaves the
    # count unchanged yielded nothing, so its state goes in the memo
    marks = [0]
    yields = 0
    spent[0] += 1
    while frames:
        # every node expansion is followed by this check
        if spent[0] > budget:
            raise SearchBudgetExceeded(f"search budget of {budget} nodes exhausted")
        remaining = length - len(path)  # edges left after the next step
        for w in frames[-1]:
            if visited >> w & 1:
                continue
            if w in targets:
                if remaining == 0:
                    yields += 1
                    yield (*path, w)
                continue
            if remaining == 0 or not viable(w, remaining) or (w, visited | 1 << w) in failed:
                continue
            spent[0] += 1
            path.append(w)
            visited |= 1 << w
            frames.append(iter(adj[w]))
            marks.append(yields)
            break
        else:
            frames.pop()
            if marks.pop() == yields:
                failed.add((path[-1], visited))
            visited ^= 1 << path.pop()


def exact_path_in_region(
    g: Graph,
    allowed: Iterable[int],
    start: int,
    targets: Iterable[int],
    length: int,
    budget: int = _SEARCH_BUDGET,
) -> list[int] | None:
    """Simple path of exactly `length` edges from start into `targets`,
    with every interior vertex drawn from `allowed`.  Returns host vertex
    ids, or None when no such path exists; raises SearchBudgetExceeded
    when the search expands more than `budget` nodes before deciding."""
    allowed_set = g.check_subset(allowed)
    target_set = g.check_subset(targets)
    g.check_vertex(start)
    if not target_set:
        raise InvalidArgumentError("need at least one target")
    inner = allowed_set - target_set - {start}
    found = next(exact_paths(g, start, target_set, length, inner, [0], budget), None)
    return None if found is None else list(found)


def realize_exact_length(
    g: Graph,
    center: Iterable[int],
    v1: int,
    v2: int,
    target: int,
    cap: int = REALIZE_CAP,
) -> PathWitness | None:
    """Search G[center + {v1, v2}] for a v1,v2-path of exactly `target`
    edges.  Refuses regions above `cap` vertices.  None means no such path
    exists; SearchBudgetExceeded means the search could not decide."""
    center_set = _check_endpoints(g, center, v1, v2, cap)
    if target < 1:
        raise InvalidArgumentError("target length must be >= 1")
    found = next(
        exact_paths(g, v1, frozenset({v2}), target, center_set, [0], _SEARCH_BUDGET),
        None,
    )
    return None if found is None else PathWitness(found)


def simple_path_lengths(
    g: Graph,
    center: Iterable[int],
    v1: int,
    v2: int,
    cap: int = MENU_CAP,
) -> frozenset[int]:
    """All lengths of simple v1,v2-paths inside G[center + {v1, v2}]."""
    center_set = _check_endpoints(g, center, v1, v2, cap)
    return frozenset(
        length
        for length in range(1, len(center_set | {v1, v2}))
        if next(exact_paths(g, v1, frozenset({v2}), length, center_set, [0], math.inf), None)
        is not None
    )


def _check_endpoints(
    g: Graph, center: Iterable[int], v1: int, v2: int, cap: int
) -> frozenset[int]:
    center_set = g.check_subset(center)
    g.check_vertex(v1)
    g.check_vertex(v2)
    if v1 == v2:
        raise InvalidArgumentError("endpoints must differ")
    region = center_set | {v1, v2}
    if len(region) > cap:
        raise TooLargeError(f"region has {len(region)} vertices, cap {cap}")
    return center_set


def _expansion_vertices(f) -> frozenset[int]:
    verts = getattr(f, "vertices", f)
    return frozenset(verts)


def connect_with_length(
    g: Graph,
    v: int,
    f,
    u: Iterable[int],
    avoid: Iterable[int] = (),
    window: LengthWindow = LengthWindow(1, 1),
) -> PathWitness | BuildFailure:
    """Path from v into the set U whose length lands in `window`.

    Tries each length of the window in ascending order with an exact-length
    search whose interior avoids both `avoid` and U, and returns the first
    path found.  Fails with "search_budget_exhausted" when no length
    succeeded and some length ran out of budget undecided, and with
    "window_unreachable" when every length was refuted.
    """
    u_set = g.check_subset(u)
    avoid_set = g.check_subset(avoid)
    g.check_vertex(v)
    f_verts = g.check_subset(_expansion_vertices(f))
    if v not in f_verts:
        raise InvalidArgumentError("v must anchor its expansion")
    if v in u_set or v in avoid_set:
        raise InvalidArgumentError("v cannot lie in U or the avoid set")
    if u_set & avoid_set or f_verts & avoid_set or f_verts & u_set:
        raise InvalidArgumentError("U, the expansion, and avoid must be disjoint")

    allowed = frozenset(g.vertices()) - avoid_set - u_set - {v}
    undecided = []
    for target in range(window.lo, window.hi + 1):
        try:
            found = next(exact_paths(g, v, u_set, target, allowed, [0], _SEARCH_BUDGET), None)
        except SearchBudgetExceeded:
            undecided.append(target)
            continue
        if found is not None:
            return PathWitness(found)
    detail = (
        f"no path from {v} into the target set with length in "
        f"[{window.lo}, {window.hi}]"
    )
    if undecided:
        return BuildFailure(
            "search_budget_exhausted",
            f"{detail}; search budget exhausted at lengths {undecided}",
        )
    return BuildFailure("window_unreachable", detail)


def connect_pair_with_length(
    g: Graph,
    u1: Iterable[int],
    u2: Iterable[int],
    f3,
    f4,
    avoid: Iterable[int] = (),
    window: LengthWindow = LengthWindow(2, 2),
) -> tuple[PathWitness, PathWitness] | BuildFailure:
    """Two disjoint paths: a short one from one target set to the nearer
    expansion's core, then a windowed one joining the remaining pair, so
    the total length lands in `window`."""
    u1_set = g.check_subset(u1)
    u2_set = g.check_subset(u2)
    avoid_set = g.check_subset(avoid)
    f3_verts = g.check_subset(_expansion_vertices(f3))
    f4_verts = g.check_subset(_expansion_vertices(f4))
    anchor3 = getattr(f3, "anchor", min(f3_verts))
    anchor4 = getattr(f4, "anchor", min(f4_verts))
    groups = [u1_set, u2_set, f3_verts, f4_verts]
    for i, x in enumerate(groups):
        for y in groups[i + 1:]:
            if x & y:
                raise InvalidArgumentError("endpoint sets and expansions must be pairwise disjoint")
        if x & avoid_set:
            raise InvalidArgumentError("avoid set overlaps an endpoint set")

    first = short_connect(
        g, sorted(u1_set | u2_set), sorted(f3_verts | f4_verts), avoid_set
    )
    if first is None:
        return BuildFailure("window_unreachable", "target sets cannot reach the expansions")
    hit_end = first.vertices[-1]
    if hit_end in f3_verts:
        touched, touched_anchor = f3_verts, anchor3
        spare, spare_anchor = f4_verts, anchor4
    else:
        touched, touched_anchor = f4_verts, anchor4
        spare, spare_anchor = f3_verts, anchor3
    used_u = u1_set if first.vertices[0] in u1_set else u2_set
    other_u = u2_set if used_u is u1_set else u1_set

    tail = path_within(g, touched, hit_end, touched_anchor)
    if tail is None:
        return BuildFailure("window_unreachable", "touched expansion is not internally connected")
    p_short = PathWitness(tuple(list(first.vertices) + tail[1:]))
    if p_short.length >= window.hi:
        return BuildFailure(
            "window_unreachable",
            f"short leg already uses {p_short.length} of the window",
        )

    residual = LengthWindow(
        max(1, window.lo - p_short.length), window.hi - p_short.length
    )
    second = connect_with_length(
        g,
        spare_anchor,
        spare,
        sorted(other_u),
        avoid_set | set(p_short.vertices),
        residual,
    )
    if isinstance(second, BuildFailure):
        return BuildFailure(second.reason, f"long leg failed: {second.detail}")
    # the residual window puts the combined length inside `window`
    # orient both with the target-set endpoint first and the core last
    return p_short, second.reversed()
