"""Routing paths with prescribed lengths.

`exact_paths` is the one exact-length path search: iterative, depth first
in ascending id order, pruned by a distance bound, a parity cut and a memo
of dead states, under a node budget callers can share.  It serves the
brute-force oracle in `certify`, and through `exact_path_in_region` the
assembly's segments and the adjuster menu check in `gadgets`.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .graph import Graph
from .outcomes import InvalidArgumentError, SearchBudgetExceeded

_SEARCH_BUDGET = 400_000


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
