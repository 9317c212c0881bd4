"""Structural gadgets: hubs, units, expansions and adjusters.

These are the building blocks assembled into balanced subdivisions.  Every
gadget has a builder returning the record or a BuildFailure, and a
validator that recomputes each definitional clause from raw adjacency.

Distances (growing and checking an expansion) come from
`Graph.bfs_distances`, and spokes from `connect.short_connect`.
`_shortest_cycle` keeps its own BFS.  Hubs are built on vertex masks: the
cores are `graph.core_levels` masks, and counts of vertices settle hopeless
cores, centres and lean unit passes without a search.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .connect import PathWitness, check_path, short_connect
from .graph import Graph, _members, bipartite_half, core_levels
from .outcomes import (
    BuildFailure,
    Clause,
    InvalidArgumentError,
    InvalidVertexError,
    SearchBudgetExceeded,
    ValidationReport,
)
from . import router


# -- hubs --------------------------------------------------------------------


@dataclass(frozen=True)
class Hub:
    """A center, h1 first-layer neighbors, and h2 private second-layer
    neighbors behind each first-layer vertex."""

    center: int
    first_layer: tuple[int, ...]
    second_layers: tuple[tuple[int, tuple[int, ...]], ...]

    def b1(self) -> frozenset[int]:
        return frozenset({self.center, *self.first_layer})

    def exterior(self) -> frozenset[int]:
        return frozenset(s for _, layer in self.second_layers for s in layer)

    def all_vertices(self) -> frozenset[int]:
        return self.b1() | self.exterior()

    @property
    def h1(self) -> int:
        return len(self.first_layer)

    @property
    def h2(self) -> int:
        return len(self.second_layers[0][1]) if self.second_layers else 0


def validate_hub(g: Graph, hub: Hub) -> ValidationReport:
    """Recheck every hub clause against the host adjacency."""
    clauses = []
    fl = hub.first_layer
    layer_map = dict(hub.second_layers)
    clauses.append(
        Clause(
            "first_layer_adjacent",
            len(set(fl)) == len(fl)
            and len(fl) >= 1
            and all(g.has_edge(hub.center, z) for z in fl),
        )
    )
    clauses.append(
        Clause(
            "second_layer_keys",
            tuple(sorted(layer_map)) == tuple(sorted(fl)),
        )
    )
    sizes = {len(layer) for _, layer in hub.second_layers}
    clauses.append(Clause("second_layer_uniform", len(sizes) == 1 and min(sizes) >= 1))
    adjacent_ok = all(
        g.has_edge(z, s) and s != hub.center
        for z, layer in hub.second_layers
        for s in layer
    )
    clauses.append(Clause("second_layer_adjacent", adjacent_ok))
    seen: set[int] = set()
    disjoint = True
    for _, layer in hub.second_layers:
        layer_set = set(layer)
        if len(layer_set) != len(layer) or layer_set & seen:
            disjoint = False
        seen |= layer_set
    clauses.append(Clause("second_layers_disjoint", disjoint))
    clauses.append(Clause("second_layers_outside_b1", not (seen & hub.b1())))
    return ValidationReport(tuple(clauses))


def _greedy_hub_at(
    g: Graph, inside: int, center: int, h1: int, h2: int
) -> Hub | None:
    """First hub at `center` inside the vertex mask `inside`: branches and
    leaves are the least ids available, as in the sorted adjacency lists.

    A failed attempt drops its bad branch from the pool, and every later
    attempt takes its branches from what is left of it.  Their h1*h2
    distinct leaves then all lie in the pool's joint neighbourhood inside
    `inside`, minus the centre, so a joint neighbourhood smaller than that
    settles the centre as None: exact, since the pool only shrinks.  The
    count waits for the first failure because most calls succeed at once.
    """
    masks = g.neighbor_masks()
    pool = masks[center] & inside
    while pool.bit_count() >= h1:
        chosen = _members(pool, h1)
        b1 = 1 << center
        for z in chosen:
            b1 |= 1 << z
        free = inside & ~b1
        used = 0
        layers: list[tuple[int, tuple[int, ...]]] = []
        bad: int | None = None
        for z in chosen:
            take = _members(masks[z] & free & ~used, h2)
            if len(take) < h2:
                bad = z
                break
            for s in take:
                used |= 1 << s
            layers.append((z, tuple(take)))
        if bad is None:
            return Hub(center, tuple(chosen), tuple(layers))
        pool ^= 1 << bad
        reach = 0
        for z in _members(pool):
            reach |= masks[z]
        if (reach & inside & ~(1 << center)).bit_count() < h1 * h2:
            return None
    return None


def build_hub(
    g: Graph,
    avoid: int | Iterable[int],
    h1: int,
    h2: int,
) -> Hub | BuildFailure:
    """Greedy hub construction inside the densest core of G - avoid.

    `avoid` is a vertex mask or an iterable of vertex ids; the mask form
    spares a caller that keeps one (`_place_hubs`) a walk over every id.

    Tries min-degree cores from the largest feasible threshold downward;
    within a core, scans centers in id order and repairs the first layer
    whenever some branch cannot supply h2 private second-layer vertices.
    Cores are vertex subsets of the host, which is never rebuilt: the
    level masks of `core_levels`, OR-ed in from the top.

    A hub is 1 + h1 + h1*h2 distinct vertices of the core (centre,
    branches, leaves outside B1), so a core with fewer is skipped without
    scanning its centres: exact, because no search there can succeed.
    Lower levels hold more vertices and are still tried.  `_greedy_hub_at`
    settles hopeless centres by a second count.  Centres are taken lowest
    id first, one at a time, since most calls succeed at the first.  On a
    host with no 4-cycle two branches share no neighbour but the centre, so
    their leaves are private without being asked to be.
    """
    if h1 < 1 or h2 < 1:
        raise InvalidArgumentError("need h1 >= 1 and h2 >= 1")
    if not isinstance(avoid, int):
        avoid = sum(1 << v for v in g.check_subset(avoid))
    if avoid < 0 or avoid >> g.n:
        raise InvalidVertexError(f"vertex mask {avoid:#x} outside 0..{g.n - 1}")
    levels = core_levels(g, ((1 << g.n) - 1) & ~avoid)
    if not levels:
        return BuildFailure("insufficient_degree", "nothing left outside avoid")
    smallest = 1 + h1 + h1 * h2
    inside = 0
    for _k, level in reversed(levels):
        inside |= level
        if inside.bit_count() < smallest:
            continue
        centers = inside
        while centers:
            [center] = _members(centers, 1)
            centers ^= 1 << center
            found = _greedy_hub_at(g, inside, center, h1, h2)
            if found is not None:
                return found
    return BuildFailure(
        "insufficient_degree",
        f"no center can supply {h1} branches with {h2} private leaves each",
    )


# -- expansions ---------------------------------------------------------------


@dataclass(frozen=True)
class Expansion:
    """A connected vertex set every member of which sits within `radius`
    steps of the anchor inside the set's own induced subgraph."""

    anchor: int
    vertices: frozenset[int]
    radius: int

    @property
    def size(self) -> int:
        return len(self.vertices)


def validate_expansion(
    g: Graph, f: Expansion, size: int | None = None
) -> ValidationReport:
    anchored = f.anchor in f.vertices
    clauses = [Clause("anchor_inside", anchored)]
    if size is not None:
        clauses.append(Clause("size_exact", len(f.vertices) == size))
    # a record read from outside may name an anchor that is not in the host
    within = False
    if anchored:
        dist = g.bfs_distances([f.anchor], frozenset(g.vertices()) - f.vertices)
        within = len(dist) == len(f.vertices) and max(dist.values()) <= f.radius
    clauses.append(Clause("radius_respected", within))
    return ValidationReport(tuple(clauses))


def grow_expansion(
    g: Graph,
    anchor: int,
    size: int,
    blocked: Iterable[int] = (),
    depth_cap: int | None = None,
) -> Expansion | BuildFailure:
    """Collect `size` vertices around the anchor layer by layer, truncating
    the last layer by id, so the result stays internally connected."""
    g.check_vertex(anchor)
    if size < 1:
        raise InvalidArgumentError("expansion size must be >= 1")
    blocked_set = g.check_subset(blocked)
    if anchor in blocked_set:
        raise InvalidArgumentError("anchor is blocked")
    cap = depth_cap if depth_cap is not None else g.n
    dist = g.bfs_distances([anchor], blocked_set)
    picked = sorted(
        (v for v, d in dist.items() if d <= cap), key=lambda v: (dist[v], v)
    )[:size]
    if len(picked) < size:
        return BuildFailure(
            "expansion_collision",
            f"only {len(picked)} of {size} vertices reachable within "
            f"radius {cap} of {anchor}",
        )
    return Expansion(anchor, frozenset(picked), dist[picked[-1]])


# -- units ---------------------------------------------------------------------


@dataclass(frozen=True)
class Unit:
    """A core joined by short spokes to h0 disjoint hubs.

    The exterior is the union of the hubs' second layers; everything else
    (core, spoke interiors, hub centers and first layers) is interior and
    is what later routing must pay to pass through.
    """

    core: int
    hubs: tuple[Hub, ...]
    spokes: tuple[PathWitness, ...]
    spoke_cap: int

    def exterior(self) -> frozenset[int]:
        return frozenset(s for hub in self.hubs for s in hub.exterior())

    def all_vertices(self) -> frozenset[int]:
        verts = {self.core}
        for hub in self.hubs:
            verts |= hub.all_vertices()
        for spoke in self.spokes:
            verts |= set(spoke.vertices)
        return frozenset(verts)

    def interior(self) -> frozenset[int]:
        return self.all_vertices() - self.exterior()

    @property
    def h0(self) -> int:
        return len(self.hubs)


def validate_unit(g: Graph, unit: Unit) -> ValidationReport:
    clauses: list[Clause] = []
    hub_reports = [validate_hub(g, hub) for hub in unit.hubs]
    clauses.append(
        Clause("hubs_valid", len(unit.hubs) >= 1 and all(r.passed for r in hub_reports))
    )
    h1s = {hub.h1 for hub in unit.hubs}
    h2s = {hub.h2 for hub in unit.hubs}
    clauses.append(Clause("hub_sizes_uniform", len(h1s) == 1 and len(h2s) == 1))
    seen: set[int] = set()
    disjoint = True
    for hub in unit.hubs:
        verts = hub.all_vertices()
        if verts & seen or unit.core in verts:
            disjoint = False
        seen |= verts
    clauses.append(Clause("hubs_disjoint", disjoint))

    spokes_ok = len(unit.spokes) == len(unit.hubs)
    interiors: set[int] = set()
    spoke_disjoint = True
    for spoke, hub in zip(unit.spokes, unit.hubs):
        if not (
            check_path(g, spoke)
            and spoke.vertices[0] == unit.core
            and spoke.vertices[-1] == hub.center
            and 1 <= spoke.length <= unit.spoke_cap
        ):
            spokes_ok = False
        inner = set(spoke.interior())
        if inner & interiors or inner & seen or unit.core in inner:
            spoke_disjoint = False
        interiors |= inner
    clauses.append(Clause("spokes_valid", spokes_ok))
    clauses.append(Clause("spokes_disjoint_except_core", spoke_disjoint))

    ext = unit.exterior()
    if unit.hubs:
        h0, h1, h2 = len(unit.hubs), unit.hubs[0].h1, unit.hubs[0].h2
        clauses.append(Clause("exterior_count", len(ext) == h0 * h1 * h2))
        bound = h0 * (unit.spoke_cap + 1 + h1) + 1 + h0 * h1
        clauses.append(Clause("interior_bound", len(unit.interior()) <= bound))
    return ValidationReport(tuple(clauses))


def _spoke_search(
    g: Graph,
    w: int,
    target: int,
    cap: int,
    hard: set[int],
    all_gadget: frozenset[int],
    all_b1: frozenset[int],
    end_b1s: tuple[frozenset[int], frozenset[int]],
) -> PathWitness | None:
    """Spoke path w -> target of length <= cap.

    First pass masks every candidate-gadget vertex; the relaxed pass opens
    second layers everywhere plus the two endpoint B1 sets, then enforces
    the budget of at most 2 B1 vertices per endpoint gadget.
    """
    ends = {w, target}
    strict = (hard | all_gadget) - ends
    found = short_connect(g, [w], [target], strict, cap=cap)
    if found is not None:
        return found
    own_b1 = end_b1s[0] | end_b1s[1]
    relaxed = (hard | (all_b1 - own_b1)) - ends
    found = short_connect(g, [w], [target], relaxed, cap=cap)
    if found is None:
        return None
    verts = set(found.vertices)
    if all(len(b1 & verts) <= 2 for b1 in end_b1s):
        return found
    return None


def build_unit(
    g: Graph,
    avoid: Iterable[int],
    h0: int,
    h1: int,
    h2: int,
    h3: int,
) -> Unit | BuildFailure:
    """Grow a unit: place candidate hubs greedily (one oversized hub per
    prospective core plus oversized satellite hubs), connect one core to h0
    satellites by short disjoint spokes, then carve clean (h1, h2)-hubs
    avoiding everything the spokes used.

    The candidate hubs start at double size and shrink toward the exact
    target when the host is too small for slack.  Hubs are placed on one
    vertex mask of what is taken.  A margin whose core hub and h0
    satellites cannot fit into the vertices outside `avoid` is skipped
    without placing a hub: exact, since every hub of a shape takes exactly
    1 + h1 + h1*h2 vertices.  Its shortfall is the failure's detail only
    when no later margin or core sets one, so only then is it replayed.
    """
    if min(h0, h1, h2, h3) < 1:
        raise InvalidArgumentError("unit parameters must all be >= 1")
    avoid_set = g.check_subset(avoid)
    avoid_mask = sum(1 << v for v in avoid_set)
    free = g.n - len(avoid_set)
    failure = BuildFailure("hub_pool_exhausted", "no candidate hubs fit")
    # each margin the count skipped, with the failure standing then
    skipped: list[tuple[BuildFailure, float, int, int, int]] = []
    for margin in (2.0, 1.5, 1.0):
        mh0, mh1, mh2 = (math.ceil(margin * h) for h in (h0, h1, h2))
        if (free - (1 + mh0 + mh0 * mh2)) // (1 + mh1 + mh1 * mh2) < h0:
            skipped.append((failure, margin, mh0, mh1, mh2))
            continue
        cores, satellites = _margin_hubs(g, avoid_mask, h0, mh0, mh1, mh2)
        if not cores:
            continue
        if len(satellites) < h0:
            failure = _shortfall(failure, margin, len(satellites), h0)
            continue
        for core_hub in cores:
            result = _attach(
                g, core_hub.center, core_hub.b1(), cores + satellites,
                satellites, avoid_set, h0, h1, h2, h3,
            )
            if isinstance(result, Unit):
                return result
            failure = result

    # Lean pass for hosts too small to hold an oversized hub around the
    # core: the core is a bare vertex and satellites are rebuilt per core.
    if not _lean_pass_hopeless(g, avoid_set, h0, h1, h2):
        candidates = [v for v in g.vertices() if v not in avoid_set][:40]
        for w in candidates:
            satellites, _ = _place_hubs(g, avoid_mask | 1 << w, h0 + 1, h1, h2)
            if len(satellites) < h0:
                continue
            result = _attach(
                g, w, frozenset({w}), satellites, satellites, avoid_set,
                h0, h1, h2, h3,
            )
            if isinstance(result, Unit):
                return result
            failure = result
    for standing, margin, mh0, mh1, mh2 in reversed(skipped):
        if standing is not failure:
            break  # a later margin or core set the failure
        cores, satellites = _margin_hubs(g, avoid_mask, h0, mh0, mh1, mh2)
        if cores:
            return _shortfall(failure, margin, len(satellites), h0)
    return failure


def _margin_hubs(
    g: Graph, avoid: int, h0: int, mh0: int, mh1: int, mh2: int
) -> tuple[list[Hub], list[Hub]]:
    """One margin's candidate hubs outside the vertex mask `avoid`: up to
    two (mh0, mh2)-hubs around prospective cores, then, when one fits, up
    to h0 + 1 (mh1, mh2)-satellites."""
    cores, taken = _place_hubs(g, avoid, 2, mh0, mh2)
    if not cores:
        return cores, []
    satellites, _ = _place_hubs(g, taken, h0 + 1, mh1, mh2)
    return cores, satellites


def _shortfall(
    failure: BuildFailure, margin: float, placed: int, h0: int
) -> BuildFailure:
    """`failure` with its detail naming a margin that placed too few
    satellites."""
    return BuildFailure(
        failure.reason,
        f"margin {margin}: only {placed} satellite hubs of the {h0} required",
        failure.partial,
    )


def _lean_pass_hopeless(
    g: Graph, avoid: frozenset[int], h0: int, h1: int, h2: int
) -> bool:
    """Whether a count shows that fewer than h0 disjoint (h1, h2)-hubs fit
    outside `avoid` once a core vertex is taken too.

    A hub is 1 + h1 + h1*h2 distinct vertices.  On a bipartite host it also
    has at least h1 vertices in each colour class (its branches on one
    side; its centre and leaves, 1 + h1*h2 >= h1 of them, on the other), in
    whichever component it lies.  The lean pass only moves on to the next
    core when fewer than h0 satellites fit, so then no core can succeed.
    """
    free = g.n - len(avoid)
    if (free - 1) // (1 + h1 + h1 * h2) < h0:
        return True
    coloring = g.two_coloring()
    if coloring is None:
        return False
    ones = sum(coloring) - sum(coloring[v] for v in avoid)
    return min(ones, free - ones) // h1 < h0


def _place_hubs(
    g: Graph, taken: int, count: int, h1: int, h2: int
) -> tuple[list[Hub], int]:
    """Up to `count` disjoint (h1, h2)-hubs built one after another outside
    the vertex mask `taken`, and that mask grown by every hub placed."""
    hubs: list[Hub] = []
    while len(hubs) < count:
        cand = build_hub(g, taken, h1, h2)
        if isinstance(cand, BuildFailure):
            break
        hubs.append(cand)
        taken |= sum(1 << v for v in cand.all_vertices())
    return hubs, taken


def _attach(
    g: Graph,
    core: int,
    core_b1: frozenset[int],
    placed_hubs: list[Hub],
    satellites: list[Hub],
    avoid: frozenset[int],
    h0: int,
    h1: int,
    h2: int,
    h3: int,
) -> Unit | BuildFailure:
    """Join the core to h0 satellites by short disjoint spokes (in
    satellite order), carve clean (h1, h2)-hubs off the satellites clear of
    the spokes, and return the unit once it passes its own validator.

    `core_b1` is the core's own B1 set (just the core when it is a bare
    vertex); spokes stay off every placed hub but their endpoints' B1s.
    """
    all_hub_vertices = frozenset(v for hub in placed_hubs for v in hub.all_vertices())
    all_b1 = frozenset(v for hub in placed_hubs for v in hub.b1())
    used: set[int] = set()
    spokes: list[PathWitness] = []
    attached: list[Hub] = []
    for sat in satellites:
        if len(spokes) == h0:
            break
        spoke = _spoke_search(
            g, core, sat.center, h3, avoid | used, all_hub_vertices, all_b1,
            (core_b1, sat.b1()),
        )
        if spoke is None:
            continue
        spokes.append(spoke)
        attached.append(sat)
        used |= set(spoke.vertices) - {core}
    if len(spokes) < h0:
        name = "core" if len(core_b1) > 1 else "bare core"
        return BuildFailure(
            "connection_stalled",
            f"{name} {core} reached {len(spokes)} of {h0} satellites",
            tuple(spokes),
        )
    carved = [_carve_hub(sat, h1, h2, used | {core}) for sat in attached]
    if any(hub is None for hub in carved):
        return BuildFailure(
            "connection_stalled",
            "spokes consumed too much of a satellite hub",
            tuple(spokes),
        )
    unit = Unit(core, tuple(carved), tuple(spokes), h3)
    if not validate_unit(g, unit).passed:
        return BuildFailure(
            "connection_stalled", "assembled unit failed self-validation", unit
        )
    return unit


def _carve_hub(
    cand: Hub, h1: int, h2: int, forbidden: set[int]
) -> Hub | None:
    """Take an (h1, h2)-sub-hub of a candidate avoiding spoke vertices."""
    layers = []
    for z, layer in cand.second_layers:
        if z in forbidden:
            continue
        clean = tuple(s for s in layer if s not in forbidden)[:h2]
        if len(clean) == h2:
            layers.append((z, clean))
        if len(layers) == h1:
            break
    if len(layers) < h1:
        return None
    return Hub(cand.center, tuple(z for z, _ in layers), tuple(layers))


# -- adjusters -------------------------------------------------------------------


@dataclass(frozen=True)
class Adjuster:
    """Two cores with private expansions and a center set A realizing every
    path length base, base+2, ..., base+2*steps between the cores inside
    G[A + cores]."""

    core1: int
    core2: int
    end1: Expansion
    end2: Expansion
    center: frozenset[int]
    base_length: int
    steps: int
    m: int

    def menu(self) -> tuple[int, ...]:
        return tuple(self.base_length + 2 * i for i in range(self.steps + 1))


# the largest region G[A + cores], in vertices, whose menu is checked
_MENU_CHECK_CAP = 26


def validate_adjuster(g: Graph, adj: Adjuster) -> ValidationReport:
    """Recheck the four adjuster clauses.

    Each menu length is verified by `router.exact_path_in_region` inside
    G[A + cores]; regions above `_MENU_CHECK_CAP` vertices get the distinct
    clause name a4_menu_deferred instead of a fake pass, and lengths the
    search leaves undecided within its node budget fail a4_menu and are
    named in its detail."""
    clauses: list[Clause] = []
    parts = [adj.center, adj.end1.vertices, adj.end2.vertices]
    disjoint = (
        not (parts[0] & parts[1])
        and not (parts[0] & parts[2])
        and not (parts[1] & parts[2])
        and adj.core1 != adj.core2
    )
    anchored = adj.end1.anchor == adj.core1 and adj.end2.anchor == adj.core2
    clauses.append(Clause("a1_disjoint", disjoint and anchored))
    r1 = validate_expansion(g, adj.end1)
    r2 = validate_expansion(g, adj.end2)
    clauses.append(
        Clause(
            "a2_expansions",
            r1.passed
            and r2.passed
            and adj.end1.size == adj.end2.size
            and max(adj.end1.radius, adj.end2.radius) <= adj.m,
        )
    )
    clauses.append(
        Clause("a3_center_small", len(adj.center) <= 10 * adj.m * adj.steps)
    )
    if adj.steps < 0 or adj.base_length < 1:
        clauses.append(Clause("a4_menu", False, "need steps >= 0 and base >= 1"))
        return ValidationReport(tuple(clauses))
    if len(adj.center) + 2 > _MENU_CHECK_CAP:
        clauses.append(
            Clause(
                "a4_menu_deferred",
                True,
                f"center of {len(adj.center)} vertices exceeds cap {_MENU_CHECK_CAP}",
            )
        )
        return ValidationReport(tuple(clauses))
    missing, undecided = [], []
    for want in adj.menu():
        try:
            # the budget is read at call time, so a patched
            # router._SEARCH_BUDGET takes effect
            if router.exact_path_in_region(
                g, adj.center, adj.core1, (adj.core2,), want, router._SEARCH_BUDGET
            ) is None:
                missing.append(want)
        except SearchBudgetExceeded:
            undecided.append(want)
    problems = []
    if missing:
        problems.append(f"unrealizable lengths: {missing}")
    if undecided:
        problems.append(f"undecided lengths (search budget exhausted): {undecided}")
    clauses.append(Clause("a4_menu", not problems, "; ".join(problems)))
    return ValidationReport(tuple(clauses))


def _shortest_cycle(g: Graph) -> list[int] | None:
    """A shortest cycle, or None in a forest.  Deterministic: the least
    (length, root, closing edge) candidate wins.

    Roots are scanned in ascending order, so once a root closes a cycle of
    the girth floor (3, or 4 in a bipartite graph) no later root can win.
    Its BFS is its own, not `Graph.bfs_distances`: it keeps parent pointers
    to rebuild the cycle and stops a root's search at the first vertex u
    with 2 * dist[u] >= the best length so far.  That cut is exact: an edge
    from u to a vertex w of the level above closes a cycle of length
    2 * dist[u], but u's parent reached u before w was expanded, so w
    already found the same edge, with the same key and the same chains.
    Every other candidate from u is longer than the best.  In a bipartite
    host (floor 4), the root that closes the first 4-cycle expands no
    vertex at distance 2.
    """
    floor = 3 if g.two_coloring() is None else 4
    best: tuple[int, int, int, int] | None = None
    best_paths: tuple[list[int], list[int]] | None = None
    for root in g.vertices():
        if best is not None and best[0] == floor:
            break
        dist = {root: 0}
        parent: dict[int, int | None] = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and 2 * dist[u] >= best[0]:
                break
            for w in g._adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    length = dist[u] + dist[w] + 1
                    key = (length, root, min(u, w), max(u, w))
                    if best is None or key < best:
                        pu = _chain(parent, u)
                        pw = _chain(parent, w)
                        if len(set(pu) | set(pw)) == len(pu) + len(pw) - 1:
                            best = key
                            best_paths = (pu, pw)
    if best is None or best_paths is None:
        return None
    pu, pw = best_paths
    cycle = list(reversed(pu)) + pw[:-1]
    return _canonical_cycle(cycle)


def _chain(parent: dict[int, int | None], v: int) -> list[int]:
    out = [v]
    while parent[out[-1]] is not None:
        out.append(parent[out[-1]])  # type: ignore[arg-type]
    return out


def _canonical_cycle(cycle: list[int]) -> list[int]:
    i = cycle.index(min(cycle))
    rotated = cycle[i:] + cycle[:i]
    if rotated[1] > rotated[-1]:
        rotated = [rotated[0]] + list(reversed(rotated[1:]))
    return rotated


def build_simple_adjuster(
    g: Graph,
    avoid: Iterable[int],
    size: int,
    m: int,
    c4_mode: bool = False,
) -> Adjuster | BuildFailure:
    """One-step adjuster from a shortest even cycle.

    Works inside a bipartite subgraph of G - avoid (the graph itself when
    already bipartite), takes a shortest cycle of length 2r, puts the cores
    at distance r-1 along it so the two arcs realize lengths r-1 and r+1,
    and grows two disjoint `size`-vertex expansions around the cores.  In
    c4_mode the expansions use exactly two neighborhood levels.
    """
    if size < 1 or m < 1:
        raise InvalidArgumentError("need size >= 1 and m >= 1")
    if c4_mode and m < 2:
        raise InvalidArgumentError("two-level growth needs m >= 2")
    avoid_set = g.check_subset(avoid)
    work, ids = g.delete(avoid_set)
    if work.n == 0:
        return BuildFailure("acyclic", "nothing left outside avoid")
    if work.two_coloring() is None:
        work_b, _sides = bipartite_half(work)
    else:
        work_b = work
    cycle_local = _shortest_cycle(work_b)
    if cycle_local is None:
        return BuildFailure("acyclic", "no cycle outside the avoid set")
    cycle = [ids[v] for v in cycle_local]
    assert len(cycle) % 2 == 0, "cycles of a bipartite subgraph are even"
    r = len(cycle) // 2
    if len(cycle) - 2 > 10 * m:
        return BuildFailure(
            "cycle_too_long",
            f"shortest even cycle has {len(cycle)} vertices, too long for m={m}",
        )
    v1 = cycle[0]
    v2 = cycle[r - 1]
    depth_cap = 2 if c4_mode else m
    blocked1 = avoid_set | (set(cycle) - {v1})
    end1 = grow_expansion(g, v1, size, blocked1, depth_cap)
    if isinstance(end1, BuildFailure):
        return BuildFailure("expansion_collision", f"first end: {end1.detail}")
    blocked2 = avoid_set | (set(cycle) - {v2}) | end1.vertices
    end2 = grow_expansion(g, v2, size, blocked2, depth_cap)
    if isinstance(end2, BuildFailure):
        return BuildFailure("expansion_collision", f"second end: {end2.detail}")
    center = frozenset(cycle) - {v1, v2}
    return Adjuster(
        core1=v1,
        core2=v2,
        end1=end1,
        end2=end2,
        center=center,
        base_length=r - 1,
        steps=1,
        m=m,
    )
