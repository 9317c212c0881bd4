"""Gadget builders and validators: hubs, expansions, units and adjusters.

Derived expectations (layer contents, menus, failure reasons) were computed
by hand on small hosts and cross-checked with independent searches inside
the tests (girth oracle, exhaustive path-length enumeration).
"""

import math
import random
from collections import Counter, deque

import pytest

from balsub import assemble, gadgets, router
from balsub.assemble import Overrides, RunConfig, top_level
from balsub.connect import PathWitness
from balsub.gadgets import (
    Adjuster,
    BuildFailure,
    Expansion,
    Hub,
    Unit,
    build_hub,
    build_simple_adjuster,
    build_unit,
    grow_expansion,
    validate_adjuster,
    validate_expansion,
    validate_hub,
    validate_unit,
)
from balsub.drc import _c4_free
from balsub.gadgets import _shortest_cycle
from balsub.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp,
    hypercube,
    incidence_plane,
    path_graph,
)
from balsub.graph import Graph, bipartite_half, core_levels
from balsub.outcomes import InvalidArgumentError, InvalidVertexError


def clause_map(report):
    return {c.name: c.passed for c in report.clauses}


def adjuster_length_menu(g, adj):
    """Every core-to-core path length realized inside G[A + cores]."""
    return frozenset(
        length
        for length in range(1, len(adj.center) + 2)
        if router.exact_path_in_region(g, adj.center, adj.core1, [adj.core2], length)
        is not None
    )


# -- hubs ---------------------------------------------------------------------


def test_hub_binary_tree_exact():
    # depth-2 binary tree: the only (2,2)-hub is the tree itself
    g = Graph(7, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)])
    hub = build_hub(g, (), 2, 2)
    assert isinstance(hub, Hub)
    assert hub.center == 0
    assert hub.first_layer == (1, 2)
    assert dict(hub.second_layers) == {1: (3, 4), 2: (5, 6)}
    assert hub.all_vertices() == frozenset(range(7))
    assert validate_hub(g, hub).passed


def test_hub_complete_graph_size():
    hub = build_hub(complete_graph(10), (), 3, 2)
    assert isinstance(hub, Hub)
    assert len(hub.b1()) == 4
    assert len(hub.exterior()) == 3 * 2
    assert len(hub.all_vertices()) == 10
    assert validate_hub(complete_graph(10), hub).passed


def test_hub_insufficient_degree():
    # K_{1,5}: leaves have degree 1, so no first-layer vertex can carry
    # a private second-layer vertex
    out = build_hub(complete_bipartite(1, 5), (), 2, 1)
    assert isinstance(out, BuildFailure)
    assert out.reason == "insufficient_degree"
    # K_{4,4} with (2,2): two first-layer vertices need 4 private seconds
    # but only 3 same-side vertices remain
    assert isinstance(build_hub(complete_bipartite(4, 4), (), 2, 2), BuildFailure)
    assert isinstance(build_hub(complete_bipartite(4, 4), (), 3, 1), Hub)


def test_hub_avoid_respected():
    g = complete_graph(10)
    avoid = {0, 1, 2, 3, 4}
    hub = build_hub(g, avoid, 2, 1)
    assert isinstance(hub, Hub)
    assert not (hub.all_vertices() & avoid)


def test_hub_bad_parameters():
    g = complete_graph(5)
    with pytest.raises(InvalidArgumentError):
        build_hub(g, (), 0, 1)
    with pytest.raises(InvalidArgumentError):
        build_hub(g, (), 1, 0)


def test_hub_c4_mode():
    # The old 4-cycle mode (the oracle's `c4_mode`) let leaves repeat across
    # branches and raised when two did.  On a host with no 4-cycle two
    # branches share no neighbour but the centre, so the plain hub is the
    # hub that mode built: compared on every such host below.
    hosts = [incidence_plane(q) for q in (2, 3, 5)]
    hosts += [cycle_graph(n) for n in (5, 6, 11)] + [path_graph(9)]
    for seed in range(200):
        g = gnp(20, 0.12, seed)
        if _c4_free(g, frozenset(g.vertices())):
            hosts.append(g)
    assert len(hosts) == 44
    rng = random.Random(4)
    kinds = Counter()
    for g in hosts:
        for h1, h2 in ((1, 1), (2, 1), (2, 2), (3, 2)):
            avoid = frozenset(v for v in g.vertices() if rng.random() < 0.2)
            want = _hub_or_error(oracle_build_hub, g, avoid, h1, h2, True)
            assert build_hub(g, avoid, h1, h2) == want, (g, avoid, h1, h2)
            kinds[type(want).__name__] += 1
    assert set(kinds) == {"Hub", "BuildFailure"}, kinds
    # K_{3,3} has 4-cycles: that mode raised where the plain hub is built
    g = complete_bipartite(3, 3)
    assert validate_hub(g, build_hub(g, (), 2, 1)).passed
    with pytest.raises(InvalidArgumentError):
        oracle_build_hub(g, (), 2, 1, True)


def test_hub_validator_rejects_tampering():
    g = complete_graph(10)
    base = build_hub(g, (), 2, 2)
    assert isinstance(base, Hub)

    torn = Hub(base.center, base.first_layer, base.second_layers)
    assert validate_hub(g, torn).passed  # sanity: rebuild passes

    c = base.center
    fl = base.first_layer
    layers = dict(base.second_layers)

    # first layer vertex that is the center itself cannot be adjacent
    bad = Hub(c, (c,) + fl[1:], base.second_layers)
    assert not clause_map(validate_hub(g, bad))["first_layer_adjacent"]

    # key set must equal the first layer exactly
    bad = Hub(c, fl, tuple(list(base.second_layers)[:1]))
    assert not clause_map(validate_hub(g, bad))["second_layer_keys"]

    # unequal layer sizes
    z0, z1 = fl
    bad = Hub(c, fl, ((z0, layers[z0]), (z1, layers[z1][:1])))
    assert not clause_map(validate_hub(g, bad))["second_layer_uniform"]

    # duplicate a second-layer vertex across layers
    shared = layers[z0][0]
    bad = Hub(c, fl, ((z0, layers[z0]), (z1, (shared, layers[z1][1]))))
    assert not clause_map(validate_hub(g, bad))["second_layers_disjoint"]

    # a first-layer vertex leaking into a second layer stays inside B1
    bad = Hub(c, fl, ((z0, (z1, layers[z0][1])), (z1, layers[z1])))
    assert not clause_map(validate_hub(g, bad))["second_layers_outside_b1"]

    # non-adjacent pair: move a second-layer vertex under the wrong parent
    # on a path, where adjacency actually bites
    p = path_graph(5)  # 0-1-2-3-4
    bad = Hub(2, (1, 3), ((1, (4,)), (3, (0,))))
    report = validate_hub(p, bad)
    assert not clause_map(report)["second_layer_adjacent"]


def oracle_core_numbers(g, alive):
    """The bucket peel that computed core numbers before the level peel of
    `graph.core_levels`: one least-degree vertex at a time on the sorted
    adjacency lists."""
    live = g.check_subset(alive)
    deg = [-1] * g.n
    for v in live:
        deg[v] = len(live.intersection(g.neighbors(v)))
    bins = [[] for _ in range(max(deg, default=-1) + 1)]
    for v in live:
        bins[deg[v]].append(v)
    core = {}
    floor = d = 0
    while d < len(bins):
        if not bins[d]:
            d += 1
            continue
        v = bins[d].pop()
        if deg[v] != d:
            continue
        deg[v] = -1
        floor = max(floor, d)
        core[v] = floor
        for w in g.neighbors(v):
            if deg[w] > 0:
                deg[w] -= 1
                bins[deg[w]].append(w)
        d = max(d - 1, 0)
    return core


def oracle_greedy_hub_at(g, inside, center, h1, h2, c4_mode, work=None):
    """The list-based `_greedy_hub_at` used before the mask version, with
    the 4-cycle mode `build_hub` had then: in `c4_mode` leaves may repeat
    across branches, and two that do raise.

    Given a `work` Counter (outside `c4_mode`), it tallies under "picks"
    the mask picks of the bounded search: one per branch choice, one per
    leaf choice and one per joint neighbourhood taken after a failed
    attempt.  It counts the centre bound when that neighbourhood (the
    pool's, inside, minus the centre) has fewer than h1 * h2 vertices.  The
    bounded search stops there, so nothing more is tallied, but the list
    search runs on to show that it finds no hub.
    """
    tally = Counter() if work is None else work
    pool = [z for z in g.neighbors(center) if z in inside]
    hopeless = False

    def pick():
        if not (hopeless and not c4_mode):
            tally["picks"] += 1

    while len(pool) >= h1:
        chosen = pool[:h1]
        pick()
        b1 = {center, *chosen}
        used = set()
        layers = []
        bad = None
        for z in chosen:
            pick()
            avail = [
                s
                for s in g.neighbors(z)
                if s in inside and s not in b1 and (c4_mode or s not in used)
            ]
            if len(avail) < h2:
                bad = z
                break
            take = tuple(avail[:h2])
            if c4_mode and used & set(take):
                raise InvalidArgumentError("host violates the claimed 4-cycle freedom")
            used |= set(take)
            layers.append((z, take))
        if bad is None:
            assert not hopeless or c4_mode, "the centre bound settled a hub"
            return Hub(center, tuple(chosen), tuple(layers))
        pool.remove(bad)
        if not hopeless:
            if not c4_mode:
                pick()
            reach = {s for z in pool for s in g.neighbors(z) if s in inside}
            hopeless = len(reach - {center}) < h1 * h2
            if hopeless and not c4_mode:
                tally["centre_bound"] += 1
    return None


def oracle_build_hub(g, avoid, h1, h2, c4_mode, work=None):
    """`build_hub` rebuilt from the two oracles above.

    Given a `work` Counter (outside `c4_mode`), it tallies the centres the
    bounded search scans (each one mask pick) and the levels the level
    bound skips (fewer than 1 + h1 + h1 * h2 vertices), and shows that a
    skipped level holds no hub.
    """
    gone = frozenset(avoid)
    core = oracle_core_numbers(g, (v for v in g.vertices() if v not in gone))
    if not core:
        return BuildFailure("insufficient_degree", "nothing left outside avoid")
    for t in sorted(set(core.values()), reverse=True):
        inside = {v for v, c in core.items() if c >= t}
        hopeless = work is not None and len(inside) < 1 + h1 + h1 * h2
        skipped = hopeless and not c4_mode
        if skipped:
            work["level_bound"] += 1
        for center in sorted(inside):
            if work is not None and not skipped:
                work["centres"] += 1
                work["picks"] += 1
            found = oracle_greedy_hub_at(
                g, inside, center, h1, h2, c4_mode, None if skipped else work
            )
            if found is not None:
                assert not skipped, "the level bound skipped a hub"
                return found
    return BuildFailure(
        "insufficient_degree",
        f"no center can supply {h1} branches with {h2} private leaves each",
    )


def _hub_or_error(build, *args):
    try:
        return build(*args)
    except InvalidArgumentError as exc:
        return ("error", str(exc))


def _count_calls(monkeypatch, name, work, key):
    real = getattr(gadgets, name)

    def counted(*args):
        work[key] += 1
        return real(*args)

    monkeypatch.setattr(gadgets, name, counted)


def test_core_numbers_and_build_hub_match_the_list_oracles(monkeypatch):
    """`build_hub` returns what the list oracles return, and does exactly
    the work left after both counting bounds: as many centre scans and
    mask picks (`_members` calls) as the oracles tally."""
    done = Counter()
    _count_calls(monkeypatch, "_greedy_hub_at", done, "centres")
    _count_calls(monkeypatch, "_members", done, "picks")
    fired = Counter()

    def check(g, avoid, h1, h2):
        done.clear()
        work = Counter()
        want = oracle_build_hub(g, avoid, h1, h2, False, work)
        assert build_hub(g, avoid, h1, h2) == want
        assert done == Counter(centres=work["centres"], picks=work["picks"]), (
            g,
            avoid,
            h1,
            h2,
        )
        fired.update(work)
        return want

    rng = random.Random(8)
    hosts = []
    for trial in range(200):
        g = gnp(rng.randint(1, 60), rng.choice((0.05, 0.1, 0.2, 0.4, 0.7)), trial)
        hosts += [g, bipartite_half(g)[0]]
    for n in range(1, 41):
        hosts += [complete_graph(n), complete_bipartite(n // 2 + 1, n // 2 + 1)]
    hosts += [hypercube(d) for d in range(1, 7)] + [path_graph(n) for n in (1, 2, 5, 30, 60)]
    outcomes = set()
    for g in hosts:
        for _ in range(2):
            share = rng.random() / 2
            avoid = frozenset(v for v in g.vertices() if rng.random() < share)
            alive = [v for v in g.vertices() if v not in avoid]
            levels = core_levels(g, sum(1 << v for v in alive))
            got = {v: k for k, level in levels for v in alive if level >> v & 1}
            assert got == oracle_core_numbers(g, alive)
            h1, h2 = rng.randint(1, 4), rng.randint(1, 4)
            outcomes.add(type(check(g, avoid, h1, h2)).__name__)
    assert len(hosts) == 491
    assert outcomes == {"Hub", "BuildFailure"}

    # the shapes `_place_hubs` asks for: hub after hub on one host, each
    # avoiding all earlier ones, with h1 up to 16 and h2 up to 3
    placed = Counter()
    grown = [complete_graph(n) for n in range(2, 41, 3)]
    grown += [complete_bipartite(a, b) for a in (1, 3, 8, 17) for b in (2, 9, 20)]
    grown += [bipartite_half(g)[0] for g in grown]
    for g in grown:
        h1, h2 = rng.randint(1, 16), rng.randint(1, 3)
        avoid = set()
        while True:
            hub = check(g, avoid, h1, h2)
            if not isinstance(hub, Hub):
                placed["failure"] += 1
                break
            placed["hub"] += 1
            avoid |= hub.all_vertices()
    assert min(placed.values()) > 0 and len(placed) == 2, placed
    bounds = ("level_bound", "centre_bound")
    assert all(fired[name] > 0 for name in bounds), fired


# -- expansions ---------------------------------------------------------------


def test_grow_expansion_complete_graph():
    g = complete_graph(6)
    f = grow_expansion(g, 0, 4, ())
    assert isinstance(f, Expansion)
    assert f.anchor == 0
    assert f.radius == 1
    assert f.size == 4
    rep = validate_expansion(g, f, size=4)
    assert rep.passed
    assert clause_map(rep) == {
        "anchor_inside": True,
        "size_exact": True,
        "radius_respected": True,
    }


def test_grow_expansion_layer_order():
    # on a path the growth is forced and the radius equals size - 1
    g = path_graph(10)
    f = grow_expansion(g, 0, 4, ())
    assert f.vertices == frozenset({0, 1, 2, 3})
    assert f.radius == 3


def test_grow_expansion_argument_errors():
    g = path_graph(4)
    with pytest.raises(InvalidArgumentError):
        grow_expansion(g, 0, 0, ())
    with pytest.raises(InvalidArgumentError):
        grow_expansion(g, 0, 2, (0,))
    with pytest.raises(InvalidVertexError):
        grow_expansion(g, 9, 1, ())


def test_grow_expansion_collision():
    out = grow_expansion(path_graph(4), 0, 9, ())
    assert isinstance(out, BuildFailure)
    assert out.reason == "expansion_collision"
    # a depth cap cuts growth even when vertices exist further out
    capped = grow_expansion(path_graph(10), 0, 5, (), depth_cap=2)
    assert isinstance(capped, BuildFailure)
    assert grow_expansion(path_graph(10), 0, 3, (), depth_cap=2).radius == 2


def test_validate_expansion_rejects():
    g = path_graph(6)
    # 5 is not reachable from 0 inside {0, 5}
    rep = validate_expansion(g, Expansion(0, frozenset({0, 5}), 1))
    assert not clause_map(rep)["radius_respected"]
    rep = validate_expansion(g, Expansion(0, frozenset({1, 2}), 1))
    assert not clause_map(rep)["anchor_inside"]
    rep = validate_expansion(g, Expansion(0, frozenset({0, 1}), 1), size=3)
    assert not clause_map(rep)["size_exact"]
    # claimed radius below the true eccentricity
    rep = validate_expansion(g, Expansion(0, frozenset({0, 1, 2, 3}), 2))
    assert not clause_map(rep)["radius_respected"]


# The gadget layer once kept BFS loops of its own.  They stay here as
# oracles: `grow_expansion` and `Graph.bfs_distances` must give exactly what
# they gave.


def oracle_distances_within(g, region, source):
    if source not in region:
        return {}
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for w in g.neighbors(u):
            if w in region and w not in dist:
                dist[w] = dist[u] + 1
                queue.append(w)
    return dist


def oracle_bfs_layers(g, source, blocked, depth_cap):
    layers = [[source]]
    seen = {source}
    while len(layers) - 1 < depth_cap:
        nxt = sorted(
            {
                w
                for u in layers[-1]
                for w in g.neighbors(u)
                if w not in seen and w not in blocked
            }
        )
        if not nxt:
            break
        seen.update(nxt)
        layers.append(nxt)
    return layers


def oracle_grow(g, anchor, size, blocked, cap):
    """(vertices, radius) layer by layer, or None when too few are reachable."""
    picked, radius = [], 0
    for depth, layer in enumerate(oracle_bfs_layers(g, anchor, blocked, cap)):
        take = layer[: size - len(picked)]
        picked += take
        if take:
            radius = depth
    return (frozenset(picked), radius) if len(picked) == size else None


def test_expansion_traversals_match_the_old_private_bfs():
    rng = random.Random(7)
    compared = 0
    for trial in range(750):
        n = rng.randint(2, 22)
        g = gnp(n, rng.choice((0.1, 0.2, 0.35, 0.5)), trial)
        for host in (g, bipartite_half(g)[0]):
            anchor = rng.randrange(n)
            blocked = frozenset(
                v for v in range(n) if v != anchor and rng.random() < 0.25
            )
            cap = rng.choice((None, 0, 1, 2, 3))
            size = rng.randint(1, n)
            grown = grow_expansion(host, anchor, size, blocked, cap)
            want = oracle_grow(host, anchor, size, blocked, n if cap is None else cap)
            if want is None:
                assert isinstance(grown, BuildFailure)
            else:
                assert (grown.vertices, grown.radius) == want

            # a random region, which may leave out its own anchor
            region = frozenset(v for v in range(n) if rng.random() < 0.6)
            f = Expansion(anchor, region, rng.randint(0, 4))
            dist = oracle_distances_within(host, region, anchor)
            outside = frozenset(range(n)) - region
            assert host.bfs_distances([anchor], outside) == dist
            within = all(v in dist for v in region) and all(
                d <= f.radius for d in dist.values()
            )
            assert clause_map(validate_expansion(host, f))["radius_respected"] == (
                anchor in region and within
            )
            compared += 1
    assert compared == 1500


# -- units --------------------------------------------------------------------


def test_unit_minimal_path():
    g = path_graph(4)
    u = build_unit(g, (), 1, 1, 1, 1)
    assert isinstance(u, Unit)
    assert u.core == 0
    assert u.hubs[0].center == 1
    assert [s.vertices for s in u.spokes] == [(0, 1)]
    assert validate_unit(g, u).passed


def test_unit_complete_bipartite_accounting():
    g = complete_bipartite(30, 30)
    u = build_unit(g, (), 3, 2, 2, 4)
    assert isinstance(u, Unit)
    rep = validate_unit(g, u)
    assert rep.passed
    assert len(u.exterior()) == 3 * 2 * 2
    assert u.interior() | u.exterior() == u.all_vertices()
    assert not (u.interior() & u.exterior())
    # interior never exceeds its counting bound
    assert len(u.interior()) <= 3 * (u.spoke_cap + 1 + 2) + 1 + 3 * 2
    # hubs pairwise disjoint and away from the core
    seen = {u.core}
    for hub in u.hubs:
        assert not (hub.all_vertices() & seen)
        seen |= hub.all_vertices()


def test_unit_two_hubs_on_spider_tree():
    # trees can host several hubs when each branch is long enough: a
    # center with three legs of length 3 yields a (2,1,1,1)-unit
    g = Graph(
        10,
        [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)],
    )
    u = build_unit(g, (), 2, 1, 1, 1)
    assert isinstance(u, Unit)
    assert validate_unit(g, u).passed


def test_unit_counting_infeasible_on_short_paths():
    # a (2,2)-hub occupies 1 + 2 + 4 = 7 vertices; two disjoint hubs
    # cannot fit into 8 or fewer
    for n in (4, 6, 8):
        out = build_unit(path_graph(n), (), 2, 2, 2, 2)
        assert isinstance(out, BuildFailure)
        assert out.reason == "hub_pool_exhausted"


def test_unit_avoid_respected():
    g = complete_bipartite(30, 30)
    avoid = set(range(10))
    u = build_unit(g, avoid, 2, 2, 2, 3)
    assert isinstance(u, Unit)
    assert not (u.all_vertices() & avoid)
    assert validate_unit(g, u).passed


def test_unit_failure_names_the_last_core_tried():
    # the lean pass's last bare core gets its spokes but not clean hubs;
    # the failure reports that core, not an earlier core's stall
    out = build_unit(gnp(11, 0.4, 901454), [6, 9], 1, 2, 1, 3)
    assert isinstance(out, BuildFailure)
    assert out.reason == "connection_stalled"
    assert out.detail == "spokes consumed too much of a satellite hub"
    assert [s.vertices for s in out.partial] == [(10, 7, 4, 1)]


def oracle_lean_pass(g, avoid, h0, h1, h2, h3, failure):
    """`build_unit`'s lean pass as it ran before the counting bound: every
    bare core is tried, and a core with fewer than h0 satellites is passed
    over without touching `failure`."""
    avoid_mask = sum(1 << v for v in avoid)
    for w in [v for v in g.vertices() if v not in avoid][:40]:
        satellites, _ = gadgets._place_hubs(g, avoid_mask | 1 << w, h0 + 1, h1, h2)
        if len(satellites) < h0:
            continue
        result = gadgets._attach(
            g, w, frozenset({w}), satellites, satellites, avoid, h0, h1, h2, h3
        )
        if isinstance(result, Unit):
            return result
        failure = result
    return failure


def test_lean_pass_bound_matches_the_full_loop():
    """Where the count settles the lean pass, the loop it skips returns
    the failure it was given, on avoid sets that grow unit by unit as in
    `find_balanced_subdivision`."""
    rng = random.Random(17)
    hosts = [complete_graph(n) for n in (9, 14, 20, 27)]
    # lopsided sides are where the colour-class count settles the pass
    sides = ((4, 9), (8, 8), (12, 20), (2, 20), (3, 30), (5, 24), (7, 40))
    hosts += [complete_bipartite(a, b) for a, b in sides]
    hosts += [hypercube(4), hypercube(5)]
    for trial in range(24):
        g = gnp(rng.randint(8, 40), rng.choice((0.2, 0.4, 0.7)), trial)
        hosts += [g, bipartite_half(g)[0]]
    fired = Counter()
    for g in hosts:
        for shape in ((2, 1, 1, 2), (3, 1, 1, 2), (2, 2, 1, 3), (4, 1, 2, 2)):
            h0, h1, h2, h3 = shape
            avoid = frozenset()
            for _ in range(6):
                if gadgets._lean_pass_hopeless(g, avoid, h0, h1, h2):
                    given = BuildFailure("hub_pool_exhausted", "sentinel")
                    kept = oracle_lean_pass(g, avoid, h0, h1, h2, h3, given)
                    assert kept is given, (g, avoid, shape)
                    free = g.n - len(avoid)
                    fired["sides" if (free - 1) // (1 + h1 + h1 * h2) >= h0 else "count"] += 1
                else:
                    fired["open"] += 1
                unit = build_unit(g, avoid, *shape)
                if not isinstance(unit, Unit):
                    break
                avoid |= unit.interior()
    assert min(fired.values()) > 0 and len(fired) == 3, fired


def oracle_build_unit(g, avoid, h0, h1, h2, h3):
    """`build_unit` as it ran before margins were skipped by a count: every
    margin places its hubs, by lists of ids, and the lean pass tries every
    bare core."""
    avoid = frozenset(avoid)

    def place(taken, count, h1, h2):
        hubs = []
        while len(hubs) < count:
            cand = build_hub(g, taken, h1, h2)
            if isinstance(cand, BuildFailure):
                break
            hubs.append(cand)
            taken |= cand.all_vertices()
        return hubs

    failure = BuildFailure("hub_pool_exhausted", "no candidate hubs fit")
    for margin in (2.0, 1.5, 1.0):
        mh0, mh1, mh2 = (math.ceil(margin * h) for h in (h0, h1, h2))
        taken = set(avoid)
        cores = place(taken, 2, mh0, mh2)
        if not cores:
            continue
        satellites = place(taken, h0 + 1, mh1, mh2)
        if len(satellites) < h0:
            failure = BuildFailure(
                failure.reason,
                f"margin {margin}: only {len(satellites)} satellite hubs of"
                f" the {h0} required",
                failure.partial,
            )
            continue
        for core_hub in cores:
            result = gadgets._attach(
                g, core_hub.center, core_hub.b1(), cores + satellites,
                satellites, avoid, h0, h1, h2, h3,
            )
            if isinstance(result, Unit):
                return result
            failure = result
    return oracle_lean_pass(g, avoid, h0, h1, h2, h3, failure)


def _skipped_by_count(g, avoid, shape, margin):
    """Whether `build_unit`'s count rules out `margin` for this shape."""
    h0, h1, h2 = shape[:3]
    mh0, mh1, mh2 = (math.ceil(margin * h) for h in (h0, h1, h2))
    free = g.n - len(avoid)
    return (free - (1 + mh0 + mh0 * mh2)) // (1 + mh1 + mh1 * mh2) < h0


def _assert_same_unit_result(g, avoid, shape, fired):
    want = oracle_build_unit(g, avoid, *shape)
    got = build_unit(g, avoid, *shape)
    if isinstance(want, Unit):
        assert got == want, (g, avoid, shape)
        fired["unit"] += 1
        return got
    assert isinstance(got, BuildFailure), (g, avoid, shape)
    assert (got.reason, got.detail, got.partial) == (
        want.reason, want.detail, want.partial,
    ), (g, avoid, shape)
    margin = got.detail.partition(":")[0].removeprefix("margin ")
    if margin in ("2.0", "1.5", "1.0"):
        skipped = _skipped_by_count(g, avoid, shape, float(margin))
        fired["replayed shortfall" if skipped else "shortfall"] += 1
    else:
        fired["other failure"] += 1
    return got


def test_build_unit_matches_the_margin_loop_oracle():
    """Skipping the margins a vertex count rules out changes no unit and
    no failure, on G(n, p) hosts and their bipartite halves with random
    avoid sets and shapes; a skipped margin's shortfall is replayed where
    it is the failure returned."""
    rng = random.Random(26)
    fired = Counter()
    for trial in range(150):
        g = gnp(rng.randint(4, 50), rng.choice((0.1, 0.2, 0.4, 0.7, 0.95)), trial)
        # on complete bipartite hosts a margin that places a core may skip
        # between two that the count rules out
        sides = rng.randint(2, 30), rng.randint(2, 30)
        for host in (g, bipartite_half(g)[0], complete_bipartite(*sides)):
            share = rng.random() * 0.6
            avoid = {v for v in host.vertices() if rng.random() < share}
            shape = (
                rng.randint(1, 6), rng.randint(1, 3),
                rng.randint(1, 2), rng.randint(1, 4),
            )
            _assert_same_unit_result(host, avoid, shape, fired)
    assert set(fired) == {
        "unit", "shortfall", "replayed shortfall", "other failure"
    }, fired


@pytest.mark.parametrize("n", (80, 120))
def test_unit_route_units_match_the_margin_loop_oracle(monkeypatch, n):
    """Every unit the unit route builds on K_n, and the failure that ends
    it: on K120 that is a shortfall of a margin the count skipped."""
    calls = []
    real = assemble.build_unit

    def recorded(g, avoid, *shape):
        calls.append((g, frozenset(avoid), shape))
        return real(g, avoid, *shape)

    monkeypatch.setattr(assemble, "build_unit", recorded)
    top_level(complete_graph(n), RunConfig(seed=1, overrides=Overrides(ell=4)))
    fired = Counter()
    for g, avoid, shape in calls:
        _assert_same_unit_result(g, avoid, shape, fired)
    assert fired["unit"] == len(calls) - 1
    if n == 120:
        assert fired["replayed shortfall"] == 1


def test_build_hub_takes_a_vertex_mask():
    rng = random.Random(3)
    for trial in range(60):
        g = gnp(rng.randint(1, 40), rng.choice((0.1, 0.3, 0.6)), trial)
        for host in (g, bipartite_half(g)[0]):
            avoid = [v for v in host.vertices() if rng.random() < 0.3]
            h1, h2 = rng.randint(1, 4), rng.randint(1, 3)
            mask = sum(1 << v for v in avoid)
            assert build_hub(host, mask, h1, h2) == build_hub(host, avoid, h1, h2)
    g = complete_graph(6)
    assert build_hub(g, 0b111111, 1, 1) == build_hub(g, range(6), 1, 1)
    for mask in (-1, 1 << 6, 0b1000001):
        with pytest.raises(InvalidVertexError):
            build_hub(g, mask, 1, 1)


# `build_hub` calls per `unit_route` host at seed 1; before margins were
# skipped by a count and hubs placed on one mask: 80: 84, 100: 90,
# 120: 292, 140: 144, 160: 167.
_PINNED_HUB_BUILDS = {80: 65, 100: 66, 120: 260, 140: 110, 160: 139}


@pytest.mark.parametrize("n", sorted(_PINNED_HUB_BUILDS))
def test_unit_route_hub_builds_are_pinned(monkeypatch, n):
    builds = Counter()
    _count_calls(monkeypatch, "build_hub", builds, "hubs")
    out = top_level(complete_graph(n), RunConfig(seed=1, overrides=Overrides(ell=4)))
    assert out.kind == "certificate"
    assert builds["hubs"] == _PINNED_HUB_BUILDS[n]


def test_unit_bad_parameters():
    g = complete_graph(8)
    for h in ((0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 0, 1), (1, 1, 1, 0)):
        with pytest.raises(InvalidArgumentError):
            build_unit(g, (), *h)


def test_unit_validator_rejects_tampering():
    g = complete_bipartite(30, 30)
    u = build_unit(g, (), 2, 2, 2, 3)
    assert isinstance(u, Unit)

    # spoke longer than the recorded cap
    squeezed = Unit(u.core, u.hubs, u.spokes, 0)
    assert not clause_map(validate_unit(g, squeezed))["spokes_valid"]

    # duplicated hub record
    doubled = Unit(u.core, (u.hubs[0], u.hubs[0]), u.spokes, u.spoke_cap)
    cm = clause_map(validate_unit(g, doubled))
    assert not cm["hubs_disjoint"]

    # spoke ending away from its hub center
    h0, h1 = u.hubs
    wrong = Unit(
        u.core, (h0, h1), (u.spokes[1], u.spokes[0]), u.spoke_cap
    )
    assert not clause_map(validate_unit(g, wrong))["spokes_valid"]

    # exterior shrinks when layers are shared between hubs
    # h1's first branch takes the second layer under h0's first branch z0
    z0 = h0.first_layer[0]
    stolen = Hub(
        h1.center,
        h1.first_layer,
        ((h1.first_layer[0], dict(h0.second_layers)[z0]), h1.second_layers[1]),
    )
    merged = Unit(u.core, (h0, stolen), u.spokes, u.spoke_cap)
    cm = clause_map(validate_unit(g, merged))
    assert not cm["hubs_disjoint"]
    assert not cm["exterior_count"]


def test_unit_long_spoke_breaks_interior_bound():
    # claiming a small cap both invalidates the spoke and shrinks the
    # interior budget below the true interior size
    g = path_graph(12)
    hub = Hub(9, (10,), ((10, (11,)),))
    assert validate_hub(g, hub).passed
    spoke = PathWitness(tuple(range(10)))  # 0..9, length 9
    honest = Unit(0, (hub,), (spoke,), 9)
    assert validate_unit(g, honest).passed
    lying = Unit(0, (hub,), (spoke,), 2)
    cm = clause_map(validate_unit(g, lying))
    assert not cm["spokes_valid"]
    assert not cm["interior_bound"]


# -- adjusters ----------------------------------------------------------------


def test_adjuster_hexagon():
    g = cycle_graph(6)
    a = build_simple_adjuster(g, (), 1, 1)
    assert isinstance(a, Adjuster)
    assert (a.core1, a.core2) == (0, 2)
    assert a.base_length == 2 and a.steps == 1 and a.m == 1
    assert a.center == frozenset({1, 3, 4, 5})
    assert set(a.menu()) == {2, 4}
    # claimed menu matches independent exhaustive path enumeration
    assert adjuster_length_menu(g, a) == frozenset({2, 4})
    assert validate_adjuster(g, a).passed


def test_adjuster_menu_names_undecided_lengths(monkeypatch):
    g = cycle_graph(6)
    a = build_simple_adjuster(g, (), 1, 1)
    monkeypatch.setattr(router, "_SEARCH_BUDGET", 0)
    clause = validate_adjuster(g, a).clause("a4_menu")
    assert not clause.passed
    assert clause.witness == "undecided lengths (search budget exhausted): [2, 4]"


def test_adjuster_girth_six_host():
    g = incidence_plane(2)  # girth 6, 3-regular
    a = build_simple_adjuster(g, (), 3, 2)
    assert isinstance(a, Adjuster)
    assert a.base_length == 2 and a.steps == 1
    assert len(a.center) == 4
    assert a.end1.size == a.end2.size == 3
    assert adjuster_length_menu(g, a) == frozenset(a.menu())
    assert validate_adjuster(g, a).passed
    # ends of size 4 within radius 2 collide here; radius 3 gives room
    assert isinstance(build_simple_adjuster(g, (), 4, 2), BuildFailure)
    wide = build_simple_adjuster(g, (), 4, 3)
    assert isinstance(wide, Adjuster)
    assert validate_adjuster(g, wide).passed


def test_adjuster_c4_mode_guard():
    g = incidence_plane(2)
    with pytest.raises(InvalidArgumentError):
        build_simple_adjuster(g, (), 2, 1, c4_mode=True)
    a = build_simple_adjuster(g, (), 3, 2, c4_mode=True)
    assert isinstance(a, Adjuster)
    assert validate_adjuster(g, a).passed


def test_adjuster_failure_reasons():
    assert build_simple_adjuster(path_graph(8), (), 1, 1).reason == "acyclic"
    # avoid everything: nothing is left to host a cycle
    g = cycle_graph(6)
    assert build_simple_adjuster(g, range(6), 1, 1).reason == "acyclic"
    # C20's only cycle has 18 interior vertices, too long for m = 1
    assert build_simple_adjuster(cycle_graph(20), (), 1, 1).reason == "cycle_too_long"
    # on a bare cycle the cores have no off-cycle room to expand into
    out = build_simple_adjuster(cycle_graph(20), (), 2, 2)
    assert out.reason == "expansion_collision"
    with pytest.raises(InvalidArgumentError):
        build_simple_adjuster(g, (), 0, 1)
    with pytest.raises(InvalidArgumentError):
        build_simple_adjuster(g, (), 1, 0)


def test_adjuster_long_cycle_menu():
    c20 = cycle_graph(20)
    a = build_simple_adjuster(c20, (), 1, 2)
    assert isinstance(a, Adjuster)
    assert a.base_length == 9 and a.steps == 1
    assert len(a.center) == 18
    assert adjuster_length_menu(c20, a) == frozenset({9, 11})
    assert validate_adjuster(c20, a).passed


def test_chain_of_four_adjuster_record(chain_of_four):
    # four hexagons in a row: every step count from 0 to 4 is one more
    # detour around a hexagon, so the menu runs 11, 13, ..., 19
    g, adj = chain_of_four
    assert adj.menu() == (11, 13, 15, 17, 19)
    assert adjuster_length_menu(g, adj) == frozenset(adj.menu())
    report = validate_adjuster(g, adj)
    assert report.passed
    assert report.clause("a4_menu").passed


def test_adjuster_menu_parity_on_bipartite_hosts(chain_of_four):
    cases = [
        (cycle_graph(6), build_simple_adjuster(cycle_graph(6), (), 1, 1)),
        (incidence_plane(2), build_simple_adjuster(incidence_plane(2), (), 3, 2)),
    ]
    cases.append(chain_of_four)
    for g, adj in cases:
        assert isinstance(adj, Adjuster)
        lengths = adjuster_length_menu(g, adj)
        assert lengths
        parities = {length % 2 for length in lengths}
        assert len(parities) == 1  # bipartite hosts admit one parity only
        assert min(lengths) % 2 == adj.base_length % 2


def test_adjuster_menu_of_degenerate_record():
    # steps = 0 means a one-item menu: exactly the base length
    g = path_graph(4)
    adj = Adjuster(
        0, 3, Expansion(0, frozenset({0}), 0), Expansion(3, frozenset({3}), 0),
        frozenset({1, 2}), 3, 0, 1,
    )
    assert adj.menu() == (3,)
    assert adjuster_length_menu(g, adj) == frozenset({3})


def test_validate_adjuster_reports_equal_cores():
    # a record whose cores coincide fails its clauses rather than raising
    g = cycle_graph(6)
    a = build_simple_adjuster(g, (), 1, 1)
    assert isinstance(a, Adjuster)
    bad = Adjuster(
        a.core1, a.core1, a.end1, a.end2, a.center, a.base_length, a.steps, a.m
    )
    report = validate_adjuster(g, bad)
    cm = clause_map(report)
    assert not cm["a1_disjoint"]
    assert not cm["a4_menu"]
    assert report.clause("a4_menu").witness == "unrealizable lengths: [2, 4]"


def test_validate_adjuster_rejects_tampering():
    g = cycle_graph(6)
    a = build_simple_adjuster(g, (), 1, 1)
    assert isinstance(a, Adjuster)

    # end expansion overlapping the center
    bad = Adjuster(
        a.core1, a.core2, Expansion(0, frozenset({0, 1}), 1), a.end2,
        a.center, a.base_length, a.steps, a.m,
    )
    assert not clause_map(validate_adjuster(g, bad))["a1_disjoint"]

    # anchors must be the cores
    bad = Adjuster(
        5, a.core2, a.end1, a.end2, frozenset({1, 3, 4}), a.base_length,
        a.steps, a.m,
    )
    assert not clause_map(validate_adjuster(g, bad))["a1_disjoint"]

    # end radius above the claimed locality parameter m
    bad = Adjuster(
        a.core1, a.core2, a.end1, Expansion(2, frozenset({2}), 2), a.center,
        a.base_length, a.steps, 1,
    )
    assert not clause_map(validate_adjuster(g, bad))["a2_expansions"]

    # steps = 0 allows no center vertices at all
    bad = Adjuster(
        a.core1, a.core2, a.end1, a.end2, a.center, a.base_length, 0, a.m
    )
    assert not clause_map(validate_adjuster(g, bad))["a3_center_small"]

    # odd lengths are unrealizable between two even-side vertices
    bad = Adjuster(
        a.core1, a.core2, a.end1, a.end2, a.center, 3, a.steps, a.m
    )
    assert not clause_map(validate_adjuster(g, bad))["a4_menu"]

    # negative steps are rejected outright
    bad = Adjuster(
        a.core1, a.core2, a.end1, a.end2, a.center, a.base_length, -1, a.m
    )
    assert not clause_map(validate_adjuster(g, bad))["a4_menu"]


def test_validate_adjuster_defers_large_menus():
    g = path_graph(40)
    adj = Adjuster(
        0, 31,
        Expansion(0, frozenset({0}), 0),
        Expansion(31, frozenset({31}), 0),
        frozenset(range(1, 31)),
        31, 1, 3,
    )
    rep = validate_adjuster(g, adj)
    names = [c.name for c in rep.clauses]
    assert "a4_menu_deferred" in names
    assert "a4_menu" not in names
    assert rep.passed  # deferral is not a failure


def test_shortest_cycle_matches_edge_removal_oracle():
    def oracle_girth(g):
        best = None
        for u, v in g.edges():
            h = Graph(g.n, [e for e in g.edges() if e != (u, v)])
            dist = h.bfs_distances([u])
            if v in dist:
                cand = dist[v] + 1
                if best is None or cand < best:
                    best = cand
        return best

    rng = random.Random(20240817)
    hosts = []
    for _ in range(40):
        n = rng.randrange(8, 15)
        hosts.append(gnp(n, rng.choice([0.2, 0.3, 0.45]), rng.randrange(10**6)))
    # bipartite hosts, whose girth floor is 4
    hosts += [complete_bipartite(2, 3), complete_bipartite(4, 6), hypercube(3), hypercube(4)]
    for _ in range(20):
        n = rng.randrange(8, 15)
        g = gnp(n, rng.choice([0.3, 0.45, 0.6]), rng.randrange(10**6))
        hosts.append(bipartite_half(g)[0])
    checked = 0
    for g in hosts:
        cycle = _shortest_cycle(g)
        want = oracle_girth(g)
        if want is None:
            assert cycle is None
            continue
        assert cycle is not None
        assert len(cycle) == want
        # and it really is a cycle of the graph
        assert len(set(cycle)) == len(cycle)
        closed = cycle + [cycle[0]]
        assert all(g.has_edge(x, y) for x, y in zip(closed, closed[1:]))
        checked += 1
    assert checked >= 40


def oracle_shortest_cycle(g, work):
    """`_shortest_cycle` with its earlier cut, one level looser: a root's
    BFS ran on through the vertices at distance best // 2.  Tallies in
    `work` the vertices the tighter cut no longer expands."""
    floor = 3 if g.two_coloring() is None else 4
    best = best_paths = None
    for root in g.vertices():
        if best is not None and best[0] == floor:
            break
        dist = {root: 0}
        parent = {root: None}
        queue = deque([root])
        while queue:
            u = queue.popleft()
            if best is not None and dist[u] >= best[0] // 2 + 1:
                break
            if best is not None and 2 * dist[u] >= best[0]:
                work["skipped"] += 1
            for w in g.neighbors(u):
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w and parent[w] != u:
                    key = (dist[u] + dist[w] + 1, root, min(u, w), max(u, w))
                    if best is None or key < best:
                        pu = gadgets._chain(parent, u)
                        pw = gadgets._chain(parent, w)
                        if len(set(pu) | set(pw)) == len(pu) + len(pw) - 1:
                            best = key
                            best_paths = (pu, pw)
    if best is None:
        return None
    pu, pw = best_paths
    return gadgets._canonical_cycle(list(reversed(pu)) + pw[:-1])


def test_shortest_cycle_matches_the_looser_cut():
    rng = random.Random(18)
    work = Counter()
    seen = Counter()
    for trial in range(1200):
        g = gnp(rng.randint(3, 40), rng.choice((0.05, 0.08, 0.15, 0.3, 0.6)), trial)
        if trial % 2:
            g = bipartite_half(g)[0]
        want = oracle_shortest_cycle(g, work)
        assert _shortest_cycle(g) == want, g
        seen[(trial % 2, None if want is None else len(want))] += 1
    assert work["skipped"] > 0
    # forests, and girths at and above both floors, odd ones included
    want = {(0, None), (0, 3), (0, 4), (0, 5), (1, None), (1, 4), (1, 6)}
    assert want <= set(seen), seen


def test_shortest_cycle_is_the_least_candidate_on_bipartite_hosts():
    # several 4-cycles exist; the least (length, root, closing edge) wins
    assert _shortest_cycle(hypercube(4)) == [0, 1, 3, 2]
    assert _shortest_cycle(complete_bipartite(3, 5)) == [0, 3, 1, 4]
    assert _shortest_cycle(bipartite_half(gnp(14, 0.3, 2))[0]) == [0, 3, 13, 12]
