"""Core graph container and degree/partition helpers."""

import random
from collections import Counter, deque
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from balsub.graph import (
    Graph,
    average_degree,
    bipartite_half,
    core_levels,
    degree_stats,
    external_neighborhood,
    min_degree_peel,
)
from balsub.generators import bipartite_gnp, complete_graph, cycle_graph, gnp, path_graph
from balsub.outcomes import (
    EmptyGraphError,
    InvalidArgumentError,
    InvalidVertexError,
)


def test_adjacency_is_sorted_and_deduplicated():
    g = Graph(4, [(2, 1), (1, 2), (0, 3), (3, 1)])
    assert g.neighbors(1) == (2, 3)
    assert g.edge_count() == 3
    assert g.edges() == ((0, 3), (1, 2), (1, 3))


def test_self_loops_rejected():
    with pytest.raises(InvalidArgumentError):
        Graph(3, [(1, 1)])


def test_vertex_ids_validated():
    with pytest.raises(InvalidVertexError):
        Graph(3, [(0, 3)])
    g = Graph(3, [(0, 1)])
    with pytest.raises(InvalidVertexError):
        g.check_vertex(-1)
    with pytest.raises(InvalidVertexError):
        g.check_subset([0, 5])


def test_check_subset_names_the_first_bad_vertex_in_set_order():
    g = Graph(10)
    rng = random.Random(3)
    for _ in range(300):
        vs = [rng.randint(-12, 22) for _ in range(rng.randint(0, 8))]
        # the reference: check_vertex over the frozenset, in its own order
        bad = [v for v in frozenset(vs) if not 0 <= v < 10]
        if not bad:
            assert g.check_subset(vs) == frozenset(vs)
            continue
        with pytest.raises(InvalidVertexError) as exc:
            g.check_subset(vs)
        assert str(exc.value) == f"vertex {bad[0]} outside 0..9"


def test_has_edge_symmetric():
    g = Graph(3, [(0, 2)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert not g.has_edge(0, 1)
    # -1 must not wrap around to vertex 2, whose neighbour is 0
    assert not g.has_edge(-1, 0) and not g.has_edge(0, -1) and not g.has_edge(3, 0)


class EdgeSetGraph:
    """Test-local oracle: a graph kept as a set of (u, v) pairs, u < v."""

    def __init__(self, n, edges):
        self.n = n
        self.edges = frozenset((min(u, v), max(u, v)) for u, v in edges)

    def has_edge(self, u, v):
        return (min(u, v), max(u, v)) in self.edges

    def induced(self, keep):
        ids = sorted(set(keep))
        back = {old: new for new, old in enumerate(ids)}
        return EdgeSetGraph(
            len(ids),
            [(back[u], back[v]) for u, v in self.edges if u in back and v in back],
        )


def _random_edge_list(rng, n):
    """Edges with repeats, in both orientations, in random order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.4]
    listed = []
    for u, v in pairs:
        for _ in range(rng.randint(1, 3)):
            listed.append((u, v) if rng.random() < 0.5 else (v, u))
    rng.shuffle(listed)
    return listed


@given(st.integers(0, 12), st.integers(0, 10**6))
def test_graph_matches_an_edge_set_oracle(n, seed):
    rng = random.Random(seed)
    listed = _random_edge_list(rng, n)
    g, oracle = Graph(n, listed), EdgeSetGraph(n, listed)
    assert g.edges() == tuple(sorted(oracle.edges))
    assert g.edge_count() == len(oracle.edges)
    ids = [-1, *range(n), n]
    for u in ids:
        for v in ids:
            assert g.has_edge(u, v) == oracle.has_edge(u, v), (u, v)
    for _ in range(5):
        keep = [v for v in range(n) if rng.random() < 0.6]
        sub, table = g.induced(keep)
        expect = oracle.induced(keep)
        assert table == tuple(sorted(keep))
        assert (sub.n, sub.edges()) == (expect.n, tuple(sorted(expect.edges)))
    # equality and hashing see the edges, not the order they were listed in
    same = Graph(n, [(v, u) for u, v in reversed(listed)])
    assert same == g and hash(same) == hash(g)
    assert Graph(n + 1, listed) != g
    if listed:
        fewer = [e for e in listed if sorted(e) != sorted(listed[0])]
        assert Graph(n, fewer) != g


def test_components_partition_vertices():
    g = Graph(6, [(0, 1), (1, 2), (4, 5)])
    comps = g.components()
    assert sorted(sorted(c) for c in comps) == [[0, 1, 2], [3], [4, 5]]


def test_two_coloring_even_cycle():
    c = cycle_graph(6).two_coloring()
    assert c is not None
    assert all(c[i] != c[(i + 1) % 6] for i in range(6))


def test_two_coloring_odd_cycle_fails():
    assert cycle_graph(5).two_coloring() is None


def oracle_two_coloring(g):
    """The deque BFS `Graph.two_coloring` ran before the level masks: one
    visit per edge, stopping at the first edge inside a colour class."""
    color = [-1] * g.n
    for s in range(g.n):
        if color[s] != -1:
            continue
        color[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    return tuple(color)


def _mixed_hosts(rng, count):
    """Random hosts of the shapes the graph kernels meet: empty and
    edgeless, sparse and disconnected, dense, bipartite by construction,
    bipartite halves, and unions of cycles, some of them odd, relabelled
    so that a cycle's least vertex lies anywhere on it."""
    hosts = [Graph(0), Graph(1), Graph(5)]
    while len(hosts) < count:
        n = rng.randint(1, 40)
        seed = rng.randrange(10**6)
        kind = rng.randrange(4)
        if kind == 0:
            hosts.append(gnp(n, rng.choice((0.03, 0.08, 0.2, 0.5, 0.9)), seed))
        elif kind == 1:
            p = rng.choice((0.05, 0.2, 0.6))
            hosts.append(bipartite_gnp(n // 2 + 1, n - n // 2, p, seed)[0])
        elif kind == 2:
            hosts.append(bipartite_half(gnp(n, rng.choice((0.1, 0.4, 0.8)), seed))[0])
        else:
            sizes = [rng.randint(3, 9) for _ in range(rng.randint(1, 4))]
            label = list(range(sum(sizes)))
            rng.shuffle(label)
            edges, base = [], 0
            for size in sizes:
                edges += [
                    (label[base + i], label[base + (i + 1) % size]) for i in range(size)
                ]
                base += size
            hosts.append(Graph(len(label), edges))
    return hosts


def test_two_coloring_matches_the_bfs_oracle():
    seen = Counter()
    for g in _mixed_hosts(random.Random(14), 1200):
        want = oracle_two_coloring(g)
        assert g.two_coloring() == want, g
        seen["odd" if want is None else "bipartite"] += 1
        seen["disconnected"] += len(g.components()) > 1
    assert min(seen.values()) >= 100, seen


def test_bfs_distances_with_blocked_set():
    g = path_graph(5)
    dist = g.bfs_distances([0])
    assert dist == {0: 0, 1: 1, 2: 2, 3: 3, 4: 4}
    dist = g.bfs_distances([0], blocked=frozenset({2}))
    assert dist == {0: 0, 1: 1}


def test_induced_relabels_and_keeps_id_table():
    g = cycle_graph(5)
    sub, ids = g.induced([1, 2, 4])
    assert sub.n == 3
    assert ids == (1, 2, 4)
    # only the 1-2 edge survives
    assert sub.edge_count() == 1
    assert sub.has_edge(0, 1)


def test_induced_on_every_vertex_is_the_graph_itself():
    g = cycle_graph(5)
    sub, ids = g.induced([4, 3, 2, 1, 0, 0])
    assert sub is g and ids == (0, 1, 2, 3, 4)
    assert g.delete([]) == (g, ids)
    with pytest.raises(InvalidVertexError):
        g.induced([0, 1, 2, 3, 4, 5])


def test_delete_complements_induced():
    g = cycle_graph(5)
    left, ids = g.delete([0])
    assert left.n == 4 and set(ids) == {1, 2, 3, 4}
    assert left.edge_count() == 3


def test_average_degree_exact_fraction():
    g = Graph(3, [(0, 1)])
    assert average_degree(g) == Fraction(2, 3)
    with pytest.raises(EmptyGraphError):
        average_degree(Graph(0, []))


def test_degree_stats_on_k4():
    s = degree_stats(complete_graph(4))
    assert s.average == 3 and s.minimum == 3 and s.maximum == 3


def test_external_neighborhood_excludes_the_set():
    g = cycle_graph(6)
    assert external_neighborhood(g, [0, 1]) == frozenset({2, 5})
    assert external_neighborhood(g, range(6)) == frozenset()


def test_min_degree_peel_keeps_core():
    # K4 with a pendant: peeling at 3 drops the pendant
    g = Graph(5, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4)])
    core, ids = min_degree_peel(g, 3)
    assert core.n == 4
    assert set(ids) == {0, 1, 2, 3}
    assert min(core.degree(v) for v in core.vertices()) >= 3


def test_min_degree_peel_can_empty():
    core, ids = min_degree_peel(path_graph(4), 2)
    assert core.n == 0 and ids == ()


def test_bipartite_half_keeps_half_the_edges():
    g = complete_graph(5)
    half, sides = bipartite_half(g)
    assert half.n == g.n
    assert 2 * half.edge_count() >= g.edge_count()
    part0, part1 = sides
    assert part0 | part1 == frozenset(range(5))
    assert not part0 & part1
    for u, v in half.edges():
        assert (u in part0) != (v in part0)


@given(st.integers(2, 16), st.integers(0, 10**6))
def test_bipartite_half_property(n, seed):
    g = gnp(n, 0.4, seed)
    half, (part0, part1) = bipartite_half(g)
    assert not part0 & part1
    assert part0 | part1 == frozenset(g.vertices())
    assert 2 * half.edge_count() >= g.edge_count()
    for u, v in half.edges():
        assert (u in part0) != (v in part0)
    # crossing subgraph: every half-edge is also a host edge
    for u, v in half.edges():
        assert g.has_edge(u, v)


def oracle_bipartite_half(g):
    """The edge-tuple `bipartite_half` used before the side masks."""
    side = [v % 2 for v in g.vertices()]
    changed = True
    while changed:
        changed = False
        for v in g.vertices():
            same = sum(1 for w in g.neighbors(v) if side[w] == side[v])
            if same > g.degree(v) - same:
                side[v] = 1 - side[v]
                changed = True
    crossing = [(u, v) for u, v in g.edges() if side[u] != side[v]]
    part0 = frozenset(v for v in g.vertices() if side[v] == 0)
    part1 = frozenset(v for v in g.vertices() if side[v] == 1)
    return Graph(g.n, crossing), (part0, part1)


def test_bipartite_half_matches_the_edge_tuple_oracle():
    flipped = 0
    for g in _mixed_hosts(random.Random(15), 1000):
        half, sides = bipartite_half(g)
        want, want_sides = oracle_bipartite_half(g)
        assert (half, sides) == (want, want_sides), g
        # the bitsets handed over are the ones the half would build itself
        assert half.neighbor_masks() == want.neighbor_masks()
        flipped += sides[0] != frozenset(range(0, g.n, 2))
    assert flipped >= 100


def _brute_core(g, alive, t):
    """The t-core of G[alive] by deleting low-degree vertices one at a
    time until none is left."""
    keep = set(alive)
    while True:
        low = [v for v in keep if sum(w in keep for w in g.neighbors(v)) < t]
        if not low:
            return keep
        keep.remove(low[0])


@given(st.integers(1, 12), st.integers(0, 10**6), st.integers(0, 4))
def test_min_degree_peel_property(n, seed, t):
    g = gnp(n, 0.5, seed)
    core, ids = min_degree_peel(g, t)
    assert all(core.degree(v) >= t for v in core.vertices())
    # the kept vertices induce exactly the core
    sub, _ = g.induced(ids)
    assert sub.edges() == core.edges()
    # and the core is maximal: no other schedule keeps more
    assert set(ids) == _brute_core(g, g.vertices(), t)


def _core_table(levels, n):
    """The {vertex: core number} table of `core_levels`' level masks."""
    return {v: k for k, level in levels for v in range(n) if level >> v & 1}


@given(st.integers(1, 14), st.integers(0, 10**6), st.integers(0, 2**14 - 1))
def test_core_numbers_match_brute_peel_on_subsets(n, seed, pick):
    g = gnp(n, 0.5, seed)
    alive = [v for v in g.vertices() if pick >> v & 1]
    levels = core_levels(g, sum(1 << v for v in alive))
    # increasing core numbers, nonempty and disjoint levels
    assert [k for k, _ in levels] == sorted({k for k, _ in levels})
    assert all(level for _, level in levels)
    assert sum(level.bit_count() for _, level in levels) == len(alive)
    core = _core_table(levels, n)
    assert set(core) == set(alive)
    for t in range(n + 1):
        assert {v for v, c in core.items() if c >= t} == _brute_core(g, alive, t)


def test_core_numbers_checks_the_subset():
    with pytest.raises(InvalidVertexError):
        core_levels(path_graph(3), 0b1001)
    with pytest.raises(InvalidVertexError):
        core_levels(path_graph(3), -1)
    assert core_levels(path_graph(3), 0) == []
    assert core_levels(path_graph(3), 0b111) == [(1, 0b111)]
