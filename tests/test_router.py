"""Exact-length path realization."""

import random

import pytest

from balsub.connect import PathWitness, check_path
from balsub.gadgets import Adjuster, build_simple_adjuster, validate_adjuster
from balsub.generators import (
    bipartite_gnp,
    complete_graph,
    cycle_graph,
    gnp,
    hypercube,
    incidence_plane,
    path_graph,
)
from balsub.outcomes import (
    InvalidArgumentError,
    InvalidVertexError,
    SearchBudgetExceeded,
)
from balsub.router import exact_path_in_region, exact_paths


def all_simple_path_lengths(g, region, v1, v2):
    """Brute-force oracle: lengths of every simple v1,v2-path whose
    interior stays inside region."""
    lengths = set()

    def walk(cur, seen):
        for w in g.neighbors(cur):
            if w == v2:
                lengths.add(len(seen))
                continue
            if w in seen or w not in region:
                continue
            walk(w, seen | {w})

    walk(v1, {v1})
    return frozenset(lengths)


def test_realize_single_edge():
    g = path_graph(2)
    assert exact_path_in_region(g, [], 0, [1], 1) == [0, 1]


def test_realize_validates_inputs():
    g = complete_graph(4)
    with pytest.raises(InvalidVertexError):
        exact_path_in_region(g, [], 0, [4], 1)
    with pytest.raises(InvalidVertexError):
        exact_path_in_region(g, [7], 0, [1], 2)
    # a start among the targets, or a length below 1, has no path
    assert exact_path_in_region(g, [1, 2], 0, [0], 2) is None
    assert exact_path_in_region(g, [], 0, [1], 0) is None


def test_exact_path_in_region_returns_host_ids():
    g = cycle_graph(6)
    found = exact_path_in_region(g, [1, 3, 4, 5], 0, [2], 4)
    assert found == [0, 5, 4, 3, 2]
    # C6 is bipartite; an odd 0,2-path cannot exist
    assert exact_path_in_region(g, [1, 3, 4, 5], 0, [2], 3) is None
    with pytest.raises(InvalidArgumentError):
        exact_path_in_region(g, [1], 0, [], 2)


def test_exact_path_into_targets_of_both_colours():
    # C6 is bipartite and the targets 1, 2 lie on opposite sides: the parity
    # of a path depends on which target it ends at
    g = cycle_graph(6)
    assert exact_path_in_region(g, [3, 4, 5], 0, [1, 2], 4) == [0, 5, 4, 3, 2]


def test_exact_search_budget_is_not_a_refutation():
    g = path_graph(6)
    with pytest.raises(SearchBudgetExceeded):
        exact_path_in_region(g, range(1, 5), 0, [5], 5, budget=1)
    assert exact_path_in_region(g, range(1, 5), 0, [5], 5) == list(range(6))


def test_exact_paths_checks_its_endpoints_once():
    g = path_graph(6)
    inner = frozenset(range(1, 5))
    assert list(exact_paths(g, 0, frozenset({5}), 5, inner, [0], 100)) == [tuple(range(6))]
    # an out-of-range start is refused even where no search would begin
    with pytest.raises(InvalidVertexError):
        list(exact_paths(g, 6, frozenset({5}), 5, inner, [0], 100))
    with pytest.raises(InvalidVertexError):
        list(exact_paths(g, 0, frozenset({-1}), 5, inner, [0], 100))


def test_long_paths_do_not_recurse():
    g = path_graph(1200)
    assert exact_path_in_region(g, range(1, 1199), 0, [1199], 1199) == list(range(1200))
    # paper-mode lengths run to 10^11 and beyond; the work stays bounded by the graph
    assert exact_path_in_region(g, range(1, 1199), 0, [1199], 10**12 + 1) is None


def test_menu_of_c6_arcs():
    g = cycle_graph(6)
    menu = {
        n for n in range(1, 6)
        if exact_path_in_region(g, [1, 3, 4, 5], 0, [2], n) is not None
    }
    assert menu == {2, 4}


def test_realize_matches_bruteforce_oracle():
    rng = random.Random(5)
    checked = 0
    for seed in range(200):
        n = rng.randint(4, 12)
        g = gnp(n, 0.45, seed)
        v1, v2 = 0, n - 1
        region = frozenset(range(1, n - 1))
        oracle = all_simple_path_lengths(g, region, v1, v2)
        for target in range(1, n):
            found = exact_path_in_region(g, region, v1, [v2], target)
            if target in oracle:
                assert found is not None
                w = PathWitness(tuple(found))
                assert w.length == target
                assert check_path(g, w)
                assert w.vertices[0] == v1 and w.vertices[-1] == v2
                assert set(w.interior()) <= region
            else:
                assert found is None
        checked += 1
    assert checked == 200


def _random_adjuster_host(rng):
    family = rng.choice(("gnp", "bipartite", "plane", "cube", "cycle"))
    if family == "gnp":
        return gnp(rng.randint(8, 30), rng.choice((0.07, 0.2, 0.35)), rng.randrange(10**6))
    if family == "bipartite":
        n1, n2 = rng.randint(3, 12), rng.randint(3, 12)
        return bipartite_gnp(n1, n2, rng.choice((0.25, 0.4, 0.6)), rng.randrange(10**6))[0]
    if family == "plane":
        return incidence_plane(rng.choice((2, 3)))
    if family == "cube":
        return hypercube(rng.choice((3, 4)))
    return cycle_graph(rng.randint(4, 24))


def test_built_adjuster_menus_are_realized_in_the_region():
    # every length a built adjuster claims is realized inside G[A + cores],
    # which is why `gadget build adjuster` can print the menu as claimed
    rng = random.Random(13)
    built = 0
    for _ in range(400):
        g = _random_adjuster_host(rng)
        avoid = rng.sample(range(g.n), rng.randint(0, g.n // 3))
        c4_mode = rng.random() < 0.5
        m = rng.randint(2 if c4_mode else 1, 4)
        adj = build_simple_adjuster(g, avoid, rng.randint(1, 4), m, c4_mode=c4_mode)
        if not isinstance(adj, Adjuster):
            continue
        realizable = all_simple_path_lengths(g, adj.center, adj.core1, adj.core2)
        assert set(adj.menu()) <= realizable
        assert validate_adjuster(g, adj).passed
        built += 1
    assert built >= 100

