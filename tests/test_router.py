"""Exact-length and windowed-length path realization."""

import random

import pytest

from balsub import router
from balsub.connect import check_path, path_within, short_connect
from balsub.gadgets import Expansion, grow_expansion
from balsub.generators import (
    complete_graph,
    cycle_graph,
    gnp,
    path_graph,
)
from balsub.graph import Graph, bipartite_half
from balsub.outcomes import (
    BuildFailure,
    InvalidArgumentError,
    InvalidVertexError,
    SearchBudgetExceeded,
    TooLargeError,
)
from balsub.router import (
    LengthWindow,
    connect_pair_with_length,
    connect_with_length,
    exact_path_in_region,
    exact_paths,
    realize_exact_length,
    simple_path_lengths,
)


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


def test_length_window_contract():
    w = LengthWindow(2, 5)
    assert 2 in w and 5 in w and 6 not in w
    with pytest.raises(InvalidArgumentError):
        LengthWindow(0, 4)
    with pytest.raises(InvalidArgumentError):
        LengthWindow(3, 2)


def test_realize_long_arc_of_c6():
    g = cycle_graph(6)
    w = realize_exact_length(g, [1, 3, 4, 5], 0, 2, 4)
    assert w is not None
    assert w.vertices == (0, 5, 4, 3, 2)


def test_realize_parity_obstruction():
    # C6 is bipartite; an odd 0,2-path cannot exist
    g = cycle_graph(6)
    assert realize_exact_length(g, [1, 3, 4, 5], 0, 2, 3) is None


def test_realize_single_edge():
    g = path_graph(2)
    w = realize_exact_length(g, [], 0, 1, 1)
    assert w is not None and w.vertices == (0, 1)


def test_realize_validates_inputs():
    g = complete_graph(4)
    with pytest.raises(InvalidArgumentError):
        realize_exact_length(g, [], 0, 0, 1)
    with pytest.raises(InvalidArgumentError):
        realize_exact_length(g, [], 0, 1, 0)
    with pytest.raises(TooLargeError):
        realize_exact_length(complete_graph(30), range(2, 30), 0, 1, 3)


def test_exact_path_in_region_returns_host_ids():
    g = cycle_graph(6)
    found = exact_path_in_region(g, [1, 3, 4, 5], 0, [2], 4)
    assert found == [0, 5, 4, 3, 2]
    assert exact_path_in_region(g, [1, 3, 4, 5], 0, [2], 3) is None
    with pytest.raises(InvalidArgumentError):
        exact_path_in_region(g, [1], 0, [], 2)


def test_exact_path_into_targets_of_both_colours():
    # C6 is bipartite and the targets 1, 2 lie on opposite sides: the parity
    # of a path depends on which target it ends at
    g = cycle_graph(6)
    assert exact_path_in_region(g, [3, 4, 5], 0, [1, 2], 4) == [0, 5, 4, 3, 2]
    f = Expansion(0, frozenset({0}), 0)
    w = connect_with_length(g, 0, f, [1, 2], window=LengthWindow(4, 4))
    assert not isinstance(w, BuildFailure)
    assert w.vertices == (0, 5, 4, 3, 2)


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
    h = path_graph(1100)
    assert simple_path_lengths(h, range(1, 1099), 0, 1099, cap=2000) == frozenset({1099})


def test_menu_of_c6_arcs():
    g = cycle_graph(6)
    menu = simple_path_lengths(g, [1, 3, 4, 5], 0, 2)
    assert menu == frozenset({2, 4})


def test_realize_matches_bruteforce_oracle():
    rng = random.Random(5)
    checked = 0
    for seed in range(200):
        n = rng.randint(4, 12)
        g = gnp(n, 0.45, seed)
        v1, v2 = 0, n - 1
        region = frozenset(range(1, n - 1))
        oracle = all_simple_path_lengths(g, region, v1, v2)
        menu = simple_path_lengths(g, region, v1, v2)
        assert menu == oracle
        for target in range(1, n):
            w = realize_exact_length(g, region, v1, v2, target)
            if target in oracle:
                assert w is not None and w.length == target
                assert check_path(g, w)
                assert w.vertices[0] == v1 and w.vertices[-1] == v2
                assert set(w.interior()) <= region
            else:
                assert w is None
        checked += 1
    assert checked == 200


def test_connect_with_length_on_k20():
    g = complete_graph(20)
    f = Expansion(0, frozenset({0}), 0)
    w = connect_with_length(g, 0, f, [19], window=LengthWindow(5, 9))
    assert not isinstance(w, BuildFailure)
    assert w.vertices[0] == 0 and w.vertices[-1] == 19
    assert 5 <= w.length <= 9
    assert check_path(g, w)


def test_connect_with_length_single_edge():
    g = complete_graph(5)
    f = Expansion(0, frozenset({0}), 0)
    w = connect_with_length(g, 0, f, [3], window=LengthWindow(1, 1))
    assert not isinstance(w, BuildFailure)
    assert w.vertices == (0, 3)


def test_connect_with_length_impossible_window():
    g = path_graph(6)
    f = Expansion(0, frozenset({0}), 0)
    out = connect_with_length(g, 0, f, [5], window=LengthWindow(7, 9))
    assert isinstance(out, BuildFailure)
    assert out.reason == "window_unreachable"


def test_connect_with_length_names_budget_exhaustion(monkeypatch):
    g = complete_graph(10)
    f = Expansion(0, frozenset({0}), 0)
    monkeypatch.setattr(router, "_SEARCH_BUDGET", 0)
    out = connect_with_length(g, 0, f, [9], window=LengthWindow(3, 5))
    assert isinstance(out, BuildFailure)
    assert out.reason == "search_budget_exhausted"
    assert out.detail.endswith("search budget exhausted at lengths [3, 4, 5]")
    # the pair connector passes the long leg's tag on
    u1 = frozenset(range(5))
    u2 = frozenset(range(5, 10))
    f3 = Expansion(10, frozenset(range(10, 15)), 1)
    f4 = Expansion(15, frozenset(range(15, 20)), 1)
    pair = connect_pair_with_length(
        complete_graph(30), u1, u2, f3, f4, window=LengthWindow(6, 12)
    )
    assert isinstance(pair, BuildFailure)
    assert pair.reason == "search_budget_exhausted"
    assert pair.detail.startswith("long leg failed: ")


def test_connect_with_length_respects_avoid():
    g = complete_graph(10)
    f = Expansion(0, frozenset({0}), 0)
    w = connect_with_length(g, 0, f, [9], avoid=[4, 5], window=LengthWindow(3, 5))
    assert not isinstance(w, BuildFailure)
    assert not set(w.vertices) & {4, 5}


def induced_path_inside(g, region, a, b):
    """Oracle: shortest a,b-path found on the induced subgraph of the
    region, mapped back to host ids."""
    if a == b:
        return [a]
    sub, ids = g.induced(region | {a, b})
    index = {v: i for i, v in enumerate(ids)}
    hit = short_connect(sub, [index[a]], [index[b]])
    return None if hit is None else [ids[v] for v in hit.vertices]


def test_path_inside_matches_induced_subgraph_oracle():
    rng = random.Random(11)
    found = 0
    for trial in range(200):
        n = rng.randint(2, 16)
        g = gnp(n, rng.choice((0.2, 0.35, 0.5)), trial)
        region = frozenset(v for v in range(n) if rng.random() < 0.6)
        a, b = rng.randrange(n), rng.randrange(n)
        got = path_within(g, region, a, b)
        assert got == induced_path_inside(g, region, a, b)
        found += got is not None and len(got) > 2
    assert found >= 40


def test_connect_pair_on_k30():
    g = complete_graph(30)
    u1 = frozenset(range(5))
    u2 = frozenset(range(5, 10))
    f3 = Expansion(10, frozenset(range(10, 15)), 1)
    f4 = Expansion(15, frozenset(range(15, 20)), 1)
    out = connect_pair_with_length(g, u1, u2, f3, f4, window=LengthWindow(6, 12))
    assert not isinstance(out, BuildFailure)
    p, q = out
    assert 6 <= p.length + q.length <= 12
    assert not set(p.vertices) & set(q.vertices)
    starts = {p.vertices[0], q.vertices[0]}
    assert len(starts & u1) == 1 and len(starts & u2) == 1
    assert {p.vertices[-1], q.vertices[-1]} == {10, 15}


def test_connect_pair_disconnected_failure():
    g = Graph(12, [(4, 5), (5, 6), (6, 7), (8, 9), (10, 11)])
    u1 = frozenset({0, 1})  # isolated vertices
    u2 = frozenset({4})
    f3 = Expansion(8, frozenset({8, 9}), 1)
    f4 = Expansion(10, frozenset({10, 11}), 1)
    out = connect_pair_with_length(g, u1, u2, f3, f4, window=LengthWindow(2, 6))
    assert isinstance(out, BuildFailure)


def test_connect_pair_legs_sum_into_random_windows():
    # the residual window of the long leg is what keeps the total inside
    # the window: no success may land outside it, on K_n, G(n, p) and
    # bipartite hosts, with windows of one to four lengths
    rng = random.Random(3)
    successes = 0
    for trial in range(200):
        n = rng.randint(8, 16)
        g = gnp(n, rng.choice((0.3, 0.5, 0.7)), trial)
        if trial % 3 == 0:
            g = complete_graph(n)
        elif trial % 3 == 1:
            g = bipartite_half(g)[0]  # parity rules out half the lengths
        order = list(range(n))
        rng.shuffle(order)
        u1, u2, rest = frozenset(order[:2]), frozenset(order[2:4]), order[4:]
        f3 = grow_expansion(g, rest[0], rng.randint(1, 2), order[:4])
        if isinstance(f3, BuildFailure):
            continue
        anchor4 = next(v for v in rest if v not in f3.vertices)
        f4 = grow_expansion(g, anchor4, rng.randint(1, 2), set(order[:4]) | f3.vertices)
        if isinstance(f4, BuildFailure):
            continue
        lo = rng.randint(2, 7)
        window = LengthWindow(lo, lo + rng.choice((0, 0, 1, 3)))
        out = connect_pair_with_length(g, u1, u2, f3, f4, window=window)
        if isinstance(out, BuildFailure):
            continue
        p, q = out
        assert check_path(g, p) and check_path(g, q)
        assert not set(p.vertices) & set(q.vertices)
        assert p.length + q.length in window
        successes += 1
    assert successes >= 100


def test_connect_pair_forced_single_edges():
    g = Graph(4, [(0, 2), (1, 3)])
    u1 = frozenset({0})
    u2 = frozenset({1})
    f3 = Expansion(2, frozenset({2}), 0)
    f4 = Expansion(3, frozenset({3}), 0)
    out = connect_pair_with_length(g, u1, u2, f3, f4, window=LengthWindow(2, 2))
    assert not isinstance(out, BuildFailure)
    p, q = out
    assert p.length == 1 and q.length == 1
    assert {p.vertices[0], q.vertices[0]} == {0, 1}
