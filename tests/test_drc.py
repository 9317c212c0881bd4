"""Dependent random choice, the one-subdivision embedder, and degree bounds.

The feasibility margin and bisection values below were recomputed
independently with exact rationals before being frozen here.
"""

import random
from fractions import Fraction
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsub.certify import SubdivisionCertificate, best_k_at_ell, verify_subdivision
from balsub.drc import (
    DrcParams,
    _drc_reorder,
    _middle_matching,
    dense_tk2,
    drc_feasible,
    drc_select,
    kst_degree_bound,
)
from balsub.generators import (
    bipartite_gnp,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp,
    hypercube,
    incidence_plane,
    kdd,
    path_graph,
)
from balsub.graph import Graph
from balsub.outcomes import BuildFailure, InvalidArgumentError


# -- feasibility ---------------------------------------------------------------


def test_feasibility_margin_is_exact():
    p = DrcParams(t=3, r=2, c=5, a=3)
    # (1/2)^3 * 60 - C(60,2) * (5/60)^3 = 15/2 - 295/288 = 1865/288 >= 3
    lhs = Fraction(1, 8) * 60 - 1770 * Fraction(125, 216000)
    assert lhs == Fraction(1865, 288)
    assert lhs >= 3
    assert drc_feasible(60, 60, Fraction(1, 2), p)
    # at 30 x 30 the same parameters fall short: 15/4 - 435/216 < 3
    assert Fraction(15, 4) - Fraction(435, 216) < 3
    assert not drc_feasible(30, 30, Fraction(1, 2), p)


def test_feasibility_exact_boundary():
    # alpha = 2/3, t = 3: 54*(8/27) - 54*(1/27) = 16 - 2 = 14 exactly
    p14 = DrcParams(t=3, r=1, c=1, a=14)
    assert drc_feasible(54, 3, Fraction(2, 3), p14)
    p15 = DrcParams(t=3, r=1, c=1, a=15)
    assert not drc_feasible(54, 3, Fraction(2, 3), p15)


def test_feasibility_edge_inputs():
    p = DrcParams(2, 2, 2, 2)
    assert not drc_feasible(10, 10, 0, p)  # alpha = 0 never clears a >= 1
    assert drc_feasible(10, 10, 1, DrcParams(5, 2, 2, 2))
    assert not drc_feasible(0, 5, Fraction(1, 2), p)
    with pytest.raises(InvalidArgumentError):
        drc_feasible(10, 0, Fraction(1, 2), p)
    with pytest.raises(InvalidArgumentError):
        drc_feasible(-1, 5, Fraction(1, 2), p)
    with pytest.raises(InvalidArgumentError):
        drc_feasible(10, 10, 2, p)
    with pytest.raises(InvalidArgumentError):
        drc_feasible(10, 10, Fraction(-1, 2), p)


def test_params_validation():
    with pytest.raises(InvalidArgumentError):
        DrcParams(0, 1, 1, 1)
    with pytest.raises(InvalidArgumentError):
        DrcParams(1, 1, 0, 1)
    with pytest.raises(InvalidArgumentError):
        DrcParams(1, 3, 1, 2)  # r > a
    p = DrcParams(2, 2, 3, 4)
    assert (p.t, p.r, p.c, p.a) == (2, 2, 3, 4)


# -- selection -----------------------------------------------------------------


def _common_in(g, subset, side):
    out = None
    for v in subset:
        nbrs = {w for w in g.neighbors(v) if w in side}
        out = nbrs if out is None else out & nbrs
    return out


def test_select_guarantees_recomputed():
    g, sides = bipartite_gnp(60, 60, 0.5, 11)
    p = DrcParams(t=3, r=2, c=5, a=3)
    a0 = drc_select(g, sides, p, 0)
    assert isinstance(a0, frozenset)
    assert a0 <= sides[0]
    assert len(a0) >= p.a
    for subset in combinations(sorted(a0), p.r):
        assert len(_common_in(g, subset, sides[1])) >= p.c


def test_select_deterministic():
    g, sides = bipartite_gnp(60, 60, 0.5, 11)
    p = DrcParams(t=3, r=2, c=5, a=3)
    assert drc_select(g, sides, p, 0) == drc_select(g, sides, p, 0)
    assert drc_select(g, sides, p, 7) == drc_select(g, sides, p, 7)


def test_select_rejects_bad_partitions():
    p = DrcParams(1, 1, 1, 1)
    k4 = complete_graph(4)
    with pytest.raises(InvalidArgumentError):
        drc_select(k4, ({0, 1}, {2, 3}), p, 0)  # edge inside a side
    kb = complete_bipartite(3, 3)
    with pytest.raises(InvalidArgumentError):
        drc_select(kb, ({0, 1, 3}, {3, 4, 5}), p, 0)  # overlap
    with pytest.raises(InvalidArgumentError):
        # edge inside the second side
        drc_select(Graph(6, kb.edges() + ((4, 5),)), ({0, 1, 2}, {3, 4, 5}), p, 0)
    with pytest.raises(InvalidArgumentError):
        drc_select(kb, ({0, 1, 2}, ()), p, 0)  # empty second side
    with pytest.raises(InvalidArgumentError):
        # infeasible demand on this host
        drc_select(kb, ({0, 1, 2}, {3, 4, 5}), DrcParams(1, 1, 3, 3), 0)


def test_select_ignores_outside_edges():
    # an extra component neither side mentions must not trip the
    # intra-side edge check
    edges = [(u, v) for u in range(3) for v in range(3, 6)] + [(6, 7)]
    g = Graph(8, edges)
    # feasible: 1^2*3 - C(3,1)*(2/3)^2 = 5/3 >= 1
    p = DrcParams(2, 1, 2, 1)
    a0 = drc_select(g, (frozenset({0, 1, 2}), frozenset({3, 4, 5})), p, 1)
    assert a0 == frozenset({0, 1, 2})


def _select_oracle(g, v1, v2, p, seed, max_retries):
    """drc_select's feasibility gate, sampling and deletion on Python sets,
    for comparison: "infeasible", None for no selection, or the selection."""
    crossing = sum(1 for u in v1 for w in g.neighbors(u) if w in v2)
    if not drc_feasible(len(v1), len(v2), Fraction(crossing, len(v1) * len(v2)), p):
        return "infeasible"
    rng = random.Random(seed)
    pool2 = sorted(v2)
    for _ in range(max_retries):
        hood = {rng.choice(pool2) for _ in range(p.t)}
        a_set = sorted(u for u in v1 if all(g.has_edge(u, s) for s in hood))
        deleted = set()
        for subset in combinations(a_set, p.r):
            if deleted.isdisjoint(subset) and len(_common_in(g, subset, v2)) < p.c:
                deleted.add(max(subset))
        a0 = frozenset(a_set) - deleted
        if len(a0) >= p.a and all(
            len(_common_in(g, subset, v2)) >= p.c
            for subset in combinations(sorted(a0), p.r)
        ):
            return a0
    return None


def test_select_matches_a_set_oracle():
    rng = random.Random(5)
    outcomes = {"selected": 0, "failed": 0, "infeasible": 0}
    for _ in range(400):
        # each vertex of the second part gets its own density, so that a
        # sample can hit an isolated vertex although the average is high
        n1, n2 = rng.randint(2, 16), rng.randint(1, 10)
        density = [rng.choice([0.0, 0.7, 1.0, 1.0]) for _ in range(n2)]
        g = Graph(n1 + n2, [
            (u, n1 + w) for u in range(n1) for w in range(n2) if rng.random() < density[w]
        ])
        v1, v2 = frozenset(range(n1)), frozenset(range(n1, n1 + n2))
        r = rng.randint(1, 2)
        p = DrcParams(t=rng.randint(1, 3), r=r, c=rng.randint(1, 3), a=rng.randint(r, r + 2))
        seed, retries = rng.randrange(1000), rng.choice([1, 3])
        want = _select_oracle(g, v1, v2, p, seed, retries)
        if want == "infeasible":
            with pytest.raises(InvalidArgumentError, match="infeasible"):
                drc_select(g, (v1, v2), p, seed, max_retries=retries)
            outcomes["infeasible"] += 1
            continue
        got = drc_select(g, (v1, v2), p, seed, max_retries=retries)
        if want is None:
            assert isinstance(got, BuildFailure)
            outcomes["failed"] += 1
        else:
            assert got == want
            outcomes["selected"] += 1
    assert outcomes["selected"] >= 100 and outcomes["failed"] >= 10, outcomes


def test_select_deletes_a_vertex_of_every_bad_pair():
    # lows 1 and 5 see two of the 21 vertices opposite, so any pair holding
    # one has 2 < c common neighbours; every sample that reaches a low puts
    # it in the pool, and the deletions must leave exactly the highs
    # (feasible: 151/189 * 9 - C(9,2) * 3/21 >= 2)
    lows = {1: (9, 10), 5: (10, 11)}
    highs = [u for u in range(9) if u not in lows]
    edges = [(u, w) for u in highs for w in range(9, 30)]
    edges += [(u, w) for u, ws in lows.items() for w in ws]
    g = Graph(30, edges)
    sides = (frozenset(range(9)), frozenset(range(9, 30)))
    p = DrcParams(t=1, r=2, c=3, a=2)
    for seed in range(40):
        assert drc_select(g, sides, p, seed, max_retries=1) == frozenset(highs), seed
        assert _select_oracle(g, *sides, p, seed, 1) == frozenset(highs), seed


def test_drc_reorder_puts_the_selection_first_keeping_each_part_in_order():
    # feasible: 6 - C(6,2) * (3/20)^2 >= 3, and every vertex of the first
    # side is selected on a complete bipartite host
    g = complete_bipartite(6, 20)
    order = list(reversed(range(26)))
    got = _drc_reorder(g, tuple(range(26)), g.two_coloring(), 3, 0, order)
    assert got == [5, 4, 3, 2, 1, 0] + list(range(25, 5, -1))


# -- one-subdivision embedding --------------------------------------------------


def test_dense_embedding_complete_graph():
    g = complete_graph(10)
    cert = dense_tk2(g, 4)
    assert not isinstance(cert, BuildFailure)
    assert cert.branch == (0, 1, 2, 3)
    assert verify_subdivision(g, cert).passed
    # every connecting path has exactly one middle vertex
    for _, path in cert.pairs():
        assert path.length == 2


def test_dense_embedding_bipartite():
    g = complete_bipartite(4, 4)
    cert = dense_tk2(g, 3)
    assert not isinstance(cert, BuildFailure)
    assert verify_subdivision(g, cert).passed
    branch = set(cert.branch)
    # in a bipartite host all branch vertices sit on one side
    assert branch <= set(range(4)) or branch <= set(range(4, 8))


def test_dense_embedding_failures():
    out = dense_tk2(path_graph(8), 3)
    assert isinstance(out, BuildFailure)
    assert out.reason == "no_embedding"
    # component too small for k + C(k,2) vertices
    small = dense_tk2(complete_graph(10), 5)
    assert isinstance(small, BuildFailure)
    assert "15 vertices" in small.detail
    # a spent budget is told apart from a refutation
    capped = dense_tk2(complete_graph(10), 3, node_budget=0)
    assert isinstance(capped, BuildFailure)
    assert capped.reason == "budget_exhausted"
    assert capped.detail == "search budget of 0 nodes exhausted"
    # the bipartite side bound refutes these before the first search node:
    # C(k,2) middles cannot fit on a side of 20 or 14 vertices
    for host, k, opposite in (
        (kdd(20, 3), 8, 20),
        (complete_bipartite(14, 14), 7, 14),
    ):
        refuted = dense_tk2(host, k, node_budget=0)
        assert isinstance(refuted, BuildFailure)
        assert refuted.reason == "no_embedding"
        assert "budget" not in refuted.detail
        assert refuted.detail == (
            f"bipartite component: {opposite} vertices opposite the branch "
            f"side, C({k},2)={comb(k, 2)} middles needed"
        )
    # K3,30 at k=4: the small side is too small for the branch, and the
    # large side has too few vertices opposite it for the middles
    lopsided = dense_tk2(complete_bipartite(3, 30), 4, node_budget=0)
    assert isinstance(lopsided, BuildFailure)
    assert lopsided.detail == (
        "bipartite component: 3 vertices of degree >= 3, 4 branch vertices "
        "needed; 3 vertices opposite the branch side, C(4,2)=6 middles needed"
    )
    with pytest.raises(InvalidArgumentError):
        dense_tk2(complete_graph(5), 1)


def test_dense_embedding_middles_distinct():
    for seed in range(5):
        g = gnp(16, 0.6, seed)
        cert = dense_tk2(g, 4, seed=seed)
        if isinstance(cert, BuildFailure):
            continue
        middles = [path.vertices[1] for _, path in cert.pairs()]
        assert len(set(middles)) == len(middles)
        assert not set(middles) & set(cert.branch)
        assert verify_subdivision(g, cert).passed


def _recursive_middle_matching(g, branch):
    """`_middle_matching` as it was, recursing along each augmenting path."""
    branch_set = set(branch)
    pairs = list(combinations(sorted(branch), 2))
    cands = {}
    for u, v in pairs:
        overlap = sorted(set(g.neighbors(u)) & set(g.neighbors(v)) - branch_set)
        if not overlap:
            return None
        cands[(u, v)] = overlap
    owner = {}

    def assign(pair, banned):
        for m in cands[pair]:
            if m in banned:
                continue
            banned.add(m)
            if m not in owner or assign(owner[m], banned):
                owner[m] = pair
                return True
        return False

    for pair in pairs:
        if not assign(pair, set()):
            return None
    return {pair: m for m, pair in owner.items()}


def test_middle_matching_matches_the_recursive_oracle():
    # the same matching, in the same order, on 600 random (host, branch)
    # cases; dense hosts make later pairs move earlier pairs' middles
    rng = random.Random(15)
    matched = refused = 0
    for case in range(600):
        n = rng.randint(4, 20)
        shape = case % 3
        if shape == 0:
            g = gnp(n, rng.choice((0.4, 0.6, 0.8, 0.95)), case)
        elif shape == 1:
            g = bipartite_gnp(n // 2, n - n // 2, rng.choice((0.6, 0.9)), case)[0]
        else:
            g = complete_graph(n)
        branch = rng.sample(range(n), rng.randint(2, min(6, n)))
        want = _recursive_middle_matching(g, branch)
        got = _middle_matching(g, branch)
        if want is None:
            assert got is None, case
            refused += 1
        else:
            assert list(got.items()) == list(want.items()), case
            matched += 1
    assert matched >= 150 and refused >= 150


def test_middle_matching_does_not_recurse(shallow_stack):
    # in a clique each new branch pair shifts every earlier pair's middle,
    # so an augmenting path holds up to all C(24, 2) = 276 pairs
    g = complete_graph(300)
    with shallow_stack():
        cert = dense_tk2(g, 24)
    assert isinstance(cert, SubdivisionCertificate)
    assert verify_subdivision(g, cert).passed


def _disjoint_union(*graphs):
    edges, base = [], 0
    for h in graphs:
        edges += [(base + u, base + v) for u, v in h.edges()]
        base += h.n
    return Graph(base, edges)


def test_dense_embedding_matches_oracle():
    # dense_tk2 is exact: it finds a TK_k^(2) iff the brute-force oracle
    # says one exists, and otherwise refutes rather than runs out of budget
    hosts = [
        gnp(n, p, seed)
        for n in (9, 11, 12, 13, 14)
        for p in (0.35, 0.55, 0.8)
        for seed in range(2)
    ]
    hosts += [
        bipartite_gnp(a, 14 - a, p, seed)[0]
        for a in (4, 5, 7)
        for p in (0.5, 0.8)
        for seed in range(2)
    ]
    hosts += [_disjoint_union(gnp(7, 0.7, s), gnp(7, 0.6, s + 50)) for s in range(4)]
    # a bipartite component beside an odd cycle: no global 2-colouring
    hosts += [
        _disjoint_union(bipartite_gnp(3, 7, 0.9, s)[0], cycle_graph(3))
        for s in range(3)
    ]
    hosts += [
        _disjoint_union(complete_bipartite(4, 6), cycle_graph(3)),
        _disjoint_union(complete_bipartite(3, 6), cycle_graph(5)),
        _disjoint_union(complete_bipartite(3, 3), complete_bipartite(3, 4)),
        incidence_plane(2),  # C4-free: every middle is forced
        hypercube(3),
        complete_bipartite(4, 4),
        complete_graph(9),
        cycle_graph(12),
        path_graph(10),
    ]
    seen = set()
    for g in hosts:
        best = best_k_at_ell(g, 2)
        seen.add(best)
        for k in range(2, 6):
            out = dense_tk2(g, k, node_budget=10**6)
            if best >= k:
                assert isinstance(out, SubdivisionCertificate), (g, k)
                assert verify_subdivision(g, out).passed
            else:
                assert isinstance(out, BuildFailure), (g, k)
                assert "budget" not in out.detail
    assert seen >= {2, 3, 4}


def test_dense_sweep_hosts_settle_within_budget():
    # every k the default sweep tries on the bipartite benchmark hosts is
    # decided, found or refuted, within 30 000 search nodes
    cases = (
        (hypercube(8), (9, 8)),
        (kdd(20, 3), (8, 7, 6)),
        (incidence_plane(5), (7, 6)),
        (complete_bipartite(14, 14), (7, 6, 5)),
    )
    for g, ks in cases:
        for k in ks[:-1]:
            out = dense_tk2(g, k, seed=1, node_budget=30_000)
            assert isinstance(out, BuildFailure), (g, k)
            assert "budget" not in out.detail, (g, k)
        cert = dense_tk2(g, ks[-1], seed=1, node_budget=30_000)
        assert isinstance(cert, SubdivisionCertificate), g
        assert verify_subdivision(g, cert).passed


# -- degree bound ----------------------------------------------------------------


def test_degree_bound_quadratic_root():
    # nA*C(d,2) = t*C(nB,2) with nA = nB = 7, t = 2 solves to d = 4
    bound = kst_degree_bound(7, 7, 2, 2)
    assert abs(float(bound) - 4.0) <= 1e-9


def test_degree_bound_linear_rule():
    assert kst_degree_bound(5, 12, 1, 3) == Fraction(36, 5)
    assert kst_degree_bound(1, 4, 1, 9) == Fraction(4)  # clamped to nB


def test_degree_bound_clamps_to_side():
    # demand so lax that even the complete bipartite graph qualifies
    assert kst_degree_bound(2, 5, 2, 100) == Fraction(5)


def test_degree_bound_on_c4_free_incidence_graph():
    g = incidence_plane(2)  # C4-free and 3-regular
    bound = kst_degree_bound(7, 7, 2, 1)
    assert all(g.degree(v) <= float(bound) + 1e-9 for v in range(7))


def test_degree_bound_validation():
    with pytest.raises(InvalidArgumentError):
        kst_degree_bound(0, 5, 2, 2)
    with pytest.raises(InvalidArgumentError):
        kst_degree_bound(5, 5, 0, 2)
    with pytest.raises(InvalidArgumentError):
        kst_degree_bound(5, -1, 2, 2)


@settings(max_examples=60, deadline=None)
@given(
    na=st.integers(2, 12),
    nb=st.integers(2, 12),
    s=st.integers(1, 3),
    t=st.integers(1, 6),
)
def test_degree_bound_monotone(na, nb, s, t):
    base = kst_degree_bound(na, nb, s, t)
    assert base <= nb
    assert kst_degree_bound(na, nb, s, t + 1) >= base - Fraction(1, 10**8)
    assert kst_degree_bound(na, nb + 1, s, t) >= base - Fraction(1, 10**8)
    # more rows on the free side only tightens the bound
    assert kst_degree_bound(na + 1, nb, s, t) <= base + Fraction(1, 10**8)
