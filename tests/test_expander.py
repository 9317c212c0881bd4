"""Sublinear expansion rate, verification, and expander extraction."""

import math
import random
from fractions import Fraction
from itertools import combinations

import mpmath
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from balsub.expander import (
    ExpansionProfile,
    _external_lower_bounds,
    epsilon_of,
    extract_bipartite_expander,
    extract_expander,
    kst_free_profile_transform,
    verify_expander,
)
from balsub.generators import (
    complete_bipartite,
    complete_graph,
    gnp,
    hypercube,
    path_graph,
)
from balsub.graph import Graph, average_degree, bipartite_half, external_neighborhood
from balsub.outcomes import (
    DensityTooLowError,
    EmptyGraphError,
    InvalidArgumentError,
)


def two_cliques(size: int) -> Graph:
    edges = []
    for base in (0, size):
        edges.extend(
            (base + i, base + j) for i, j in combinations(range(size), 2)
        )
    return Graph(2 * size, edges)


def test_profile_rejects_nonpositive_parameters():
    with pytest.raises(InvalidArgumentError):
        ExpansionProfile(0.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        ExpansionProfile(1.0, -2.0)


def test_epsilon_zero_below_one_fifth_of_k():
    assert epsilon_of(1, ExpansionProfile(0.5, 10.0)) == 0.0


def test_epsilon_rejects_nonpositive_x():
    with pytest.raises(InvalidArgumentError):
        epsilon_of(0, ExpansionProfile(1.0, 1.0))
    with pytest.raises(InvalidArgumentError):
        epsilon_of(-3, ExpansionProfile(1.0, 1.0))


def test_epsilon_at_x_equal_k():
    # 1/ln^2(15), recomputed independently at high precision
    mpmath.mp.dps = 30
    oracle = float(1 / mpmath.log(15) ** 2)
    value = epsilon_of(15, ExpansionProfile(1.0, 15.0))
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(0.13635986988666526, abs=1e-12)


def test_epsilon_at_boundary_x_equals_k_over_five():
    # x = k/5 exactly: the rate switches on, at 1/ln^2(3)
    mpmath.mp.dps = 30
    oracle = float(1 / mpmath.log(3) ** 2)
    value = epsilon_of(1, ExpansionProfile(1.0, 5.0))
    assert value == pytest.approx(oracle, abs=1e-9)
    assert value == pytest.approx(0.8285354496902230, abs=1e-12)


def test_epsilon_monotone_decreasing_above_threshold():
    p = ExpansionProfile(1.0, 5.0)
    values = [epsilon_of(x, p) for x in range(1, 40)]
    assert all(a >= b for a, b in zip(values, values[1:]))


def test_verify_vacuous_when_n_below_k():
    v = verify_expander(complete_graph(3), ExpansionProfile(1.0, 10.0))
    assert v.status == "certified" and v.sets_checked == 0


def test_verify_k6_certified():
    v = verify_expander(complete_graph(6), ExpansionProfile(0.5, 2.0))
    assert v.status == "certified"
    # |X| ranges over 1..3: C(6,1)+C(6,2)+C(6,3) candidate sets
    assert v.sets_checked == 6 + 15 + 20


def test_verify_two_cliques_refuted_with_component_witness():
    g = two_cliques(4)
    v = verify_expander(g, ExpansionProfile(1.0, 2.0))
    assert v.status == "refuted"
    assert v.witness is not None
    assert external_neighborhood(g, v.witness) == frozenset()
    assert len(v.witness) == 4


def test_verify_witness_bounds():
    g = two_cliques(4)
    p = ExpansionProfile(1.0, 2.0)
    v = verify_expander(g, p)
    x = len(v.witness)
    assert math.ceil(p.k / 2) <= x <= g.n // 2
    nbrs = len(external_neighborhood(g, v.witness))
    assert nbrs < epsilon_of(x, p) * x


def test_verify_exhaustive_cap():
    # the cap decides the check: exhaustive up to it, sampled above it
    g, p = gnp(23, 0.3, 0), ExpansionProfile(1.0, 2.0)
    assert verify_expander(g, p, cap=22) == verify_expander(g, p, cap=0)
    k8 = complete_graph(8)
    assert verify_expander(k8, p, cap=8).status == "certified"
    assert verify_expander(k8, p, cap=7).status == "sampled_ok"


def test_verify_empty_graph_rejected():
    with pytest.raises(EmptyGraphError):
        verify_expander(Graph(0, []), ExpansionProfile(1.0, 2.0))


def test_sampled_mode_never_certifies():
    for seed in range(10):
        v = verify_expander(
            complete_graph(8),
            ExpansionProfile(1.0, 2.0),
            trials=50,
            cap=0,
            seed=seed,
        )
        assert v.status in ("sampled_ok", "refuted")
        assert v.status != "certified"


def test_sampled_mode_on_an_empty_size_range_is_vacuous():
    # n = 23 >= k = 23, but ceil(k/2) = 12 > n//2 = 11: no candidate set
    g = complete_graph(23)
    p = ExpansionProfile(1.0, 23.0)
    for cap in (0, g.n):
        v = verify_expander(g, p, cap=cap)
        assert (v.status, v.sets_checked, v.witness) == ("certified", 0, None)


def _sampled_oracle(g, profile, trials, seed):
    """The sampled check without the degree bound, as an eager loop: it
    lists the components, three degree prefixes and `trials` randomly
    grown connected sets, and only then checks them in that order."""
    lo, hi = max(1, math.ceil(profile.k / 2)), g.n // 2
    rng = random.Random(seed)
    candidates = [comp for comp in g.components() if lo <= len(comp) <= hi]
    by_degree = sorted(g.vertices(), key=lambda v: (g.degree(v), v))
    for size in {lo, (lo + hi) // 2, hi}:
        if lo <= size <= hi:
            candidates.append(frozenset(by_degree[:size]))
    for _ in range(trials):
        size = rng.randint(lo, hi)
        start = rng.randrange(g.n)
        grown = {start}
        frontier = [start]
        while len(grown) < size and frontier:
            u = frontier[rng.randrange(len(frontier))]
            fresh = [w for w in g.neighbors(u) if w not in grown]
            if not fresh:
                frontier.remove(u)
                continue
            w = fresh[rng.randrange(len(fresh))]
            grown.add(w)
            frontier.append(w)
        if lo <= len(grown) <= hi:
            candidates.append(frozenset(grown))
    for checked, xs in enumerate(candidates, 1):
        need = epsilon_of(len(xs), profile) * len(xs)
        if len(external_neighborhood(g, xs)) < need:
            return "refuted", checked, xs
    return "sampled_ok", len(candidates), None


def _disjoint_union(a: Graph, b: Graph) -> Graph:
    shifted = [(u + a.n, v + a.n) for u, v in b.edges()]
    return Graph(a.n + b.n, list(a.edges()) + shifted)


_hosts = st.one_of(
    st.builds(gnp, st.integers(2, 40), st.floats(0.05, 1.0), st.integers(0, 10**6)),
    st.builds(
        lambda n, p, seed: bipartite_half(gnp(n, p, seed))[0],
        st.integers(2, 40),
        st.floats(0.3, 1.0),
        st.integers(0, 10**6),
    ),
    st.builds(complete_bipartite, st.integers(1, 30), st.integers(1, 30)),
    st.builds(complete_graph, st.integers(2, 40)),
    st.builds(
        _disjoint_union,
        st.builds(complete_graph, st.integers(1, 15)),
        st.builds(complete_bipartite, st.integers(1, 10), st.integers(1, 10)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(
    _hosts,
    st.floats(0.001, 1.0),
    st.floats(0.01, 20.0),
    st.sampled_from([-3, 0, 5, 200]),
    st.integers(0, 1000),
)
def test_sampled_verdict_matches_the_sampling_oracle(g, k_frac, epsilon1, trials, seed):
    k = k_frac * g.n
    p = ExpansionProfile(epsilon1, k)
    assume(max(1, math.ceil(k / 2)) <= g.n // 2)
    v = verify_expander(g, p, trials=trials, seed=seed, cap=0)
    assert (v.status, v.sets_checked, v.witness) == _sampled_oracle(g, p, trials, seed)


def _hosts_past_the_cap(count, seed):
    """`count` random (host, profile, seed) triples with 23 to 60 vertices,
    so the sampled check runs at the default cap: sparse and dense G(n, p),
    bipartite halves, and two G(n, p) side by side."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(23, 60)
        p = rng.uniform(0.03, 0.6)
        kind = rng.randrange(3)
        if kind == 0:
            g = gnp(n, p, rng.randrange(10**6))
        elif kind == 1:
            g = bipartite_half(gnp(n, p, rng.randrange(10**6)))[0]
        else:
            a = rng.randint(1, n - 1)
            g = _disjoint_union(gnp(a, p, rng.randrange(10**6)), gnp(n - a, p, rng.randrange(10**6)))
        profile = ExpansionProfile(rng.uniform(0.01, 10.0), rng.uniform(0.5, n - 1))
        yield g, profile, rng.randrange(1000)


def test_sampled_check_matches_the_eager_oracle_past_the_cap():
    # checking the fixed sets first, and each random set as it is grown,
    # must keep the eager loop's verdict, witness and count
    seen = set()
    for g, profile, seed in _hosts_past_the_cap(300, 7):
        v = verify_expander(g, profile, seed=seed)
        assert (v.status, v.sets_checked, v.witness) == _sampled_oracle(g, profile, 200, seed)
        lo, hi = max(1, math.ceil(profile.k / 2)), g.n // 2
        fixed = sum(lo <= len(c) <= hi for c in g.components()) + len({lo, (lo + hi) // 2, hi})
        if v.status == "refuted":
            seen.add("fixed" if v.sets_checked <= fixed else "random")
        else:
            seen.add(v.status)
    assert seen == {"fixed", "random", "sampled_ok"}


def _bridged_pair(block: Graph) -> Graph:
    """Two copies of `block` joined by one edge between their last vertices."""
    g = _disjoint_union(block, block)
    return Graph(g.n, list(g.edges()) + [(block.n - 1, g.n - 1)])


@settings(max_examples=80, deadline=None)
@given(
    st.one_of(
        # the bounds are tight on these: one side of the bridge, minus its
        # endpoint, has a single outside neighbour
        st.builds(_bridged_pair, st.builds(complete_graph, st.integers(2, 7))),
        st.builds(
            _bridged_pair,
            st.builds(complete_bipartite, st.integers(1, 3), st.integers(1, 3)),
        ),
        st.builds(gnp, st.integers(2, 13), st.floats(0.2, 1.0), st.integers(0, 10**6)),
        st.builds(
            lambda n, seed: bipartite_half(gnp(n, 0.8, seed))[0],
            st.integers(2, 13),
            st.integers(0, 10**6),
        ),
        st.builds(complete_bipartite, st.integers(1, 7), st.integers(1, 7)),
    )
)
def test_external_lower_bounds_hold_on_every_set(g):
    assume(len(g.components()) == 1)
    sizes = range(1, g.n // 2 + 1)
    for size, bound in zip(sizes, _external_lower_bounds(g, sizes)):
        least = min(
            len(external_neighborhood(g, xs))
            for xs in combinations(range(g.n), size)
        )
        assert bound <= least


def test_degree_bound_settles_kmm_without_drawing(monkeypatch):
    def no_draws(*args):
        raise AssertionError("the degree bound should settle K_{40,40}")

    monkeypatch.setattr(random, "Random", no_draws)
    v = verify_expander(complete_bipartite(40, 40), ExpansionProfile(1.0, 1.0))
    # sizes 1..40: prefixes at 1, 20 and 40, plus 200 grown sets
    assert (v.status, v.sets_checked, v.witness) == ("sampled_ok", 203, None)


def test_hypercube_falls_back_to_sampling(monkeypatch):
    seeds = []

    class Spy(random.Random):
        def __init__(self, seed):
            seeds.append(seed)
            super().__init__(seed)

    monkeypatch.setattr(random, "Random", Spy)
    # min degree 8 cannot cover the need of about 1.3 at |X| = 128
    v = verify_expander(hypercube(8), ExpansionProfile(1.0, 0.1))
    assert seeds == [0]
    assert (v.status, v.sets_checked, v.witness) == ("sampled_ok", 203, None)


def test_sampled_mode_refutes_disconnected():
    g = two_cliques(6)
    v = verify_expander(g, ExpansionProfile(1.0, 2.0), cap=0)
    assert v.status == "refuted"
    assert external_neighborhood(g, v.witness) == frozenset()


def test_extract_k4_is_identity():
    res = extract_expander(complete_graph(4), ExpansionProfile(1.0, 2.0))
    assert res.graph.n == 4 and res.graph.edge_count() == 6
    assert res.verdict.status == "certified"


def test_extract_two_cliques_lands_in_one_component():
    g = two_cliques(8)
    res = extract_expander(g, ExpansionProfile(1.0, 2.0))
    host = frozenset(res.ids)
    assert host <= frozenset(range(8)) or host <= frozenset(range(8, 16))
    assert average_degree(res.graph) >= average_degree(g) / 2
    assert res.verdict.status == "certified"


def test_extract_empty_rejected():
    with pytest.raises(EmptyGraphError):
        extract_expander(Graph(0, []), ExpansionProfile(1.0, 2.0))


def test_extract_degree_guarantees_hold_exactly():
    for seed in range(25):
        g = gnp(16, 0.35, seed)
        if g.edge_count() == 0:
            continue
        res = extract_expander(g, ExpansionProfile(1.0, 2.0))
        h = res.graph
        assert average_degree(h) >= average_degree(g) / 2
        min_deg = min(h.degree(v) for v in h.vertices())
        assert Fraction(min_deg) >= average_degree(h) / 2
        # id table really embeds H into G
        sub, _ = g.induced(res.ids)
        assert sub.edges() == h.edges()


def test_extract_sampled_verdict_on_large_host():
    g = gnp(60, 0.3, 1)
    res = extract_expander(g, ExpansionProfile(1.0, 2.0))
    assert res.verdict.status in ("sampled_ok", "refuted")
    assert average_degree(res.graph) >= average_degree(g) / 2


def test_bipartite_extraction_on_k1616():
    g = complete_bipartite(16, 16)
    res = extract_bipartite_expander(g, 2, ExpansionProfile(1.0, 2.0))
    h = res.graph
    assert min(h.degree(v) for v in h.vertices()) >= 2
    assert h.two_coloring() is not None


def test_bipartite_extraction_density_threshold():
    with pytest.raises(DensityTooLowError):
        extract_bipartite_expander(path_graph(2), 1, ExpansionProfile(1.0, 2.0))


def test_bipartite_extraction_below_8d_rejected():
    # K_{8,8} + K_3 has average degree 134/19 < 8, violating the
    # d(G) >= 8d precondition at d=1
    edges = [(i, 8 + j) for i in range(8) for j in range(8)]
    edges += [(16, 17), (16, 18), (17, 18)]
    g = Graph(19, edges)
    assert average_degree(g) < 8
    with pytest.raises(DensityTooLowError):
        extract_bipartite_expander(g, 1, ExpansionProfile(1.0, 2.0))


def test_bipartite_extraction_lands_in_dense_block():
    # K_{9,9} + K_3 meets the threshold exactly (average degree 8)
    edges = [(i, 9 + j) for i in range(9) for j in range(9)]
    edges += [(18, 19), (18, 20), (19, 20)]
    g = Graph(21, edges)
    assert average_degree(g) == 8
    res = extract_bipartite_expander(g, 1, ExpansionProfile(1.0, 2.0))
    assert min(res.graph.degree(v) for v in res.graph.vertices()) >= 1
    assert frozenset(res.ids) <= frozenset(range(18))
    assert res.graph.two_coloring() is not None


def test_kst_transform_scales_k():
    # k = eps2 * d^2 at s=t=2 becomes k' = eps2 * d
    eps2 = 1e-6
    d = 100.0
    p = ExpansionProfile(1.0, eps2 * d**2)
    out = kst_free_profile_transform(p, d, 2, 2)
    assert out.epsilon1 == 1.0
    assert out.k == pytest.approx(eps2 * d, rel=1e-12)


def test_kst_transform_validates_arguments():
    p = ExpansionProfile(1.0, 1.0)
    with pytest.raises(InvalidArgumentError):
        kst_free_profile_transform(p, 10.0, 1, 2)  # s < 2
    with pytest.raises(InvalidArgumentError):
        kst_free_profile_transform(p, 10.0, 3, 2)  # t < s
    with pytest.raises(InvalidArgumentError):
        kst_free_profile_transform(p, -1.0, 2, 2)  # d <= 0
    # derived eps2 = 1/100 is far above 1/(10^5 t)
    with pytest.raises(InvalidArgumentError):
        kst_free_profile_transform(ExpansionProfile(1.0, 1.0), 10.0, 2, 2)


def _exhaustive_oracle(g, profile):
    """Every candidate set from the definition, size by size in
    lexicographic order, against the real need."""
    checked = 0
    for size in range(max(1, math.ceil(profile.k / 2)), g.n // 2 + 1):
        need = epsilon_of(size, profile) * size
        for xs in combinations(range(g.n), size):
            checked += 1
            if len(external_neighborhood(g, xs)) < need:
                return "refuted", checked, frozenset(xs)
    return "certified", checked, None


_small_hosts = st.one_of(
    st.builds(gnp, st.integers(1, 12), st.floats(0.0, 1.0), st.integers(0, 10**6)),
    st.builds(
        lambda n, p, seed: bipartite_half(gnp(n, p, seed))[0],
        st.integers(2, 12),
        st.floats(0.3, 1.0),
        st.integers(0, 10**6),
    ),
    st.builds(complete_bipartite, st.integers(1, 6), st.integers(1, 6)),
    st.builds(
        _disjoint_union,
        st.builds(complete_graph, st.integers(1, 6)),
        st.builds(complete_bipartite, st.integers(1, 3), st.integers(1, 3)),
    ),
)


@settings(max_examples=150, deadline=None)
@given(_small_hosts, st.floats(0.01, 1.2), st.floats(0.01, 30.0))
# epsilon1 up to 30 puts some sizes' integer thresholds at 2 or more; on
# K_{4,4} at k = 2 the need at |X| = 1 is about 1.2 when epsilon1 = 5
# (certified) and about 9.9 when epsilon1 = 40 (refuted)
@example(complete_bipartite(4, 4), 0.25, 5.0)
@example(complete_bipartite(4, 4), 0.25, 40.0)
def test_exhaustive_matches_bruteforce_reimplementation(g, k_frac, epsilon1):
    p = ExpansionProfile(epsilon1, k_frac * g.n)
    v = verify_expander(g, p)
    assert (v.status, v.sets_checked, v.witness) == _exhaustive_oracle(g, p)


def test_exhaustive_counts_at_benchmark_scale_are_pinned():
    # n = 20, past the reach of the oracle test: the order and the count
    p = ExpansionProfile(1.0, 0.27)
    v = verify_expander(complete_bipartite(10, 10), p)
    assert (v.status, v.sets_checked, v.witness) == ("certified", 616665, None)
    # every set of sizes 1..9 passes, and {0, ..., 9}, the first set of
    # size 10, is one whole K10
    v = verify_expander(two_cliques(10), p)
    checked = sum(math.comb(20, s) for s in range(1, 10)) + 1
    assert checked == 431910
    assert (v.status, v.sets_checked, v.witness) == (
        "refuted", checked, frozenset(range(10))
    )


def test_a_need_past_float_range_refutes_the_first_set():
    # eps(5) * 5 overflows to inf; |N(X)| < inf holds for every set
    p = ExpansionProfile(1.7e308, 10.0)
    assert epsilon_of(5, p) * 5 == math.inf
    for cap in (10, 0):
        v = verify_expander(complete_graph(10), p, cap=cap)
        assert (v.status, v.sets_checked) == ("refuted", 1)
