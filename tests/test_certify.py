"""Certificates, the subdivision verifier, and the exhaustive oracles."""

import json
import random
from itertools import combinations
from math import comb

import pytest

from balsub.certify import (
    BudgetExhausted,
    NotFound,
    SubdivisionCertificate,
    best_balanced_clique,
    best_k_at_ell,
    brute_force_subdivision,
    verify_subdivision,
)
from balsub.outcomes import SearchBudgetExceeded
from balsub.router import exact_paths
from balsub.connect import PathWitness
from balsub.generators import (
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp,
    path_graph,
)
from balsub.graph import Graph
from balsub.outcomes import InvalidArgumentError


def clause_map(report):
    return {c.name: c.passed for c in report.clauses}


def _cycle_cert():
    # C9 as a TK_3^(3): branch 0, 3, 6 and the three arcs
    paths = {
        (0, 3): PathWitness((0, 1, 2, 3)),
        (3, 6): PathWitness((3, 4, 5, 6)),
        (0, 6): PathWitness((6, 7, 8, 0)),
    }
    return SubdivisionCertificate.from_paths(3, [0, 3, 6], paths)


def test_canonical_form():
    cert = _cycle_cert()
    assert cert.branch == (0, 3, 6)
    assert [pair for pair, _ in cert.pair_paths] == [(0, 3), (0, 6), (3, 6)]
    # the (0,6) path was supplied reversed and must now start at 0
    assert cert.path_for(6, 0).vertices == (0, 8, 7, 6)
    assert cert.k == 3
    assert cert.all_vertices() == frozenset(range(9))


def test_canonicalization_is_input_order_independent():
    a = _cycle_cert()
    b = SubdivisionCertificate.from_paths(
        3,
        [6, 0, 3],
        {
            (6, 3): PathWitness((6, 5, 4, 3)),
            (0, 6): PathWitness((0, 8, 7, 6)),
            (3, 0): PathWitness((3, 2, 1, 0)),
        },
    )
    assert a == b
    assert json.dumps(a.to_json_dict(), sort_keys=True) == json.dumps(
        b.to_json_dict(), sort_keys=True
    )


def test_verify_cycle_cert():
    g = cycle_graph(9)
    report = verify_subdivision(g, _cycle_cert())
    assert report.passed
    assert clause_map(report) == {
        "branch_distinct": True,
        "pairs_complete": True,
        "endpoints_match": True,
        "uniform_length": True,
        "edges_exist": True,
        "internals_disjoint": True,
        "internals_avoid_branch": True,
    }


def test_verify_complete_graph_single_edges():
    g = complete_graph(4)
    paths = {
        (u, v): PathWitness((u, v)) for u, v in combinations(range(4), 2)
    }
    cert = SubdivisionCertificate.from_paths(1, range(4), paths)
    assert verify_subdivision(g, cert).passed


def test_verify_rejects_tampering():
    g = cycle_graph(9)
    base = _cycle_cert()
    paths = dict(base.pair_paths)

    def rebuilt(**changes):
        new_paths = {**paths, **changes.get("paths", {})}
        return SubdivisionCertificate(
            changes.get("ell", base.ell),
            changes.get("branch", base.branch),
            tuple(sorted(new_paths.items())),
        )

    # drop a pair
    short = SubdivisionCertificate(3, base.branch, base.pair_paths[:2])
    assert not clause_map(verify_subdivision(g, short))["pairs_complete"]

    # repeated branch vertex
    dup = SubdivisionCertificate(3, (0, 3, 3), base.pair_paths)
    assert not clause_map(verify_subdivision(g, dup))["branch_distinct"]

    # branch vertex outside the host
    out = SubdivisionCertificate(3, (0, 3, 99), base.pair_paths)
    assert not clause_map(verify_subdivision(g, out))["branch_distinct"]

    # path not of the claimed length
    bad = rebuilt(ell=4)
    assert not clause_map(verify_subdivision(g, bad))["uniform_length"]

    # path using a chord the cycle does not have
    bad = rebuilt(paths={(0, 3): PathWitness((0, 4, 8, 3))})
    assert not clause_map(verify_subdivision(g, bad))["edges_exist"]

    # path ending at the wrong branch vertex
    bad = rebuilt(paths={(0, 3): PathWitness((0, 1, 2, 3)).reversed()})
    assert not clause_map(verify_subdivision(g, bad))["endpoints_match"]

    # shared interior vertex between two pair paths
    g2 = complete_graph(6)
    shared = SubdivisionCertificate.from_paths(
        2,
        [0, 1, 2],
        {
            (0, 1): PathWitness((0, 5, 1)),
            (0, 2): PathWitness((0, 5, 2)),
            (1, 2): PathWitness((1, 4, 2)),
        },
    )
    assert not clause_map(verify_subdivision(g2, shared))["internals_disjoint"]

    # interior vertex that is itself a branch vertex
    through = SubdivisionCertificate.from_paths(
        2,
        [0, 1, 2],
        {
            (0, 1): PathWitness((0, 2, 1)),
            (0, 2): PathWitness((0, 4, 2)),
            (1, 2): PathWitness((1, 5, 2)),
        },
    )
    assert not clause_map(verify_subdivision(g2, through))["internals_avoid_branch"]


def test_json_round_trip():
    cert = _cycle_cert()
    data = cert.to_json_dict()
    again = SubdivisionCertificate.from_json_dict(data)
    assert again == cert
    # serialization is stable under a JSON round trip as well
    assert SubdivisionCertificate.from_json_dict(
        json.loads(json.dumps(data))
    ) == cert


def test_relabel_lifts_through_an_id_table():
    base = SubdivisionCertificate.from_paths(
        2,
        [0, 1],
        {(0, 1): PathWitness((0, 2, 1))},
    )
    ids = (10, 20, 30)
    lifted = base.relabel(ids)
    assert lifted.branch == (10, 20)
    assert lifted.path_for(10, 20).vertices == (10, 30, 20)
    host = Graph(31, [(10, 30), (30, 20)])
    assert verify_subdivision(host, lifted).passed


def test_from_json_dict_rejects_malformed():
    good = _cycle_cert().to_json_dict()
    for broken in (
        {},
        {"ell": 3, "branch": [0, 3, 6]},
        {**good, "ell": "three"},
        {**good, "paths": [{"u": 0, "v": 3}]},
        {**good, "branch": None},
    ):
        with pytest.raises(InvalidArgumentError):
            SubdivisionCertificate.from_json_dict(broken)
    with pytest.raises(InvalidArgumentError):
        SubdivisionCertificate.from_paths(0, [0, 1], {})


# -- brute-force oracles ---------------------------------------------------------


def test_brute_force_finds_cycle_split():
    g = cycle_graph(9)
    cert = brute_force_subdivision(g, 3, 3)
    assert isinstance(cert, SubdivisionCertificate)
    assert cert.branch == (0, 3, 6)
    assert verify_subdivision(g, cert).passed


def test_brute_force_absence_is_complete_search():
    # C8 cannot split into three equal arcs: 3*ell = 8 has no solution
    g = cycle_graph(8)
    for ell in (1, 2):
        assert isinstance(brute_force_subdivision(g, 3, ell), NotFound)
    # trees have no subdivided triangle at all
    assert isinstance(brute_force_subdivision(path_graph(7), 3, 1), NotFound)
    assert isinstance(brute_force_subdivision(path_graph(7), 3, 2), NotFound)


def test_brute_force_on_paths():
    cert = brute_force_subdivision(path_graph(5), 2, 2)
    assert isinstance(cert, SubdivisionCertificate)
    assert verify_subdivision(path_graph(5), cert).passed


def test_brute_force_budget():
    out = brute_force_subdivision(complete_graph(10), 4, 2, budget=5)
    assert isinstance(out, BudgetExhausted)
    assert out.nodes > 5
    with pytest.raises(InvalidArgumentError):
        brute_force_subdivision(complete_graph(4), 1, 1)
    with pytest.raises(InvalidArgumentError):
        brute_force_subdivision(complete_graph(4), 2, 0)


def test_brute_force_skips_low_degree_branch_sets():
    # K4 with 20 pendant leaves: only the four K4 vertices have degree >= 4,
    # so no 5-set can be a branch set and the search ends at once
    edges = [(u, v) for u, v in combinations(range(4), 2)]
    edges += [(4 + i, i % 4) for i in range(20)]
    g = Graph(24, edges)
    assert brute_force_subdivision(g, 5, 1, budget=1000) == NotFound()
    assert brute_force_subdivision(g, 5, 1, budget=0) == NotFound()


def test_brute_force_long_paths_do_not_recurse():
    g = path_graph(1100)
    cert = brute_force_subdivision(g, 2, 1099)
    assert isinstance(cert, SubdivisionCertificate)
    assert cert.pair_paths[0][1].vertices == tuple(range(1100))


def test_brute_force_pair_search_does_not_recurse(shallow_stack):
    # K30 at ell = 1 is one branch set of C(30, 2) = 435 pairs
    g = complete_graph(30)
    with shallow_stack():
        cert = brute_force_subdivision(g, 30, 1)
    assert isinstance(cert, SubdivisionCertificate)
    assert verify_subdivision(g, cert).passed


def _recursive_brute_force(g, k, ell, budget):
    """`brute_force_subdivision` as it was, recursing once per pair."""
    spent = [0]
    need = k + comb(k, 2) * (ell - 1)
    everything = frozenset(g.vertices())

    def fill(pairs, branch, i, allowed, acc):
        if i == len(pairs):
            return SubdivisionCertificate.from_paths(ell, branch, dict(acc))
        u, v = pairs[i]
        for path in exact_paths(g, u, frozenset({v}), ell, allowed, spent, budget):
            acc[(u, v)] = PathWitness(path)
            found = fill(pairs, branch, i + 1, allowed - set(path), acc)
            if found is not None:
                return found
            del acc[(u, v)]
        return None

    try:
        for comp in [c for c in g.components() if len(c) >= need]:
            hubs = [v for v in comp if g.degree(v) >= k - 1]
            for branch in combinations(hubs, k):
                pairs = list(combinations(branch, 2))
                found = fill(pairs, branch, 0, everything.difference(branch), {})
                if found is not None:
                    return found
    except SearchBudgetExceeded:
        return BudgetExhausted(spent[0])
    return NotFound()


def test_brute_force_matches_the_recursive_search():
    # same certificate, same refutation, same nodes spent on a cut search
    rng = random.Random(15)
    tally = {SubdivisionCertificate: 0, NotFound: 0, BudgetExhausted: 0}
    for case in range(300):
        g = gnp(rng.randint(5, 10), rng.choice((0.3, 0.5, 0.7)), case)
        k, ell = rng.randint(2, 4), rng.randint(1, 3)
        budget = rng.choice((5, 20, 10**6))
        want = _recursive_brute_force(g, k, ell, budget)
        assert brute_force_subdivision(g, k, ell, budget) == want, case
        tally[type(want)] += 1
    assert min(tally.values()) >= 25, tally


def test_brute_force_deterministic():
    g = gnp(8, 0.5, 3)
    a = brute_force_subdivision(g, 3, 2)
    b = brute_force_subdivision(g, 3, 2)
    assert a == b


def test_best_balanced_clique():
    k, ell, cert = best_balanced_clique(complete_graph(6))
    assert (k, ell) == (6, 1)
    assert verify_subdivision(complete_graph(6), cert).passed

    k, ell, cert = best_balanced_clique(complete_bipartite(4, 4))
    assert (k, ell) == (3, 2)
    assert verify_subdivision(complete_bipartite(4, 4), cert).passed

    k, ell, _ = best_balanced_clique(cycle_graph(8))
    assert (k, ell) == (2, 1)

    assert best_balanced_clique(Graph(0, [])) is None


def test_best_k_at_ell():
    assert best_k_at_ell(cycle_graph(9), 3) == 3
    assert best_k_at_ell(cycle_graph(9), 4) == 2
    assert best_k_at_ell(complete_graph(6), 1) == 6
    assert best_k_at_ell(path_graph(5), 1) == 2
    # an edgeless graph has no subdivision at all
    assert best_k_at_ell(Graph(4, []), 1) == 1
    with pytest.raises(InvalidArgumentError):
        best_k_at_ell(complete_graph(10), 2, budget=5)
