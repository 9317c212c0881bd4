"""End-to-end acceptance gate.

Each criterion is one test; conftest prints an `AC-n <label>: pass|fail`
line per criterion so a full run reads as a checklist.  Tolerances and
corpus sizes are part of the contract and must not be loosened.
"""

from __future__ import annotations

import io
import json
import math
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import comb

from balsub.assemble import RunConfig, derive_config, top_level
from balsub.certify import (
    SubdivisionCertificate,
    best_balanced_clique,
    best_k_at_ell,
    verify_subdivision,
)
from balsub.cli import main
from balsub.connect import PathWitness, diameter_bound, robust_budget
from balsub.drc import DrcParams, dense_tk2, drc_feasible, drc_select, kst_degree_bound
from balsub.expander import (
    ExpansionProfile,
    epsilon_of,
    extract_expander,
    verify_expander,
)
from balsub.gadgets import (
    Adjuster,
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
from balsub.generators import (
    bipartite_gnp,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    gnp,
    incidence_plane,
    kdd,
    to_edge_list,
)
from balsub.graph import Graph, average_degree
from balsub.outcomes import BuildFailure


def _run_cli(argv: list[str], stdin_text: str | None = None):
    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    if stdin_text is not None:
        sys.stdin = io.StringIO(stdin_text)
    try:
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = int(exc.code or 0)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# -- AC-1 ----------------------------------------------------------------------


def test_ac1_two_block_hosts(tmp_path):
    # largest k with k(k-1)/2 <= d and k <= d, for d = 4, 9, 16
    for d, floor_k in ((4, 3), (9, 4), (16, 6)):
        host = kdd(d, 2)
        path = tmp_path / f"kdd_{d}_2.txt"
        path.write_text(to_edge_list(host))
        for seed in range(10):
            t0 = time.monotonic()
            code, out, _ = _run_cli(
                ["find", str(path), "--mode", "desk", "--seed", str(seed)]
            )
            elapsed = time.monotonic() - t0
            assert elapsed < 30.0, (d, seed, elapsed)
            assert code == 0, (d, seed, out)
            cert = SubdivisionCertificate.from_json_dict(json.loads(out))
            assert verify_subdivision(host, cert).passed, (d, seed)
            assert len(cert.branch) >= floor_k, (d, seed, len(cert.branch))
            if seed == 0 and 2 * d <= 14:
                best = best_balanced_clique(kdd(d, 1))
                assert best is not None
                assert len(cert.branch) == best[0], (d, best)


# -- AC-2 ----------------------------------------------------------------------


def test_ac2_dense_fallback():
    t0 = time.monotonic()
    for n, k in ((10, 4), (15, 5), (21, 6)):
        assert k + k * (k - 1) // 2 <= n < (k + 1) + (k + 1) * k // 2
        g = complete_graph(n)
        cert = dense_tk2(g, k)
        assert isinstance(cert, SubdivisionCertificate), (n, k)
        assert cert.ell == 2 and len(cert.branch) == k
        assert verify_subdivision(g, cert).passed
        assert isinstance(dense_tk2(g, k + 1), BuildFailure), (n, k + 1)
        if n <= 12:
            assert best_k_at_ell(g, 2) == k
    assert time.monotonic() - t0 < 5.0


# -- AC-3 ----------------------------------------------------------------------


def test_ac3_oracle_equivalence():
    produced = 0
    for i in range(200):
        n = 4 + i % 5
        g = gnp(n, 0.25 + 0.15 * (i % 5), seed=1000 + i)
        outcome = top_level(g, RunConfig(mode="desk", seed=i))
        if outcome.certificate is not None:
            cert = outcome.certificate
            assert verify_subdivision(g, cert).passed, i
            assert len(cert.branch) <= best_k_at_ell(g, cert.ell), i
            produced += 1
        attempt = dense_tk2(g, 3, seed=i)
        if isinstance(attempt, SubdivisionCertificate):
            assert verify_subdivision(g, attempt).passed, i
            assert len(attempt.branch) <= best_k_at_ell(g, 2), i
            produced += 1
    assert produced >= 100  # the corpus is not vacuous


# -- AC-4 ----------------------------------------------------------------------


def _expansion_brute(g: Graph, eps1: float, k: float):
    """Independent reimplementation of the expansion check."""
    if g.n < k:
        return "certified", None
    lo = max(1, math.ceil(k / 2))
    for size in range(lo, g.n // 2 + 1):
        for xs in combinations(g.vertices(), size):
            xset = set(xs)
            nbrs: set[int] = set()
            for v in xs:
                nbrs.update(g.neighbors(v))
            nbrs -= xset
            eps = 0.0 if size < k / 5 else eps1 / math.log(15 * size / k) ** 2
            if len(nbrs) < eps * size:
                return "refuted", frozenset(xs)
    return "certified", None


def test_ac4_expander_contracts():
    count = 0
    for i in range(100):
        n = 8 + (i * 7) % 18
        g = gnp(n, 0.3 + 0.06 * (i % 9), seed=500 + i)
        profile = ExpansionProfile(1.0, max(float(average_degree(g)) / 8, 1e-9))
        res = extract_expander(g, profile, cap=12)
        h = res.graph
        # exact rational checks, no floats
        assert average_degree(h) >= average_degree(g) / 2, i
        if h.n > 0:
            min_deg = min(h.degree(v) for v in h.vertices())
            assert Fraction(min_deg) >= average_degree(h) / 2, i
        count += 1
    assert count == 100

    agree = 0
    for i in range(200):
        n = 4 + i % 7
        g = gnp(n, 0.2 + 0.1 * (i % 7), seed=3000 + i)
        profile = ExpansionProfile(1.0, 3.0)
        verdict = verify_expander(g, profile, mode="exhaustive")
        status, _ = _expansion_brute(g, 1.0, 3.0)
        assert verdict.status == status, (i, verdict.status, status)
        if status == "refuted":
            assert verdict.witness is not None
            lib = verdict.witness
            nbrs: set[int] = set()
            for v in lib:
                nbrs.update(g.neighbors(v))
            nbrs -= set(lib)
            eps = (
                0.0
                if len(lib) < 3.0 / 5
                else 1.0 / math.log(15 * len(lib) / 3.0) ** 2
            )
            assert len(nbrs) < eps * len(lib), i
        agree += 1
    assert agree == 200


# -- AC-5 ----------------------------------------------------------------------


def test_ac5_drc_guarantee():
    g, sides = bipartite_gnp(60, 60, 0.5, 11)
    params = DrcParams(t=3, r=2, c=5, a=3)
    # hand-derived margin: 60/8 - 1770/1728 = 15/2 - 295/288 = 1865/288
    margin = Fraction(1, 2) ** 3 * 60 - comb(60, 2) * Fraction(5, 60) ** 3
    assert margin == Fraction(1865, 288)
    assert margin >= 3
    assert drc_feasible(60, 60, Fraction(1, 2), params) is True

    wins = 0
    for seed in range(100):
        sel = drc_select(g, sides, params, seed, max_retries=20)
        if isinstance(sel, BuildFailure):
            continue
        assert len(sel) >= 3, seed
        for pair in combinations(sorted(sel), 2):
            common = set(g.neighbors(pair[0])) & set(g.neighbors(pair[1]))
            assert len(common & sides[1]) >= 5, (seed, pair)
        wins += 1
    assert wins >= 95, wins


# -- AC-6 ----------------------------------------------------------------------


def test_ac6_c4_free_route():
    t0 = time.monotonic()
    for q in (3, 5, 7):
        g = incidence_plane(q)
        outcome = top_level(g, RunConfig(mode="desk", kappa_rule="linear", seed=0))
        assert outcome.certificate is not None, q
        assert verify_subdivision(g, outcome.certificate).passed, q
        assert any(
            e.startswith("profile transform (s=t=2)") for e in outcome.trace.entries
        ), q

        hub = build_hub(g, (), 2, 2, c4_mode=True)
        assert isinstance(hub, Hub), q
        assert validate_hub(g, hub).passed, q
        adj = build_simple_adjuster(g, (), 4, 2, c4_mode=True)
        assert isinstance(adj, Adjuster), q
        assert validate_adjuster(g, adj).passed, q
        assert len(adj.center) + 2 == 6, q  # girth-6 cycle core
        assert len({length % 2 for length in adj.menu()}) == 1, q

        n_side = q * q + q + 1
        bound = kst_degree_bound(n_side, n_side, 2, 2)
        assert average_degree(g) <= bound, (q, bound)
    assert time.monotonic() - t0 < 60.0


# -- AC-7 ----------------------------------------------------------------------


class _Tally:
    def __init__(self) -> None:
        self.calls = 0
        self.successes = 0

    def run(self, g: Graph, builder, validator, *args, **kwargs):
        self.calls += 1
        built = builder(g, *args, **kwargs)
        if isinstance(built, BuildFailure):
            return None
        report = validator(g, built)
        assert report.passed, (builder.__name__, args, report.failures())
        self.successes += 1
        return built


def _c6_star(blocks: int) -> Graph:
    # every arm block is bridged to vertex 2 of the core block
    edges = []
    for b in range(blocks):
        base = 6 * b
        edges += [(base + i, base + (i + 1) % 6) for i in range(6)]
        if b:
            edges.append((2, base))
    return Graph(6 * blocks, edges)


def _gadget_corpus() -> list[Graph]:
    hosts: list[Graph] = []
    for i in range(30):
        hosts.append(gnp(12 + i % 16, 0.3 + 0.05 * (i % 7), seed=900 + i))
    hosts += [complete_graph(n) for n in (8, 10, 12)]
    hosts += [kdd(d, 2) for d in (3, 4, 5)]
    hosts += [cycle_graph(n) for n in (12, 18, 24)]
    hosts.append(incidence_plane(3))
    hosts += [_c6_star(blocks) for blocks in (2, 3, 4, 5)]
    return hosts


def test_ac7_gadget_round_trip(chain_of_four):
    tally = _Tally()
    for g in _gadget_corpus():
        for h1, h2 in ((1, 1), (2, 2), (3, 1)):
            tally.run(g, build_hub, validate_hub, (), h1, h2)
        for anchor, size in ((0, 4), (g.n // 2, 6), (0, 9)):
            tally.run(g, grow_expansion, validate_expansion, anchor, size)
        for shape in ((1, 1, 1, 1), (2, 1, 1, 1), (2, 2, 2, 2)):
            tally.run(g, build_unit, validate_unit, (), *shape)
        for size, m in ((1, 1), (1, 2), (2, 2)):
            tally.run(g, build_simple_adjuster, validate_adjuster, (), size, m)

    # an avoid set confines an adjuster to each hexagon of a star
    for blocks in (2, 3, 4, 5):
        g = _c6_star(blocks)
        for b in range(blocks):
            avoid = [v for v in g.vertices() if not (6 * b <= v < 6 * b + 6)]
            adj = tally.run(g, build_simple_adjuster, validate_adjuster, avoid, 1, 1)
            assert isinstance(adj, Adjuster)
    assert tally.calls >= 500, tally.calls
    assert tally.successes >= 200, tally.successes

    # constructed violations: every tampered record must be caught
    caught = 0

    k10 = complete_graph(10)
    hub = build_hub(k10, (), 2, 2)
    assert isinstance(hub, Hub)
    stolen = hub.second_layers[0][1]
    bad_hubs = [
        replace(hub, center=hub.second_layers[0][0]),
        replace(hub, first_layer=(hub.first_layer[0], hub.first_layer[0])),
        replace(
            hub,
            second_layers=(
                (hub.second_layers[0][0], stolen),
                (hub.second_layers[1][0], stolen),
            ),
        ),
    ]
    for bad in bad_hubs:
        assert not validate_hub(k10, bad).passed
        caught += 1

    grown = grow_expansion(k10, 0, 5)
    assert isinstance(grown, Expansion)
    outside = max(v for v in k10.vertices() if v not in grown.vertices)
    bad_expansions = [
        replace(grown, radius=0),
        replace(grown, anchor=outside),
    ]
    for bad in bad_expansions:
        assert not validate_expansion(k10, bad).passed
        caught += 1

    k3030 = complete_bipartite(30, 30)
    unit = build_unit(k3030, (), 2, 2, 2, 2)
    assert isinstance(unit, Unit)
    bad_units = [
        replace(unit, spoke_cap=0),
        replace(unit, hubs=(unit.hubs[0], unit.hubs[0])),
        replace(unit, spokes=(unit.spokes[0], unit.spokes[0])),
    ]
    for bad in bad_units:
        assert not validate_unit(k3030, bad).passed
        caught += 1

    hexa = cycle_graph(6)
    adj = build_simple_adjuster(hexa, (), 1, 1)
    assert isinstance(adj, Adjuster)
    off_anchor = max(adj.center)  # core detached from its end expansion
    bad_adjusters = [
        replace(adj, base_length=adj.base_length + 1),
        replace(adj, core1=off_anchor),
        replace(adj, m=0),
        replace(adj, steps=-1),
    ]
    for bad in bad_adjusters:
        assert not validate_adjuster(hexa, bad).passed
        caught += 1

    chain, four_steps = chain_of_four
    assert validate_adjuster(chain, four_steps).passed
    bad_chains = [
        replace(four_steps, steps=5),  # a menu length no path realizes
        replace(four_steps, steps=2),  # a centre too large for two steps
        replace(four_steps, center=four_steps.center - {7}),  # a cut detour
    ]
    for bad in bad_chains:
        assert not validate_adjuster(chain, bad).passed
        caught += 1

    c9 = cycle_graph(9)
    cert = SubdivisionCertificate.from_paths(
        3,
        (0, 3, 6),
        {
            (0, 3): PathWitness((0, 1, 2, 3)),
            (3, 6): PathWitness((3, 4, 5, 6)),
            (0, 6): PathWitness((6, 7, 8, 0)),
        },
    )
    assert verify_subdivision(c9, cert).passed
    bad_certs = [
        replace(cert, ell=2),
        replace(cert, branch=(0, 0, 6)),
        replace(cert, pair_paths=cert.pair_paths[:-1]),
        replace(
            cert,
            pair_paths=cert.pair_paths[:-1]
            + (((3, 6), PathWitness((3, 5, 4, 6))),),
        ),
    ]
    for bad in bad_certs:
        assert not verify_subdivision(c9, bad).passed
        caught += 1

    assert caught == 19


# -- AC-8 ----------------------------------------------------------------------


def test_ac8_formula_regression():
    p15 = ExpansionProfile(1.0, 15.0)
    # 1/ln^2(15) and the x = k/5 boundary value 1/ln^2(3)
    assert abs(epsilon_of(15, p15) - 0.13635986988666526) < 1e-9
    assert abs(epsilon_of(1, ExpansionProfile(1.0, 5.0)) - 0.82853544969022304) < 1e-9
    # ceil(2 ln^3 225) and floor(x eps(x)/4) at x = 15 and x = 10^6
    assert diameter_bound(225, p15) == 318
    assert robust_budget(15, p15) == 0
    assert robust_budget(10**6, p15) == 1309

    paper = RunConfig(mode="paper")
    c = derive_config(1000, 4, paper)
    assert abs(c.kappa - 2.0) < 1e-9
    assert c.m == 74356 and c.ell == 74356**3
    assert abs(c.big_d - 2.0**2 * 74356.0**4 / 1e7) < 1e-9 * c.big_d
    assert abs(c.c - 1 / 200) < 1e-9

    # m-derivation at the knee n = e*kappa^2: 80 ln^4(e) = 80 -> m = 82
    assert math.log((4 * math.e) / 4) == 1.0
    assert derive_config(4 * math.e, 4, paper).m == 82
    assert derive_config(68, 25, paper).m == 82  # integer host: 68/25 > e


# -- AC-9 ----------------------------------------------------------------------


def test_ac9_determinism(tmp_path, src_env):
    files = {
        "kdd42": to_edge_list(kdd(4, 2)),
        "kdd92": to_edge_list(kdd(9, 2)),
        "kdd162": to_edge_list(kdd(16, 2)),
        "k6": to_edge_list(complete_graph(6)),
        "c6": to_edge_list(cycle_graph(6)),
        "bip": to_edge_list(bipartite_gnp(60, 60, 0.5, 11)[0]),
    }
    paths = {}
    for name, text in files.items():
        p = tmp_path / f"{name}.txt"
        p.write_text(text)
        paths[name] = str(p)

    first = subprocess.run(
        [sys.executable, "-m", "balsub", "find", paths["kdd42"], "--seed", "0"],
        capture_output=True,
        check=True,
        env=src_env,
    )
    cert_path = tmp_path / "cert.json"
    cert_path.write_bytes(first.stdout)

    commands = [
        ["find", paths["kdd42"], "--mode", "desk", "--seed", "0"],
        ["find", paths["kdd92"], "--mode", "desk", "--seed", "7"],
        ["find", paths["kdd162"], "--mode", "desk", "--seed", "9"],
        ["gen", "gnp", "30", "0.4", "--seed", "7"],
        ["gen", "incidence_plane", "3"],
        ["verify", paths["kdd42"], str(cert_path)],
        ["expander", paths["k6"], "--k", "2.0"],
        ["gadget", "build", "adjuster", paths["c6"], "--size", "1", "--m", "2"],
        [
            "drc", paths["bip"],
            "--t", "3", "--r", "2", "--c", "5", "--a", "3",
            "--seed", "5", "--n1", "60",
        ],
    ]
    for argv in commands:
        runs = [
            subprocess.run(
                [sys.executable, "-m", "balsub", *argv],
                capture_output=True,
                env=src_env,
            )
            for _ in range(3)
        ]
        outs = {(r.returncode, r.stdout, r.stderr) for r in runs}
        assert len(outs) == 1, argv
