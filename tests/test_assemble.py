"""Pipeline orchestration: constant resolution, unit assembly, route order.

Paper-mode constants are frozen from an independent 40-digit recomputation
(mpmath) of the defining formulas; they are integers, so equality is exact.
"""

import functools
import hashlib
import json
import shutil
import subprocess
import sys

import pytest

from balsub import assemble, generators
from balsub.assemble import (
    Overrides,
    RunConfig,
    PipelineTrace,
    derive_config,
    desk_target_k,
    find_balanced_subdivision,
    top_level,
)
from balsub.assemble import _component_k_cap
from balsub.certify import SubdivisionCertificate, verify_subdivision
from balsub.expander import ExpansionProfile, extract_bipartite_expander
from balsub.gadgets import (
    Adjuster,
    Hub,
    build_hub,
    build_simple_adjuster,
    validate_adjuster,
    validate_hub,
)
from balsub.generators import complete_graph, cycle_graph, incidence_plane, kdd
from balsub.graph import Graph, average_degree
from balsub.outcomes import BuildFailure, InvalidArgumentError


# -- configuration -----------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(InvalidArgumentError):
        RunConfig(mode="standard")
    with pytest.raises(InvalidArgumentError):
        RunConfig(kappa_rule="cubic")
    assert RunConfig().resolved_epsilon2() == 0.1
    assert RunConfig(kappa_rule="linear").resolved_epsilon2() == 1e-6
    assert RunConfig(epsilon2=0.5).resolved_epsilon2() == 0.5


def test_derive_config_paper_formulas():
    # n=1000, d=4, sqrt rule: kappa=2, ratio=250,
    # 80*ln(250)^4 = 74354.284... -> next even integer above is 74356
    c = derive_config(1000, 4, RunConfig(mode="paper"))
    assert c.kappa == 2.0
    assert c.m == 74356
    assert c.ell == 74356**3
    assert c.big_d == 4 * 74356.0**4 / 1e7
    assert c.c == 1 / 200
    # ratio <= 1 collapses the log term: the smallest even m is 2
    c2 = derive_config(4, 4, RunConfig(mode="paper"))
    assert c2.m == 2 and c2.ell == 8
    assert c2.big_d == pytest.approx(4 * 16 / 1e7)
    # linear rule: kappa = d, ratio = 1000/16, m = 23392
    c3 = derive_config(1000, 4, RunConfig(mode="paper", kappa_rule="linear"))
    assert c3.kappa == 4.0
    assert c3.m == 23392


def test_derive_config_rejects_empty_input():
    with pytest.raises(InvalidArgumentError):
        derive_config(0, 4, RunConfig(mode="paper"))
    with pytest.raises(InvalidArgumentError):
        derive_config(100, 0, RunConfig(mode="paper"))


def test_desk_target_k_sizing():
    # largest k with k*(2k-1) <= n: 5*9=45 <= 50 < 6*11
    assert desk_target_k(50) == 5
    assert desk_target_k(45) == 5
    assert desk_target_k(44) == 4
    assert desk_target_k(10) == 2
    assert desk_target_k(0) == 2


def test_desk_unit_parameters_follow_target_k():
    trace = PipelineTrace()
    find_balanced_subdivision(complete_graph(50), RunConfig(), trace)
    assert trace.entries[0] == "desk unit parameters: target_k=5 (h0,h1,h2,h3)=(4,1,1,2) ell=None"
    trace = PipelineTrace()
    find_balanced_subdivision(
        complete_graph(10), RunConfig(overrides=Overrides(target_k=3)), trace
    )
    assert trace.entries[0] == "desk unit parameters: target_k=3 (h0,h1,h2,h3)=(2,1,1,2) ell=None"
    # no TK_k exists below k = 2, so such a target is refused up front
    for target_k in (-1, 0, 1):
        with pytest.raises(InvalidArgumentError, match="target_k must be >= 2"):
            Overrides(target_k=target_k)


def test_component_k_cap():
    assert _component_k_cap(complete_graph(12)) == 4
    assert _component_k_cap(complete_graph(3)) == 2
    assert _component_k_cap(Graph(0, [])) == 2


# -- unit pipeline -------------------------------------------------------------


def test_balanced_subdivision_on_k50():
    g = complete_graph(50)
    cert = find_balanced_subdivision(g, RunConfig())
    assert isinstance(cert, SubdivisionCertificate)
    assert cert.k == 5
    assert cert.ell == 3  # odd: single-edge segments between hub centers
    assert verify_subdivision(g, cert).passed


def test_balanced_subdivision_failures():
    assert find_balanced_subdivision(Graph(0, []), RunConfig()).reason == "no_units"
    # K6 fits one lean unit; the second starves and the run reports it
    out = find_balanced_subdivision(complete_graph(6), RunConfig())
    assert isinstance(out, BuildFailure)
    assert out.reason == "no_units"
    assert "1 unit" in out.detail


def test_unit_interiors_stay_disjoint():
    g = complete_graph(50)
    from balsub.assemble import PipelineTrace

    trace = PipelineTrace()
    cert = find_balanced_subdivision(g, RunConfig(), trace)
    assert isinstance(cert, SubdivisionCertificate)
    seen = set()
    for unit in trace.units:
        assert not (unit.interior() & seen)
        seen |= unit.interior()


# -- top-level routes ----------------------------------------------------------


def test_route_dense_fallback():
    out = top_level(complete_graph(12), RunConfig())
    assert out.kind == "dense_fallback"
    assert out.trace.route == "dense_tk2"
    assert out.certificate.k == 4 and out.certificate.ell == 2
    assert verify_subdivision(complete_graph(12), out.certificate).passed


def test_route_units_when_dense_is_disabled():
    # a pinned ell other than 2 skips the dense sweep entirely
    out = top_level(complete_graph(50), RunConfig(overrides=Overrides(ell=4)))
    assert out.kind == "certificate"
    assert out.trace.route == "units"
    assert out.certificate.ell == 4
    assert verify_subdivision(complete_graph(50), out.certificate).passed
    assert not any("dense route" in e for e in out.trace.entries)


def test_dense_trace_names_each_spent_budget():
    # with no search node to spend, every k runs out of budget unrefuted
    out = top_level(kdd(9, 2), RunConfig(overrides=Overrides(node_budget=0)))
    assert [e for e in out.trace.entries if e.startswith("dense route")] == [
        f"dense route: TK_{k} budget_exhausted (search budget of 0 nodes exhausted)"
        for k in (4, 3, 2)
    ] + ["dense route: no embedding"]


def test_route_sparse_attaches_a_brute_force_certificate():
    out = top_level(cycle_graph(9), RunConfig(mode="paper"))
    assert out.kind == "sparse_regime"
    assert out.failure == BuildFailure(
        "sparse_regime", "d1=0.250000 < threshold 4.827796"
    )
    # tiny hosts still get a brute-force certificate attached
    assert out.certificate is not None
    assert (out.certificate.k, out.certificate.ell) == (3, 3)
    assert verify_subdivision(cycle_graph(9), out.certificate).passed


# (run config, last trace entry, (k, ell) of the certificate or None) of
# C9's brute-force route, which the dense sweep skips at a pinned ell
_BRUTE_ROUTE = {
    "pinned (3, 3)": (
        RunConfig(overrides=Overrides(target_k=3, ell=3)),
        "brute force: TK_3 with ell=3",
        (3, 3),
    ),
    "pinned (4, 3)": (
        RunConfig(overrides=Overrides(target_k=4, ell=3)),
        "brute force: TK_4 with ell=3 not embeddable",
        None,
    ),
    "ell=5": (
        RunConfig(overrides=Overrides(ell=5)),
        "brute force: TK_3 with ell=5 not embeddable",
        None,
    ),
    "paper": (RunConfig(mode="paper"), "brute force: TK_3 with ell=3", (3, 3)),
}


@pytest.mark.parametrize("case", list(_BRUTE_ROUTE))
def test_brute_route_says_found_or_refuted(case):
    cfg, line, shape = _BRUTE_ROUTE[case]
    out = top_level(cycle_graph(9), cfg)
    assert out.trace.entries[-1] == line
    assert sum("brute force" in e for e in out.trace.entries) == 1
    if shape is None:
        assert out.kind == "failure" and out.certificate is None
        return
    cert = out.certificate
    assert (cert.k, cert.ell) == shape and cert.branch == (0, 3, 6)
    assert verify_subdivision(cycle_graph(9), cert).passed


@pytest.mark.parametrize(
    "cfg, line",
    [
        (
            RunConfig(overrides=Overrides(target_k=3, ell=3)),
            "brute force: TK_3 with ell=3 search budget exhausted",
        ),
        (RunConfig(overrides=Overrides(ell=5)), "brute force: search budget exhausted"),
        (RunConfig(mode="paper"), "brute force: search budget exhausted"),
    ],
    ids=["pinned (3, 3)", "ell=5", "paper"],
)
def test_brute_route_says_when_its_budget_is_spent(monkeypatch, cfg, line):
    for name in ("brute_force_subdivision", "best_balanced_clique"):
        budgeted = functools.partial(getattr(assemble, name), budget=1)
        monkeypatch.setattr(assemble, name, budgeted)
    out = top_level(cycle_graph(9), cfg)
    assert out.certificate is None
    assert out.trace.entries[-1] == line
    assert sum("brute force" in e for e in out.trace.entries) == 1


def test_route_sparse_in_paper_mode():
    # paper thresholds put desk-scale hosts in the sparse regime, and a
    # 16-vertex host is too big for the attached brute-force pass
    out = top_level(kdd(4, 2), RunConfig(mode="paper"))
    assert out.kind == "sparse_regime"
    assert out.certificate is None
    assert out.trace.route == "sparse"


def test_paper_mode_unit_route_honours_a_pinned_ell():
    g = complete_graph(300)
    unpinned = PipelineTrace()
    cert = find_balanced_subdivision(g, RunConfig(mode="paper"), unpinned)
    assert unpinned.entries[0] == "paper constants: kappa=17.291616 m=2 D=0.000478 ell=8"
    assert cert.ell == 8
    pinned = PipelineTrace()
    cert = find_balanced_subdivision(
        g, RunConfig(mode="paper", overrides=Overrides(ell=6)), pinned
    )
    assert pinned.entries[0] == (
        "paper constants: kappa=17.291616 m=2 D=0.000478 ell=6 (pinned)"
    )
    assert cert.ell == 6 and verify_subdivision(g, cert).passed
    # on the bipartite expander the paper's hubs do not fit, but the trace
    # still names the pinned ell rather than m**3
    out = top_level(g, RunConfig(mode="paper", overrides=Overrides(ell=8)))
    assert out.kind == "failure"
    assert "paper constants: kappa=12.247449 m=20 D=2.400000 ell=8 (pinned)" in (
        out.trace.entries
    )


def test_route_failure_on_empty_graph():
    out = top_level(Graph(0, []), RunConfig())
    assert out.kind == "failure"
    assert out.failure is not None
    assert out.failure.reason == "empty_graph"


def test_route_pipeline_exhausted():
    # two isolated vertices: no expander, no dense pair, brute force finds
    # nothing, and the failure says so
    out = top_level(Graph(2, []), RunConfig())
    assert out.kind == "failure"
    assert out.failure.reason == "pipeline_exhausted"
    assert out.trace.entries  # the trace explains the attempts


def test_segment_budget_exhaustion_is_traced():
    out = top_level(
        complete_graph(80), RunConfig(overrides=Overrides(ell=4, node_budget=0))
    )
    assert any(e.endswith(": segment budget exhausted") for e in out.trace.entries)
    assert not any(e.endswith(": no segment") for e in out.trace.entries)


def _sha256(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def _digests(out) -> tuple[str, str]:
    """The sha256 of the certificate's JSON and of the trace entries, each
    taken apart so that a trace change cannot hide a certificate change."""
    return _sha256(out.certificate.to_json_dict()), _sha256(list(out.trace.entries))


# (certificate digest, entries digest) of the unit-route hosts of the
# benchmark at seed 1: the gadget layer must keep every certificate and
# trace byte for byte.
_PINNED_UNIT_ROUTE = {
    80: (
        "5f853ef3085ea71cc9b2ff9169ce7fec77f92f5b68f7d85d23fbc624da6a6e75",
        "69328cdad962cf8b44910a0b7adfbb49a4c1e7122853e8e9b3532c4001e80e86",
    ),
    100: (
        "10e7fb9ae484fa349b5bf63a869caf232dd3f8232399bd54be07cf4e68c55f24",
        "154b628801a0bb02d7804ae8143794b4b4ab4f4a32325b3b0cfaae6c5327f3a6",
    ),
    120: (
        "c012bd05566334b0452c1a1ba123b0fa0662b95d391ec39b64ae4b77cce765c9",
        "ef8e6523edb848f21ca0cc103e05a32aaabed32228d2d58dd2b7befe30694c4b",
    ),
    140: (
        "a0ad941d20e1ec72d50cca59c1a9e7fe8831d499e0da615a67d98244ca21c1ef",
        "d3c8ad133d0dd923d0cd6825f719dc0385b771be02b63f55473abe510f734199",
    ),
    160: (
        "2ef5bceb4b7ddca6dfae3eb41778363a9cf0f3f5c9f690f0755df06a870c9f35",
        "fb8943f3c4226d135e4cc80409394330922708be5bedcc18e7b00074c4074f7b",
    ),
}


@pytest.mark.parametrize("n", sorted(_PINNED_UNIT_ROUTE))
def test_unit_route_certificates_are_pinned(n):
    out = top_level(complete_graph(n), RunConfig(seed=1, overrides=Overrides(ell=4)))
    assert out.kind == "certificate"
    cert_digest, entries_digest = _digests(out)
    assert cert_digest == _PINNED_UNIT_ROUTE[n][0]
    assert entries_digest == _PINNED_UNIT_ROUTE[n][1]


# The same two digests for the `dense_sweep` hosts and the paper-mode
# `small_exhaustive` hosts of the benchmark at seed 1.  The G(n, p) seeds
# are the ones `random.Random("<workload>/1")` draws for those hosts.
_PINNED_WORKLOAD_HOSTS = {
    "hypercube(8)": (
        "hypercube", (8,), {},
        "87db50040ee48961d2d99abe5a93e9c1e97e946d5dd9e2b40d1167b3db0e0b77",
        "43d35a2e343f59ec02cceca5835c0ac1ce7bcb94b3ec2de89dc51d42308440cd",
    ),
    "kdd(20,3)": (
        "kdd", (20, 3), {},
        "2046bb648ef4b657af8412ea076457fb9fe35c289cbc8231f0de06b494861a81",
        "9ec850d9b75e8a5a50ef99d29118c4dc1187fd1008a3f3813032afa0d2d41dd8",
    ),
    "incidence_plane(5)": (
        "incidence_plane", (5,), {"kappa_rule": "linear"},
        "9d39e4f5cc9b751da1c192397f55448558e63b17a970820891e5342f3794649e",
        "7ad029cfa14fa96b8af19cef2b0f9cd03430e914671826f472db52f5c66ca14d",
    ),
    "complete_bipartite(14,14)": (
        "complete_bipartite", (14, 14), {},
        "67736da9da491547fbbdc6970b8b0255813cc67838147b89ab615236d93135ab",
        "042e8ebf24edc69486cc1141f560b6550f7465449a64632322e20f6907f469ce",
    ),
    "gnp(50,0.3)": (
        "gnp", (50, 0.3, 1475198904), {},
        "5d323715b4df4e663de64c668f8eb8b595b55ab7cbef454fc4bd66c13dbb9d67",
        "4c9687ee38f5757f88c03b97881ce2e68e1d1e1d0b83b0190811ba2a2f6b7fe4",
    ),
    "paper cycle_graph(12)": (
        "cycle_graph", (12,), {"mode": "paper"},
        "9bf21758e0ae4c0bc5289db7811dfde22061035c0cee68c4fe98230978af3bfc",
        "b6ee211a52b09126b9c4eefe9760c2fcbc2f6314e12e4d4112948c59a271201e",
    ),
    "paper path_graph(12)": (
        "path_graph", (12,), {"mode": "paper"},
        "72316ecabafeb48e9e23177832404cadb1e38bc6eb167da1d19f5ad2416750ac",
        "291c02fd7da09d3ee66b077580a7ff79b7d0b2d1c970c543a17e062c27d7feba",
    ),
    "paper hypercube(3)": (
        "hypercube", (3,), {"mode": "paper"},
        "ff7d0e45daf76f3d8288733b1f9fbeddf0a9e96c3339f3b9a3cc08c3c096ca18",
        "4c4b1a6a703a9995e81ad4347cb003645f135f130c3a6231a3e204fbe0844e82",
    ),
    "paper gnp(12,0.45)": (
        "gnp", (12, 0.45, 876077723), {"mode": "paper"},
        "9d68f7efeb66924bf3963c143332b19f9c75b09d2f7d22384c7031b8c9e0c8ed",
        "f64a5269decebc8bc14d4b39287e06bea21ee7cba6dc07dd0f69571bd8e8e435",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_WORKLOAD_HOSTS))
def test_dense_and_paper_mode_certificates_are_pinned(name):
    family, params, config, want_cert, want_entries = _PINNED_WORKLOAD_HOSTS[name]
    out = top_level(getattr(generators, family)(*params), RunConfig(seed=1, **config))
    assert out.certificate is not None
    cert_digest, entries_digest = _digests(out)
    assert cert_digest == want_cert
    assert entries_digest == want_entries


# Prints the two digests of every pinned host as JSON, run by another
# interpreter with only the checkout's src/ on its path (no pytest).
_DIGEST_SCRIPT = """
import hashlib, json, sys
from balsub import generators
from balsub.assemble import Overrides, RunConfig, top_level

def sha256(obj):
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()

out = {}
for name, family, params, config, overrides in json.load(sys.stdin):
    g = getattr(generators, family)(*params)
    got = top_level(g, RunConfig(seed=1, overrides=Overrides(**overrides), **config))
    out[name] = [sha256(got.certificate.to_json_dict()), sha256(list(got.trace.entries))]
print(json.dumps(out))
"""


def _interpreter(name: str, env: dict) -> str:
    """The path of the interpreter `name` (`python3.X`), skipping the test
    when it is not found, does not run, or reports another version."""
    path = shutil.which(name)
    version = name.removeprefix("python")
    if path is None:
        pytest.skip(f"{name} not found")
    try:
        done = subprocess.run(
            [path, "-c", "import sys; print('%d.%d' % sys.version_info[:2])"],
            env=env, capture_output=True, text=True, timeout=60,
        )
    except OSError as exc:
        pytest.skip(f"{name} does not start: {exc}")
    if done.returncode != 0 or done.stdout.strip() != version:
        pytest.skip(f"{name} does not run as Python {version}")
    return path


@pytest.mark.parametrize("name", ["python3.10", "python3.12", "python3.13"])
def test_pinned_certificates_hold_on_other_interpreters(src_env, name):
    """The certificate and trace digests pinned above, byte for byte, on
    each other interpreter the project claims that is installed here."""
    path = _interpreter(name, src_env)
    hosts = [
        (f"K{n} ell=4", "complete_graph", [n], {}, {"ell": 4})
        for n in sorted(_PINNED_UNIT_ROUTE)
    ]
    hosts += [
        (host, family, list(params), config, {})
        for host, (family, params, config, *_) in _PINNED_WORKLOAD_HOSTS.items()
    ]
    done = subprocess.run(
        [path, "-c", _DIGEST_SCRIPT], input=json.dumps(hosts), env=src_env,
        capture_output=True, text=True, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    want = {f"K{n} ell=4": list(pins) for n, pins in _PINNED_UNIT_ROUTE.items()}
    want.update(
        (host, list(pins[-2:])) for host, pins in _PINNED_WORKLOAD_HOSTS.items()
    )
    assert json.loads(done.stdout) == want


# Runs under `python -O`, which strips assert statements: with verification
# forced to fail, each route must raise rather than return its certificate.
_GATE_SCRIPT = """
import sys
import balsub.certify
from balsub.assemble import Overrides, RunConfig, top_level
from balsub.generators import complete_graph, cycle_graph
from balsub.outcomes import Clause, ValidationReport

if not sys.flags.optimize:
    sys.exit("not running under -O")
balsub.certify.verify_subdivision = lambda g, cert: ValidationReport(
    (Clause("forced_failure", False),)
)
cases = {
    "dense": (complete_graph(8), RunConfig()),
    "units": (complete_graph(80), RunConfig(overrides=Overrides(ell=4))),
    "brute_force": (cycle_graph(8), RunConfig(mode="paper")),
}
for name, (g, cfg) in cases.items():
    try:
        out = top_level(g, cfg)
    except AssertionError:
        continue
    sys.exit(f"{name}: returned {out.kind} with an unverified certificate")
"""


def test_certificate_gates_survive_python_O(src_env):
    done = subprocess.run(
        [sys.executable, "-O", "-c", _GATE_SCRIPT],
        env=src_env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr


def test_linear_rule_records_transform():
    out = top_level(
        incidence_plane(3),
        RunConfig(kappa_rule="linear", overrides=Overrides(target_k=2)),
    )
    assert any("profile transform" in e for e in out.trace.entries)
    sqrt_out = top_level(
        incidence_plane(3), RunConfig(overrides=Overrides(target_k=2))
    )
    assert not any("profile transform" in e for e in sqrt_out.trace.entries)


def test_dense_sweep_respects_target_k():
    # a pinned target is attempted once, not swept downward
    out = top_level(complete_graph(12), RunConfig(overrides=Overrides(target_k=3)))
    assert out.kind == "dense_fallback"
    assert out.certificate.k == 3
    miss = top_level(cycle_graph(9), RunConfig(overrides=Overrides(target_k=3)))
    # TK_3^(2) needs a 6-cycle, which C9 lacks; with the sweep pinned the
    # dense route cannot fall back to k=2
    assert miss.certificate is None or miss.certificate.k != 2


def test_unit_route_golden_on_k80():
    # recorded certificate and trace of one unit-route find: hub, peeling
    # and unit code must leave both unchanged, byte for byte
    out = top_level(complete_graph(80), RunConfig(seed=1, overrides=Overrides(ell=4)))
    assert (out.kind, out.trace.route) == ("certificate", "units")
    assert out.certificate.to_json_dict() == {
        "branch": [0, 2, 4],
        "ell": 4,
        "paths": [
            {"u": 0, "v": 2, "vertices": [0, 41, 22, 57, 2]},
            {"u": 0, "v": 4, "vertices": [0, 25, 10, 5, 4]},
            {"u": 2, "v": 4, "vertices": [2, 67, 38, 11, 4]},
        ],
    }
    assert list(out.trace.entries) == [
        "host: n=80 d=79.000000; d1=9.875000; profile k=0.987500000",
        "bipartite expander: n=80 verdict=sampled_ok",
        "desk unit parameters: target_k=6 (h0,h1,h2,h3)=(5,1,1,2) ell=4",
        "unit 0: core 0, 14 interior",
        "unit 1: core 1, 13 interior",
        "unit 2: core 2, 14 interior",
        "unit 3: core 3, 12 interior",
        "unit 4: core 4, 13 interior",
        "unit 5: stalled (hub_pool_exhausted: margin 1.0: only 0 satellite"
        " hubs of the 5 required)",
        "pigeonhole: kept 3 of 5 units with cores on one side",
        "pair (0,1): connected",
        "pair (0,2): connected",
        "pair (1,2): connected",
        "connection clique size 3 of 3 units",
    ]


def test_gadgets_validate_on_the_extracted_expander():
    # the gadget layer applies to the expander that top_level extracts
    g = complete_graph(20)
    d1 = average_degree(g) / 8
    h = extract_bipartite_expander(g, d1, ExpansionProfile(1.0, 0.1 * d1)).graph
    hub = build_hub(h, (), 2, 2)
    assert isinstance(hub, Hub) and validate_hub(h, hub).passed
    adj = build_simple_adjuster(h, (), 4, 2)
    assert isinstance(adj, Adjuster) and validate_adjuster(h, adj).passed
