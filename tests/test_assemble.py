"""Pipeline orchestration: constant resolution, unit assembly, route order.

Paper-mode constants are frozen from an independent 40-digit recomputation
(mpmath) of the defining formulas; they are integers, so equality is exact.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import balsub
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
from balsub.generators import (
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


def test_route_sparse_by_override():
    out = top_level(
        cycle_graph(9), RunConfig(overrides=Overrides(sparse_threshold=100.0))
    )
    assert out.kind == "sparse_regime"
    # tiny hosts still get a brute-force certificate attached
    assert out.certificate is not None
    assert (out.certificate.k, out.certificate.ell) == (3, 3)
    assert verify_subdivision(cycle_graph(9), out.certificate).passed


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


# sha256 of {"certificate": ..., "entries": ...} (sorted keys) for the
# unit-route hosts of the benchmark at seed 1: the gadget layer must keep
# every certificate and trace byte for byte.
_PINNED_UNIT_ROUTE = {
    80: "0e89a978f5fcc967c1a535a44392bd44493ac6d435d8a2bd87ef0aeec1100020",
    100: "c7228b42b000042b46a169cfad316705c1389d9adf8e0be332e9649904f691ba",
    120: "38fca1f0d8f10caa0f531b7acc3f5a6f0dd12b7ab7f1fed1638ab70d3e27ec07",
    140: "45c024c27b84e51c97733b5e731bfb21dd0660431e80f9cf9b4cbef388311934",
    160: "042da691644ab7c364bf71077073d3b3901e8414e464cc8be8cae8fd8401f052",
}


@pytest.mark.parametrize("n", sorted(_PINNED_UNIT_ROUTE))
def test_unit_route_certificates_are_pinned(n):
    out = top_level(complete_graph(n), RunConfig(seed=1, overrides=Overrides(ell=4)))
    assert out.kind == "certificate"
    doc = {"certificate": out.certificate.to_json_dict(), "entries": list(out.trace.entries)}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == _PINNED_UNIT_ROUTE[n]


# The same digest for the `dense_sweep` hosts and the paper-mode
# `small_exhaustive` hosts of the benchmark at seed 1.  The G(n, p) seeds
# are the ones `random.Random("<workload>/1")` draws for those hosts.
_PINNED_WORKLOAD_HOSTS = {
    "hypercube(8)": (
        lambda: hypercube(8), {},
        "dc26e106b7d1ddf68e382451f842a7605dd03767ed542b42ac22ff43975652d9",
    ),
    "kdd(20,3)": (
        lambda: kdd(20, 3), {},
        "fb98277bc99fb26467539e904161306dd144b7a50eac4317639957c00800853a",
    ),
    "incidence_plane(5)": (
        lambda: incidence_plane(5), {"kappa_rule": "linear"},
        "7c1708d30d212d67bde669e55ed81c713c1a85136a3f7a066111b33b96988007",
    ),
    "complete_bipartite(14,14)": (
        lambda: complete_bipartite(14, 14), {},
        "fbd913f147473e89b055d8c68311d498534d222f089bc3e66c2c15fc27d5da93",
    ),
    "gnp(50,0.3)": (
        lambda: gnp(50, 0.3, 1475198904), {},
        "e8ae79a60578e4bc819f8b9eba6b58d4b40c8306d8c1ea9fd1ef22e185dbaeb1",
    ),
    "paper cycle_graph(12)": (
        lambda: cycle_graph(12), {"mode": "paper"},
        "73bd1a5e3ecbc2371bedf5e5514232337d4dfed26ee483eec07dca8356abd5d2",
    ),
    "paper path_graph(12)": (
        lambda: path_graph(12), {"mode": "paper"},
        "8a3b54ae90c6849130b892d1968a36d328f63f989f6929a78c3e1053f13a70aa",
    ),
    "paper hypercube(3)": (
        lambda: hypercube(3), {"mode": "paper"},
        "8995e9cfc3adf213e9d07fdca432bd5859af04c432b294cdd6b4b86f5f79ed0c",
    ),
    "paper gnp(12,0.45)": (
        lambda: gnp(12, 0.45, 876077723), {"mode": "paper"},
        "1e31f637459317fd6ee87fe2fd48fceaa6d9af40c8a952e3e3e0f096ccce49b0",
    ),
}


@pytest.mark.parametrize("name", list(_PINNED_WORKLOAD_HOSTS))
def test_dense_and_paper_mode_certificates_are_pinned(name):
    make, config, want = _PINNED_WORKLOAD_HOSTS[name]
    out = top_level(make(), RunConfig(seed=1, **config))
    assert out.certificate is not None
    doc = {"certificate": out.certificate.to_json_dict(), "entries": list(out.trace.entries)}
    digest = hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()
    assert digest == want


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


def test_certificate_gates_survive_python_O():
    src = str(Path(balsub.__file__).resolve().parent.parent)
    done = subprocess.run(
        [sys.executable, "-O", "-c", _GATE_SCRIPT],
        env={**os.environ, "PYTHONPATH": src},
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
    assert "transform" in out.trace.probes
    assert any("profile transform" in e for e in out.trace.entries)
    sqrt_out = top_level(
        incidence_plane(3), RunConfig(overrides=Overrides(target_k=2))
    )
    assert "transform" not in sqrt_out.trace.probes


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
        "probe hub: center 0 validated",
        "probe adjuster: cycle of 4 vertices, menu [1, 3]",
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


def test_probes_validated_on_expander():
    out = top_level(complete_graph(20), RunConfig())
    hub = out.trace.probes.get("hub")
    adj = out.trace.probes.get("adjuster")
    assert hub is not None and adj is not None
