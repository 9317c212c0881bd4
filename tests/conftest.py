import inspect
import sys
from contextlib import contextmanager

import pytest

from balsub.gadgets import Adjuster, Expansion
from balsub.graph import Graph

_ACCEPTANCE_LABELS = {
    "test_ac1_two_block_hosts": "AC-1 two-block extremal hosts",
    "test_ac2_dense_fallback": "AC-2 dense two-subdivision fallback",
    "test_ac3_oracle_equivalence": "AC-3 oracle equivalence on 200 tiny hosts",
    "test_ac4_expander_contracts": "AC-4 extraction contracts and verifier agreement",
    "test_ac5_drc_guarantee": "AC-5 dependent random choice guarantee",
    "test_ac6_c4_free_route": "AC-6 four-cycle-free route on incidence planes",
    "test_ac7_gadget_round_trip": "AC-7 gadget round-trip and violation detection",
    "test_ac8_formula_regression": "AC-8 formula regression",
    "test_ac9_determinism": "AC-9 byte-identical command output",
}


def pytest_runtest_logreport(report):
    """One checklist line per acceptance criterion."""
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    label = _ACCEPTANCE_LABELS.get(name)
    if label is not None:
        verdict = "pass" if report.passed else "fail"
        print(f"\n{label}: {verdict}", flush=True)


@pytest.fixture
def shallow_stack():
    """A context manager that allows only 150 frames beyond its caller's
    depth, restoring the limit after: a search that recurses once per
    branch pair of a large clique overruns it, one with a bounded depth
    does not."""

    @contextmanager
    def shallow():
        old = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 150)
        try:
            yield
        finally:
            sys.setrecursionlimit(old)

    return shallow


@pytest.fixture
def chain_of_four():
    """Four hexagons 0-5, 6-11, 12-17, 18-23 bridged 2-6, 8-12, 14-18, and
    the four-step adjuster between vertices 0 and 20 whose centre is all 22
    other vertices: each hexagon offers a short and a long way across."""
    edges = [(b + i, b + (i + 1) % 6) for b in (0, 6, 12, 18) for i in range(6)]
    g = Graph(24, edges + [(2, 6), (8, 12), (14, 18)])
    adj = Adjuster(
        core1=0,
        core2=20,
        end1=Expansion(0, frozenset({0}), 0),
        end2=Expansion(20, frozenset({20}), 0),
        center=frozenset(range(24)) - {0, 20},
        base_length=11,
        steps=4,
        m=1,
    )
    return g, adj
