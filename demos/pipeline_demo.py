"""End-to-end walkthrough: host graphs in, verified certificates out.

Runs the full pipeline on three very different hosts and prints the route
taken, the trace, and the certificate summary for each.

    python3 demos/pipeline_demo.py
"""

from balsub.assemble import RunConfig, top_level
from balsub.certify import verify_subdivision
from balsub.generators import complete_graph, incidence_plane, kdd


def show(name, g, cfg):
    print(f"== {name} (n={g.n}, m={g.edge_count()}) " + "=" * 20)
    outcome = top_level(g, cfg)
    for line in outcome.trace.entries:
        print(f"   trace | {line}")
    print(f"  outcome: {outcome.kind} (route: {outcome.trace.route or '-'})")
    cert = outcome.certificate
    if cert is None:
        print("  no certificate for this host\n")
        return
    k = len(cert.branch)
    print(f"  certificate: TK_{k} with every edge a path of {cert.ell} edges")
    print(f"  branch vertices: {list(cert.branch)}")
    report = verify_subdivision(g, cert)
    print(f"  independent re-verification: passed={report.passed}\n")


if __name__ == "__main__":
    desk = RunConfig(mode="desk", seed=0)

    # two disjoint complete bipartite blocks; the dense route wins
    show("two K_{9,9} blocks", kdd(9, 2), desk)

    # a complete graph; densest possible host
    show("K_12", complete_graph(12), desk)

    # point-line incidence graph of a projective plane: no 4-cycles at all,
    # so it runs under the linear rule, which sets the profile's
    # k = epsilon2 * (d/8)^2 and records the s = t = 2 transform in the trace
    show(
        "incidence plane q=5",
        incidence_plane(5),
        RunConfig(mode="desk", kappa_rule="linear", seed=0),
    )
