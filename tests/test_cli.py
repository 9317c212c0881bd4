"""Command-line behavior: exit codes, JSON shapes, determinism, interop.

Most cases run in-process through main() for speed; byte-determinism and
module-entry checks go through real subprocesses.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from balsub.certify import SubdivisionCertificate, verify_subdivision
from balsub.assemble import Overrides
from balsub.cli import build_parser, main
from balsub.generators import (
    bipartite_gnp,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    from_edge_list,
    gnp,
    hypercube,
    incidence_plane,
    kdd,
    to_edge_list,
)
from balsub.graph import Graph


def run(capsys, argv, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        import io

        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- gen ------------------------------------------------------------------------


def test_gen_families(capsys):
    code, out, _ = run(capsys, ["gen", "kdd", "4", "2"])
    assert code == 0
    g = from_edge_list(out)
    assert (g.n, g.edge_count()) == (16, 32)

    code, out, _ = run(capsys, ["gen", "cycle", "9"])
    assert code == 0
    g9 = from_edge_list(out)
    assert (g9.n, g9.edge_count()) == (9, 9)

    code, out, _ = run(capsys, ["gen", "incidence_plane", "2"])
    assert code == 0
    g = from_edge_list(out)
    assert (g.n, g.edge_count()) == (14, 21)

    code, out, _ = run(capsys, ["gen", "complete", "6"])
    assert from_edge_list(out).edge_count() == 15

    code, out, _ = run(capsys, ["gen", "hypercube", "3"])
    g = from_edge_list(out)
    assert (g.n, g.edge_count()) == (8, 12)


def test_gen_usage_errors(capsys):
    assert run(capsys, ["gen", "gnp", "20", "0.3"])[0] == 2  # no seed
    assert run(capsys, ["gen", "wavelet", "3"])[0] == 2
    assert run(capsys, ["gen", "cycle"])[0] == 2  # arity
    assert run(capsys, ["gen", "cycle", "9", "9"])[0] == 2
    assert run(capsys, ["gen", "incidence_plane", "4"])[0] == 2  # not prime
    assert run(capsys, ["gen", "cycle", "two"])[0] == 2


def test_gen_gnp_deterministic(capsys):
    a = run(capsys, ["gen", "gnp", "20", "0.3", "--seed", "5"])
    b = run(capsys, ["gen", "gnp", "20", "0.3", "--seed", "5"])
    assert a[0] == 0 and a[1] == b[1]
    c = run(capsys, ["gen", "gnp", "20", "0.3", "--seed", "6"])
    assert c[1] != a[1]


# -- find / verify ---------------------------------------------------------------


def test_find_emits_verified_certificate(capsys, tmp_path):
    host = kdd(4, 2)
    path = tmp_path / "kdd.txt"
    path.write_text(to_edge_list(host))
    code, out, _ = run(capsys, ["find", str(path)])
    assert code == 0
    cert = SubdivisionCertificate.from_json_dict(json.loads(out))
    assert cert.k >= 2
    assert verify_subdivision(host, cert).passed


def test_find_reads_stdin(capsys, monkeypatch):
    text = to_edge_list(complete_graph(8))
    code, out, _ = run(capsys, ["find"], stdin_text=text, monkeypatch=monkeypatch)
    assert code == 0
    assert json.loads(out)["ell"] == 2


def test_find_failure_shape(capsys, monkeypatch):
    code, out, _ = run(
        capsys, ["find"], stdin_text="n 0\n", monkeypatch=monkeypatch
    )
    assert code == 1
    body = json.loads(out)
    assert sorted(body) == ["detail", "kind", "reason", "route", "trace"]
    assert body["kind"] == "failure"
    assert body["reason"] == "empty_graph"


def test_find_sparse_is_exit_one(capsys, tmp_path):
    path = tmp_path / "c9.txt"
    path.write_text(to_edge_list(cycle_graph(9)))
    code, out, _ = run(
        capsys, ["find", str(path), "--sparse-threshold", "100"]
    )
    assert code == 1
    assert json.loads(out)["kind"] == "sparse_regime"


def test_find_trace_goes_to_stderr(capsys, tmp_path):
    path = tmp_path / "k8.txt"
    path.write_text(to_edge_list(complete_graph(8)))
    code, out, err = run(capsys, ["find", str(path), "--trace"])
    assert code == 0
    assert "trace:" in err
    json.loads(out)  # stdout stays pure JSON


def test_find_usage_errors(capsys, tmp_path):
    assert run(capsys, ["find", str(tmp_path / "missing.txt")])[0] == 2
    bad = tmp_path / "bad.txt"
    bad.write_text("3 1\n0 9\n")
    assert run(capsys, ["find", str(bad)])[0] == 2


def test_find_exhaustive_cap(capsys, tmp_path):
    path = tmp_path / "k20.txt"
    path.write_text(to_edge_list(complete_graph(20)))
    code, out, err = run(capsys, ["find", str(path), "--trace"])
    assert code == 0
    assert "verdict=certified" in err
    capped = run(capsys, ["find", str(path), "--trace", "--exhaustive-cap", "12"])
    assert capped[0] == 0
    assert "verdict=sampled_ok" in capped[2]
    assert capped[1] == out  # the cap changes the evidence, not the answer


def test_find_defaults_match_the_library():
    args = build_parser().parse_args(["find", "x"])
    assert args.node_budget == Overrides().node_budget
    assert args.exhaustive_cap == Overrides().exhaustive_cap


def test_find_rejects_removed_overrides(capsys, tmp_path):
    path = tmp_path / "k8.txt"
    path.write_text(to_edge_list(complete_graph(8)))
    for flag in ("--override-m", "--override-D", "--override-c"):
        code, out, err = run(capsys, ["find", str(path), flag, "5"])
        assert code == 2 and out == ""
        assert "unrecognized arguments" in err


@pytest.mark.parametrize(
    "flag, values",
    [
        ("--epsilon1", ["0", "-1", "nan", "inf"]),
        ("--epsilon2", ["0", "-1", "nan", "inf"]),
        ("--override-ell", ["0", "-2"]),
        ("--node-budget", ["-1"]),
        ("--target-k", ["-1", "0", "1"]),
        ("--exhaustive-cap", ["-1"]),
        ("--sparse-threshold", ["nan", "-1", "inf"]),
    ],
)
def test_find_rejects_bad_run_parameters(capsys, tmp_path, flag, values):
    path = tmp_path / "k6.txt"
    path.write_text(to_edge_list(complete_graph(6)))
    for value in values:
        code, out, err = run(capsys, ["find", str(path), f"{flag}={value}"])
        assert (code, out) == (2, ""), value
        assert err.startswith("error: ") and "Traceback" not in err


def test_verify_round_trip(capsys, tmp_path):
    host = complete_graph(8)
    gpath = tmp_path / "g.txt"
    gpath.write_text(to_edge_list(host))
    code, out, _ = run(capsys, ["find", str(gpath)])
    assert code == 0
    cpath = tmp_path / "cert.json"
    cpath.write_text(out)
    code, _, err = run(capsys, ["verify", str(gpath), str(cpath)])
    assert code == 0
    assert "ok: branch_distinct" in err
    assert "FAIL" not in err

    # tamper: claim a different uniform length
    payload = json.loads(out)
    payload["ell"] += 1
    cpath.write_text(json.dumps(payload))
    code, _, err = run(capsys, ["verify", str(gpath), str(cpath)])
    assert code == 1
    assert "FAIL: uniform_length" in err


def test_verify_usage_errors(capsys, tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text(to_edge_list(complete_graph(4)))
    broken = tmp_path / "broken.json"
    broken.write_text("{not json")
    assert run(capsys, ["verify", str(gpath), str(broken)])[0] == 2
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert run(capsys, ["verify", str(gpath), str(empty)])[0] == 2
    assert run(capsys, ["verify", str(tmp_path / "no.txt"), str(broken)])[0] == 2


# -- expander ---------------------------------------------------------------------


def test_expander_certified(capsys, tmp_path):
    path = tmp_path / "k6.txt"
    path.write_text(to_edge_list(complete_graph(6)))
    code, out, _ = run(
        capsys, ["expander", str(path), "--k", "2", "--epsilon1", "0.5"]
    )
    assert code == 0
    body = json.loads(out)
    assert body["status"] == "certified"
    assert body["witness"] is None
    assert body["flags"]["epsilon1"] == 0.5


def test_expander_refuted(capsys, tmp_path):
    # two disjoint K4s: either K4 is a non-expanding half
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    edges += [(u + 4, v + 4) for u, v in edges]
    path = tmp_path / "two_k4.txt"
    path.write_text(to_edge_list(Graph(8, edges)))
    code, out, _ = run(capsys, ["expander", str(path), "--k", "2"])
    assert code == 1
    body = json.loads(out)
    assert body["status"] == "refuted"
    assert body["witness"] == [0, 1, 2, 3]


def test_expander_sampled_needs_seed(capsys, tmp_path):
    path = tmp_path / "k6.txt"
    path.write_text(to_edge_list(complete_graph(6)))
    assert (
        run(capsys, ["expander", str(path), "--k", "2", "--mode", "sampled"])[0]
        == 2
    )
    code, out, _ = run(
        capsys,
        ["expander", str(path), "--k", "2", "--mode", "sampled", "--seed", "3"],
    )
    assert code == 0
    assert json.loads(out)["status"] == "sampled_ok"


def test_expander_sampled_on_an_empty_size_range(capsys, tmp_path):
    # ceil(23/2) = 12 > 23 // 2: no set size to check, in either mode
    path = tmp_path / "k23.txt"
    path.write_text(to_edge_list(complete_graph(23)))
    for mode in ("sampled", "exhaustive"):
        code, out, _ = run(
            capsys,
            ["expander", str(path), "--k", "23", "--mode", mode, "--seed", "0"],
        )
        assert code == 0
        body = json.loads(out)
        assert (body["status"], body["sets_checked"]) == ("certified", 0)


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "nan"],
        ["--k", "inf"],
        ["--k", "2", "--epsilon1", "nan"],
        ["--k", "2", "--epsilon1", "inf"],
        ["--k", "2", "--mode", "sampled", "--seed", "0", "--trials", "-5"],
    ],
)
def test_expander_rejects_bad_parameters(capsys, tmp_path, flags):
    path = tmp_path / "k6.txt"
    path.write_text(to_edge_list(complete_graph(6)))
    code, out, err = run(capsys, ["expander", str(path), *flags])
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


# -- gadget -----------------------------------------------------------------------


def test_gadget_adjuster_menu(capsys, tmp_path):
    path = tmp_path / "c6.txt"
    path.write_text(to_edge_list(cycle_graph(6)))
    code, out, _ = run(
        capsys,
        ["gadget", "build", "adjuster", str(path), "--size", "1", "--m", "1"],
    )
    assert code == 0
    body = json.loads(out)
    assert body["menu"] == [2, 4]
    assert body["base_length"] == 2
    assert body["report"]["passed"] is True


# sha256 of the exit code and standard output of `gadget build adjuster`
# over every (--size, --m, --c4) case below, per host, as printed when the
# menu was confirmed by searching G[A + cores] for every length: printing
# the menu the adjuster claims must give the same bytes.
_ADJUSTER_CASES = [
    (size, m, c4) for size, m in ((1, 1), (1, 2), (3, 2), (2, 3)) for c4 in (False, True)
]
_ADJUSTER_HOSTS = {
    "cycle 6": lambda: cycle_graph(6),
    "cycle 14": lambda: cycle_graph(14),
    "incidence_plane 2": lambda: incidence_plane(2),
    "hypercube 3": lambda: hypercube(3),
    "K_3,4": lambda: complete_bipartite(3, 4),
    "kdd 4 2": lambda: kdd(4, 2),
    "K_7": lambda: complete_graph(7),
    "gnp 16 0.25 3": lambda: gnp(16, 0.25, 3),
    "gnp 24 0.1 5": lambda: gnp(24, 0.1, 5),
}
_PINNED_ADJUSTER_BUILDS = {
    "K_3,4": "4470dc574419b8d6a38356ff58ce68f9fe0969dfc4a6d6ed0ae9fe5a05dbe818",
    "K_7": "cf9c9e9fd9b6094ad1dd3fb5ab7d3309681617c16d6a7eae6fd91025386634cd",
    "cycle 14": "6a711399120cba5e4fefdc5b831152c00ce4b36daf646f1eafcc4fbff5baa785",
    "cycle 6": "4eb251eb24507d615b1506bbc4d0bde4f5467286a74df846685ed8c62290197b",
    "gnp 16 0.25 3": "2a2b3f68613e10c4e98747dd8b701c69dd76fa320d3507b72375a8cf13e00d12",
    "gnp 24 0.1 5": "8a5b412b1adb597c80799252863605769fe26338b50ae2808c57c44ffd6e55a8",
    "hypercube 3": "4bb680421c15756b24d2f3ec6fcd8ef2f977036684fc8e2f5da94e538cace433",
    "incidence_plane 2": "73f4a47350caa7ce4554ad4cdf39710cb8349231471a7934cbbf0cea4610bd8d",
    "kdd 4 2": "2695dcc8b1aa4bc30599b6f24adaa1b02611b5986de77d2089edbd210bce5d17",
}


@pytest.mark.parametrize("host", sorted(_ADJUSTER_HOSTS))
def test_gadget_build_adjuster_output_is_pinned(capsys, tmp_path, host):
    path = tmp_path / "host.txt"
    path.write_text(to_edge_list(_ADJUSTER_HOSTS[host]()))
    digest = hashlib.sha256()
    for size, m, c4 in _ADJUSTER_CASES:
        argv = ["gadget", "build", "adjuster", str(path), "--size", str(size),
                "--m", str(m)] + (["--c4"] if c4 else [])
        code, out, _ = run(capsys, argv)
        digest.update(f"{code}\n{out}".encode())
    assert digest.hexdigest() == _PINNED_ADJUSTER_BUILDS[host]


# sha256 of the exit code, standard output and standard error of every
# command of a group below, in order, as printed while `gen` and `gadget`
# still picked their family and kind in if-chains.  HOST names a file of
# `_CLI_HOSTS` and REC a file of `_CLI_RECORDS` (made by the group's first
# commands when the entry is a command); the temporary folder prints as TMP.
# The unit group's digest was re-taken when unit output stopped recording
# a "c4" flag, which a unit never reads; nothing else in its output moved.
_CLI_HOSTS = {
    "k6": lambda: complete_graph(6),
    "k10": lambda: complete_graph(10),
    "k40": lambda: complete_graph(40),
    "c6": lambda: cycle_graph(6),
    "p8": lambda: Graph(8, [(i, i + 1) for i in range(7)]),
    "kb": lambda: complete_bipartite(3, 3),
    "bip": lambda: bipartite_gnp(60, 60, 0.5, 11)[0],
}
_HUB_K10 = {"kind": "hub", "center": 0, "first_layer": [1, 2, 3],
            "second_layers": [[1, [4, 5]], [2, [6, 7]], [3, [8, 9]]]}
_CLI_RECORDS = {
    "hub": json.dumps(_HUB_K10),
    "hub_no_center": json.dumps({k: v for k, v in _HUB_K10.items() if k != "center"}),
    "hub_bad_center": json.dumps({**_HUB_K10, "center": "zero"}),
    "hub_bad_layers": json.dumps({**_HUB_K10, "second_layers": [[1]]}),
    "list": "[1, 2]",
    "not_json": "{",
    "unit_no_core": json.dumps({"hubs": [], "spokes": [], "spoke_cap": 1}),
    "unit_bad_hub": json.dumps(
        {"core": 0, "hubs": [{"center": 1}], "spokes": [], "spoke_cap": 1}
    ),
    "unit_bad_spoke": json.dumps(
        {"core": 0, "hubs": [_HUB_K10], "spokes": [[0, "x"]], "spoke_cap": 1}
    ),
    "unit_looped_spoke": json.dumps(
        {"core": 0, "hubs": [_HUB_K10], "spokes": [[0, 1, 0]], "spoke_cap": 1}
    ),
    "adjuster_bad_end": json.dumps(
        {"core1": 0, "core2": 3, "end1": {"anchor": 0, "vertices": [0]},
         "end2": {"anchor": 3, "vertices": [3], "radius": 0}, "center": [1, 2],
         "base_length": 3, "steps": 1, "m": 1}
    ),
}
_DRC = ["--t", "2", "--r", "1", "--c", "2", "--a", "1", "--seed", "1"]
_CLI_GROUPS = {
    "gen": [
        ["gen", "gnp", "20", "0.3", "--seed", "3"],
        ["gen", "kdd", "4", "2"],
        ["gen", "hypercube", "3"],
        ["gen", "cycle", "9"],
        ["gen", "incidence_plane", "2"],
        ["gen", "incidence-plane", "3"],
        ["gen", "complete", "6"],
        ["gen", "wavelet", "3"],
        ["gen", "incidence-planes", "3"],
        ["gen", "cycle"],
        ["gen", "cycle", "9", "9"],
        ["gen", "gnp", "20"],
        ["gen", "gnp", "20", "0.3"],
        ["gen", "gnp", "x", "0.3"],
        ["gen", "gnp", "20", "1.5", "--seed", "1"],
        ["gen", "gnp", "x", "0.3", "--seed", "1"],
        ["gen", "gnp", "20", "half", "--seed", "1"],
        ["gen", "kdd", "0", "2"],
        ["gen", "kdd", "4", "two"],
        ["gen", "hypercube", "-1"],
        ["gen", "cycle", "2"],
        ["gen", "cycle", "two"],
        ["gen", "incidence_plane", "4"],
        ["gen", "complete", "0"],
        ["gen", "complete", "2.5"],
        ["gen", "complete", "3", "--seed", "4"],
    ],
    "gadget hub": [
        ["gadget", "build", "hub", "HOST/k10", "--h1", "3", "--h2", "2"],
        ["gadget", "build", "hub", "HOST/k10", "--h1", "3", "--h2", "2", "--c4"],
        ["gadget", "build", "hub", "HOST/k10", "--h1", "2", "--h2", "1",
         "--avoid", "0,3"],
        ["gadget", "build", "hub", "HOST/c6", "--h1", "3", "--h2", "2"],
        ["gadget", "build", "hub", "HOST/k10", "--h1", "0", "--h2", "2"],
        ["gadget", "build", "hub", "HOST/k10", "--h1", "2"],
        ["gadget", "build", "hub", "HOST/k10", "--h2", "2"],
        ["gadget", "build", "hub", "HOST/k10", "--h1", "2", "--h2", "1",
         "--avoid", "1,x"],
        ["gadget", "build", "hub", "HOST/k10", "--h1", "2", "--h2", "1",
         "--avoid", "12"],
        ["gadget", "build", "hub", "HOST/none", "--h1", "2", "--h2", "1"],
        ["gadget", "check", "hub", "HOST/k10", "--record", "REC/hub"],
        ["gadget", "check", "hub", "HOST/c6", "--record", "REC/hub"],
        ["gadget", "check", "hub", "HOST/k10"],
        ["gadget", "check", "hub", "HOST/k10", "--record", "REC/none"],
        ["gadget", "check", "hub", "HOST/k10", "--record", "REC/not_json"],
        ["gadget", "check", "hub", "HOST/k10", "--record", "REC/list"],
        ["gadget", "check", "hub", "HOST/k10", "--record", "REC/hub_no_center"],
        ["gadget", "check", "hub", "HOST/k10", "--record", "REC/hub_bad_center"],
        ["gadget", "check", "hub", "HOST/k10", "--record", "REC/hub_bad_layers"],
    ],
    "gadget unit": [
        ["gadget", "build", "unit", "HOST/k40", "--h0", "2", "--h1", "2",
         "--h2", "1", "--h3", "4"],
        ["gadget", "build", "unit", "HOST/k40", "--h0", "1", "--h1", "1",
         "--h2", "1", "--h3", "2", "--avoid", "0,1,2"],
        ["gadget", "build", "unit", "HOST/c6", "--h0", "2", "--h1", "2",
         "--h2", "1", "--h3", "4"],
        ["gadget", "build", "unit", "HOST/k40", "--h0", "0", "--h1", "2",
         "--h2", "1", "--h3", "4"],
        ["gadget", "build", "unit", "HOST/k40", "--h0", "2", "--h1", "2",
         "--h2", "1"],
        ["gadget", "build", "unit", "HOST/k40", "--h1", "2", "--h2", "1",
         "--h3", "4"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/unit"],
        ["gadget", "check", "unit", "HOST/k10", "--record", "REC/unit"],
        ["gadget", "check", "unit", "HOST/k40"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/list"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/not_json"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/hub"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/unit_no_core"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/unit_bad_hub"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/unit_bad_spoke"],
        ["gadget", "check", "unit", "HOST/k40", "--record", "REC/unit_looped_spoke"],
    ],
    "gadget adjuster": [
        ["gadget", "build", "adjuster", "HOST/c6", "--size", "1", "--m", "1"],
        ["gadget", "build", "adjuster", "HOST/p8", "--size", "1", "--m", "1"],
        ["gadget", "build", "adjuster", "HOST/c6", "--size", "1"],
        ["gadget", "build", "adjuster", "HOST/c6", "--m", "1"],
        ["gadget", "check", "adjuster", "HOST/c6", "--record", "REC/adjuster"],
        ["gadget", "check", "adjuster", "HOST/k6", "--record", "REC/adjuster"],
        ["gadget", "check", "adjuster", "HOST/c6", "--record", "REC/hub"],
        ["gadget", "check", "adjuster", "HOST/c6", "--record", "REC/list"],
        ["gadget", "check", "adjuster", "HOST/c6", "--record", "REC/adjuster_bad_end"],
        ["gadget", "check", "adjuster", "HOST/c6"],
    ],
    "drc": [
        ["drc", "HOST/kb"] + _DRC,
        ["drc", "HOST/kb"] + _DRC + ["--max-retries", "0"],
        ["drc", "HOST/bip", "--t", "3", "--r", "2", "--c", "5", "--a", "3",
         "--seed", "0", "--n1", "60"],
        ["drc", "HOST/bip", "--t", "3", "--r", "2", "--c", "500", "--a", "3",
         "--seed", "0", "--n1", "60"],
        ["drc", "HOST/kb", "--t", "0", "--r", "1", "--c", "2", "--a", "1",
         "--seed", "1"],
        ["drc", "HOST/k6"] + _DRC,
        ["drc", "HOST/k6"] + _DRC + ["--n1", "3"],
        ["drc", "HOST/kb"] + _DRC + ["--n1", "0"],
        ["drc", "HOST/kb"] + _DRC + ["--max-retries", "-1"],
        ["drc", "HOST/none"] + _DRC,
    ],
}
# commands whose standard output becomes a record before the group runs
_CLI_RECORD_BUILDS = {
    "unit": ["gadget", "build", "unit", "HOST/k40", "--h0", "2", "--h1", "2",
             "--h2", "1", "--h3", "4"],
    "adjuster": ["gadget", "build", "adjuster", "HOST/c6", "--size", "1", "--m", "1"],
}
_PINNED_CLI_GROUPS = {
    "gen": "f3ea9d32e125b90d073a5a5eb7d077e40d6ffe1aa7213ccd45826063a621cf12",
    "gadget hub": "b5b422b2b0d3dd33830a55ff9dda10e610f5445dd297dc2d6467bb85dd0bfcbd",
    "gadget unit": "a639bd6aa34e5eea36898599b25972b9ea32327d10612589cadf7eeb9e33a269",
    "gadget adjuster": "b97224e562ebf2d2a54b87cf94ac490dacc4f2c43b25aaf0314580386c04becc",
    "drc": "79491669a1b4fc9d8c313743cf671a5030d5f971ef9bc36aac04f6dda9ce7d8a",
}


@pytest.mark.parametrize("group", sorted(_CLI_GROUPS))
def test_cli_output_is_pinned(capsys, tmp_path, group):
    (tmp_path / "host").mkdir()
    (tmp_path / "rec").mkdir()
    for name, make in _CLI_HOSTS.items():
        (tmp_path / "host" / name).write_text(to_edge_list(make()))
    for name, text in _CLI_RECORDS.items():
        (tmp_path / "rec" / name).write_text(text)

    def resolve(argv):
        return [
            a.replace("HOST/", f"{tmp_path}/host/").replace("REC/", f"{tmp_path}/rec/")
            for a in argv
        ]

    for name, argv in _CLI_RECORD_BUILDS.items():
        code, out, _ = run(capsys, resolve(argv))
        assert code == 0
        (tmp_path / "rec" / name).write_text(out)
    digest = hashlib.sha256()
    for argv in _CLI_GROUPS[group]:
        code, out, err = run(capsys, resolve(argv))
        text = f"{code}\n{out}\n{err}".replace(str(tmp_path), "TMP")
        digest.update(text.encode())
    assert digest.hexdigest() == _PINNED_CLI_GROUPS[group]


def test_gadget_input_flag_and_stdin(capsys, tmp_path, monkeypatch):
    # the graph comes from the positional path or, without one, from stdin;
    # there is no --input flag
    text = to_edge_list(cycle_graph(6))
    path = tmp_path / "c6.txt"
    path.write_text(text)
    via_path = run(
        capsys,
        ["gadget", "build", "adjuster", str(path), "--size", "1", "--m", "1"],
    )
    via_stdin = run(
        capsys,
        ["gadget", "build", "adjuster", "--size", "1", "--m", "1"],
        stdin_text=text,
        monkeypatch=monkeypatch,
    )
    assert via_path[0] == via_stdin[0] == 0
    assert via_path[1] == via_stdin[1]
    assert run(
        capsys,
        ["gadget", "build", "adjuster", "--size", "1", "--m", "1",
         "--input", str(path)],
    )[0] == 2


def test_gadget_hub_build_check_round_trip(capsys, tmp_path):
    gpath = tmp_path / "k10.txt"
    gpath.write_text(to_edge_list(complete_graph(10)))
    code, out, _ = run(
        capsys,
        ["gadget", "build", "hub", str(gpath), "--h1", "3", "--h2", "2"],
    )
    assert code == 0
    body = json.loads(out)
    record = tmp_path / "hub.json"
    record.write_text(json.dumps(body))
    code, out, _ = run(
        capsys,
        ["gadget", "check", "hub", str(gpath), "--record", str(record)],
    )
    assert code == 0
    assert json.loads(out)["passed"] is True

    # check against a host where the record cannot hold
    small = tmp_path / "c6.txt"
    small.write_text(to_edge_list(cycle_graph(6)))
    code, out, _ = run(
        capsys,
        ["gadget", "check", "hub", str(small), "--record", str(record)],
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_gadget_unit_build_check_round_trip(capsys, tmp_path):
    gpath = tmp_path / "k40.txt"
    gpath.write_text(to_edge_list(complete_graph(40)))
    code, out, _ = run(
        capsys,
        ["gadget", "build", "unit", str(gpath),
         "--h0", "2", "--h1", "2", "--h2", "1", "--h3", "4"],
    )
    assert code == 0
    body = json.loads(out)
    assert body["report"]["passed"] is True
    record = tmp_path / "unit.json"

    def check(unit):
        record.write_text(json.dumps(unit))
        return run(
            capsys,
            ["gadget", "check", "unit", str(gpath), "--record", str(record)],
        )

    code, out, _ = check(body)
    assert code == 0
    assert json.loads(out)["passed"] is True

    # a spoke that no longer ends at its hub's centre
    moved = json.loads(json.dumps(body))
    moved["spokes"][0][-1] = 99
    code, out, _ = check(moved)
    assert code == 1
    assert json.loads(out)["passed"] is False

    # a spoke that repeats a vertex is not a path at all
    looped = json.loads(json.dumps(body))
    spoke = looped["spokes"][0]
    looped["spokes"][0] = spoke + [spoke[0]]
    code, out, err = check(looped)
    assert (code, out) == (2, "")
    assert err.startswith("error: malformed unit record")
    assert "Traceback" not in err


def test_gadget_check_hub_with_ids_outside_the_host(capsys, tmp_path):
    # centre -1 must not read as vertex 9, whose neighbours are 1, 2, 3
    gpath = tmp_path / "k10.txt"
    gpath.write_text(to_edge_list(complete_graph(10)))
    record = tmp_path / "hub.json"
    record.write_text(json.dumps({
        "kind": "hub",
        "center": -1,
        "first_layer": [1, 2, 3],
        "second_layers": [[1, [4, 5]], [2, [6, 7]], [3, [8, 99]]],
    }))
    code, out, err = run(
        capsys,
        ["gadget", "check", "hub", str(gpath), "--record", str(record)],
    )
    assert (code, err) == (1, "")
    clauses = {c["name"]: c["passed"] for c in json.loads(out)["clauses"]}
    assert clauses["first_layer_adjacent"] is False
    assert clauses["second_layer_adjacent"] is False


def test_gadget_check_reports_an_anchor_outside_the_host(capsys, tmp_path):
    gpath = tmp_path / "c6.txt"
    gpath.write_text(to_edge_list(cycle_graph(6)))
    _, out, _ = run(
        capsys,
        ["gadget", "build", "adjuster", str(gpath), "--size", "1", "--m", "1"],
    )
    body = json.loads(out)
    body["end1"]["anchor"] = 99
    record = tmp_path / "adjuster.json"
    record.write_text(json.dumps(body))
    code, out, _ = run(
        capsys,
        ["gadget", "check", "adjuster", str(gpath), "--record", str(record)],
    )
    assert code == 1
    assert json.loads(out)["passed"] is False


def test_gadget_check_reports_a_core_outside_the_host(capsys, tmp_path):
    gpath = tmp_path / "c6.txt"
    gpath.write_text(to_edge_list(cycle_graph(6)))
    _, out, _ = run(
        capsys,
        ["gadget", "build", "adjuster", str(gpath), "--size", "1", "--m", "1"],
    )
    body = json.loads(out)
    body["core1"] = 99
    record = tmp_path / "adjuster.json"
    record.write_text(json.dumps(body))
    code, out, err = run(
        capsys,
        ["gadget", "check", "adjuster", str(gpath), "--record", str(record)],
    )
    assert (code, out) == (2, "")
    assert err == "error: vertex 99 outside 0..5\n"


def test_gadget_check_reports_equal_cores(capsys, tmp_path):
    gpath = tmp_path / "c6.txt"
    gpath.write_text(to_edge_list(cycle_graph(6)))
    _, out, _ = run(
        capsys,
        ["gadget", "build", "adjuster", str(gpath), "--size", "1", "--m", "1"],
    )
    body = json.loads(out)
    body["core2"] = body["core1"] = 0
    record = tmp_path / "adjuster.json"
    record.write_text(json.dumps(body))
    code, out, err = run(
        capsys,
        ["gadget", "check", "adjuster", str(gpath), "--record", str(record)],
    )
    assert (code, err) == (1, "")
    clauses = {c["name"]: c["passed"] for c in json.loads(out)["clauses"]}
    assert clauses["a1_disjoint"] is False
    assert clauses["a4_menu"] is False


def test_gadget_build_reports_an_avoid_vertex_outside_the_host(capsys, tmp_path):
    gpath = tmp_path / "c6.txt"
    gpath.write_text(to_edge_list(cycle_graph(6)))
    code, out, err = run(
        capsys,
        ["gadget", "build", "hub", str(gpath), "--h1", "1", "--h2", "1",
         "--avoid", "99"],
    )
    assert (code, out) == (2, "")
    assert err == "error: vertex 99 outside 0..5\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["find", "GRAPH"],
        ["verify", "GRAPH", "GRAPH"],
        ["expander", "GRAPH", "--k", "1"],
        ["drc", "GRAPH", "--t", "1", "--r", "1", "--c", "1", "--a", "1", "--seed", "1"],
        ["gadget", "build", "hub", "GRAPH", "--h1", "1", "--h2", "1"],
    ],
    ids=["find", "verify", "expander", "drc", "gadget"],
)
def test_edge_outside_the_vertex_count_is_a_usage_error(capsys, tmp_path, argv):
    gpath = tmp_path / "bad.txt"
    gpath.write_text("n 3\n0 5\n")
    code, out, err = run(capsys, [str(gpath) if a == "GRAPH" else a for a in argv])
    assert (code, out) == (2, "")
    assert err == "error: edge (0, 5) outside 0..2\n"


def test_gadget_build_failure_shape(capsys, tmp_path):
    path = tmp_path / "p8.txt"
    path.write_text(to_edge_list(Graph(8, [(i, i + 1) for i in range(7)])))
    code, out, _ = run(
        capsys,
        ["gadget", "build", "adjuster", str(path), "--size", "1", "--m", "1"],
    )
    assert code == 1
    body = json.loads(out)
    assert body["failure"] == "acyclic"
    assert body["flags"]["gadget"] == "adjuster"


def test_gadget_usage_errors(capsys, tmp_path):
    path = tmp_path / "k6.txt"
    path.write_text(to_edge_list(complete_graph(6)))
    assert run(capsys, ["gadget", "build", "hub", str(path), "--h1", "2"])[0] == 2
    assert run(
        capsys, ["gadget", "build", "unit", str(path), "--h0", "1", "--h1", "1"]
    )[0] == 2
    assert run(capsys, ["gadget", "check", "hub", str(path)])[0] == 2
    # a unit has no 4-cycle mode, so --c4 is refused rather than ignored
    code, out, err = run(
        capsys,
        ["gadget", "build", "unit", str(path), "--h0", "1", "--h1", "1",
         "--h2", "1", "--h3", "2", "--c4"],
    )
    assert (code, out, err) == (2, "", "error: a unit takes no --c4\n")
    # a size flag that the action and kind do not read is refused by name
    for argv, flag in (
        (["build", "hub", "--h1", "2", "--h2", "1", "--size", "5", "--m", "9"], "size"),
        (["build", "hub", "--h0", "1", "--h1", "2", "--h2", "1"], "h0"),
        (["build", "unit", "--h0", "1", "--h1", "1", "--h2", "1", "--h3", "2",
          "--m", "1"], "m"),
        (["build", "adjuster", "--size", "1", "--m", "1", "--h3", "2"], "h3"),
        (["check", "hub", "--h1", "3"], "h1"),
        (["check", "adjuster", "--size", "1"], "size"),
    ):
        action, kind = argv[:2]
        code, out, err = run(capsys, ["gadget", *argv[:2], str(path), *argv[2:]])
        assert (code, out, err) == (
            2, "", f"error: {kind} {action} takes no --{flag}\n"
        ), argv
    assert run(
        capsys,
        ["gadget", "build", "hub", str(path), "--h1", "2", "--h2", "1",
         "--avoid", "1,два"],
    )[0] == 2
    # argparse lists the kinds in the order the parser declares them
    code, out, err = run(capsys, ["gadget", "build", "widget", str(path)])
    assert (code, out) == (2, "")
    assert err.index("'hub'") < err.index("'unit'") < err.index("'adjuster'")


# -- drc --------------------------------------------------------------------------


def test_drc_selection(capsys, tmp_path):
    g, _sides = bipartite_gnp(60, 60, 0.5, 11)
    path = tmp_path / "b.txt"
    path.write_text(to_edge_list(g))
    code, out, _ = run(
        capsys,
        ["drc", str(path), "--t", "3", "--r", "2", "--c", "5", "--a", "3",
         "--seed", "0", "--n1", "60"],
    )
    assert code == 0
    body = json.loads(out)
    assert body["size"] >= 3
    assert body["a0"] == sorted(body["a0"])
    assert all(0 <= v < 60 for v in body["a0"])


def test_drc_two_coloring_fallback(capsys, tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text(to_edge_list(complete_bipartite(3, 3)))
    code, out, _ = run(
        capsys,
        ["drc", str(path), "--t", "2", "--r", "1", "--c", "2", "--a", "1",
         "--seed", "1"],
    )
    assert code == 0
    assert json.loads(out)["a0"] == [0, 1, 2]


def test_drc_usage_errors(capsys, tmp_path):
    kpath = tmp_path / "k4.txt"
    kpath.write_text(to_edge_list(complete_graph(4)))
    args = ["--t", "1", "--r", "1", "--c", "1", "--a", "1", "--seed", "0"]
    assert run(capsys, ["drc", str(kpath)] + args)[0] == 2  # not bipartite
    bpath = tmp_path / "kb.txt"
    bpath.write_text(to_edge_list(complete_bipartite(3, 3)))
    assert run(capsys, ["drc", str(bpath)] + args + ["--n1", "0"])[0] == 2
    assert run(capsys, ["drc", str(bpath)] + args + ["--n1", "6"])[0] == 2
    # missing --seed is an argparse error
    assert run(
        capsys,
        ["drc", str(bpath), "--t", "1", "--r", "1", "--c", "1", "--a", "1"],
    )[0] == 2


def test_drc_rejects_negative_retries(capsys, tmp_path):
    path = tmp_path / "kb.txt"
    path.write_text(to_edge_list(complete_bipartite(3, 3)))
    args = ["drc", str(path), "--t", "2", "--r", "1", "--c", "2", "--a", "1",
            "--seed", "1", "--max-retries"]
    code, out, err = run(capsys, args + ["-1"])
    assert (code, out) == (2, "")
    assert err == "error: --max-retries must be >= 0\n"
    # zero retries is allowed: it makes no attempt and reports that
    code, out, _ = run(capsys, args + ["0"])
    assert code == 1
    assert json.loads(out)["failure"] == "retries_exhausted"


# -- process-level checks ----------------------------------------------------------


def _module_run(env, argv, stdin_bytes=b""):
    return subprocess.run(
        [sys.executable, "-m", "balsub", *argv],
        input=stdin_bytes,
        capture_output=True,
        env=env,
    )


def test_module_entry_byte_determinism(src_env):
    host = to_edge_list(kdd(4, 2)).encode()
    first = _module_run(src_env, ["find"], stdin_bytes=host)
    second = _module_run(src_env, ["find"], stdin_bytes=host)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout

    gen1 = _module_run(src_env, ["gen", "gnp", "30", "0.4", "--seed", "9"])
    gen2 = _module_run(src_env, ["gen", "gnp", "30", "0.4", "--seed", "9"])
    assert gen1.stdout == gen2.stdout and gen1.returncode == 0


def test_module_entry_requires_subcommand(src_env):
    out = _module_run(src_env, [])
    assert out.returncode == 2


def test_cli_demo_runs(src_env):
    # every demo, so that one importing a deleted name fails here
    root = Path(__file__).resolve().parent.parent
    for runner, demo in (
        ("sh", "cli_demo.sh"),
        (sys.executable, "gadget_demo.py"),
        (sys.executable, "pipeline_demo.py"),
    ):
        out = subprocess.run(
            [runner, str(root / "demos" / demo)], env=src_env, capture_output=True
        )
        assert out.returncode == 0, (demo, out.stderr.decode())
