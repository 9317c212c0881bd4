"""Command-line surface: graph generation, the subdivision pipeline,
certificate verification, and gadget inspection.

Every command is deterministic under explicit flags and seeds: JSON output
uses fixed key order, reals are rounded to 9 decimal places, and seeds
have no wall-clock fallback.  Exit codes: 0 success with certificate or
structure, 1 structured failure or a stdout its reader closed, 2 usage or
parse error.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import sys
from typing import Any, Callable, Sequence

from .assemble import Overrides, PipelineOutcome, RunConfig, top_level
from .certify import SubdivisionCertificate, verify_subdivision
from .drc import NODE_BUDGET, DrcParams, drc_select
from .expander import EXHAUSTIVE_CAP, ExpansionProfile, verify_expander
from .gadgets import (
    Adjuster,
    Expansion,
    Hub,
    Unit,
    build_hub,
    build_simple_adjuster,
    build_unit,
    validate_adjuster,
    validate_hub,
    validate_unit,
)
from .connect import PathWitness
from .generators import (
    complete_graph,
    cycle_graph,
    from_edge_list,
    gnp,
    hypercube,
    incidence_plane,
    kdd,
    to_edge_list,
)
from .graph import Graph
from .outcomes import (
    BuildFailure,
    EmptyGraphError,
    InvalidArgumentError,
    InvalidVertexError,
    TooLargeError,
    ValidationReport,
)


def _round9(x: float) -> float:
    return round(float(x), 9)


def _print_json(obj: Any) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _read_text(path: str) -> str:
    """The text at `path`, or on stdin for "-"; a read that fails is a
    usage error with the OSError's text, and so is text that is not UTF-8,
    with the input's name."""
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InvalidArgumentError(str(exc)) from exc
    except UnicodeDecodeError as exc:
        source = "stdin" if path == "-" else path
        raise InvalidArgumentError(f"{source}: {exc}") from exc


def _parse_avoid(raw: str | None) -> tuple[int, ...]:
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(",") if part != "")
    except ValueError as exc:
        raise InvalidArgumentError(f"bad avoid list {raw!r}") from exc


# -- serialization ------------------------------------------------------------


def _read_record(kind: str, make: Callable[[], Any]) -> Any:
    """`make()`, the gadget built from a JSON record, with the KeyError,
    TypeError or ValueError of a malformed record as a usage error."""
    try:
        return make()
    except (KeyError, TypeError, ValueError) as exc:
        raise InvalidArgumentError(f"malformed {kind} record: {exc}") from exc


def _report_dict(report: ValidationReport) -> dict:
    return {
        "passed": report.passed,
        "clauses": [
            {"name": c.name, "passed": c.passed, "witness": c.witness}
            for c in report.clauses
        ],
    }


def _hub_dict(hub: Hub) -> dict:
    return {
        "kind": "hub",
        "center": hub.center,
        "first_layer": list(hub.first_layer),
        "second_layers": [[z, list(layer)] for z, layer in hub.second_layers],
    }


def _hub_from_dict(data: dict) -> Hub:
    return _read_record("hub", lambda: Hub(
        int(data["center"]),
        tuple(int(z) for z in data["first_layer"]),
        tuple(
            (int(z), tuple(int(s) for s in layer))
            for z, layer in data["second_layers"]
        ),
    ))


def _unit_dict(unit: Unit) -> dict:
    return {
        "kind": "unit",
        "core": unit.core,
        "hubs": [_hub_dict(hub) for hub in unit.hubs],
        "spokes": [list(spoke.vertices) for spoke in unit.spokes],
        "spoke_cap": unit.spoke_cap,
        "exterior_size": len(unit.exterior()),
        "interior_size": len(unit.interior()),
    }


def _unit_from_dict(data: dict) -> Unit:
    return _read_record("unit", lambda: Unit(
        int(data["core"]),
        tuple(_hub_from_dict(h) for h in data["hubs"]),
        tuple(PathWitness(tuple(int(v) for v in spoke)) for spoke in data["spokes"]),
        int(data["spoke_cap"]),
    ))


def _expansion_dict(f: Expansion) -> dict:
    return {
        "anchor": f.anchor,
        "vertices": sorted(f.vertices),
        "radius": f.radius,
    }


def _expansion_from_dict(data: dict) -> Expansion:
    return _read_record("expansion", lambda: Expansion(
        int(data["anchor"]),
        frozenset(int(v) for v in data["vertices"]),
        int(data["radius"]),
    ))


def _adjuster_dict(adj: Adjuster) -> dict:
    return {
        "kind": "adjuster",
        "core1": adj.core1,
        "core2": adj.core2,
        "end1": _expansion_dict(adj.end1),
        "end2": _expansion_dict(adj.end2),
        "center": sorted(adj.center),
        "base_length": adj.base_length,
        "steps": adj.steps,
        "m": adj.m,
        "menu": list(adj.menu()),
    }


def _adjuster_from_dict(data: dict) -> Adjuster:
    return _read_record("adjuster", lambda: Adjuster(
        int(data["core1"]),
        int(data["core2"]),
        _expansion_from_dict(data["end1"]),
        _expansion_from_dict(data["end2"]),
        frozenset(int(v) for v in data["center"]),
        int(data["base_length"]),
        int(data["steps"]),
        int(data["m"]),
    ))


def _emit_failure(failure: BuildFailure, flags: dict) -> int:
    _print_json({"failure": failure.reason, "detail": failure.detail, "flags": flags})
    return 1


# -- commands ------------------------------------------------------------------


# family -> (generator, its parameters in order with their types); a "seed"
# parameter is the family's required --seed flag, the others are positionals
_FAMILIES: dict[str, tuple[Callable[..., Graph], tuple[tuple[str, type], ...]]] = {
    "gnp": (gnp, (("n", int), ("p", float), ("seed", int))),
    "kdd": (kdd, (("d", int), ("copies", int))),
    "hypercube": (hypercube, (("dim", int),)),
    "cycle": (cycle_graph, (("n", int),)),
    "incidence_plane": (incidence_plane, (("q", int),)),
    "complete": (complete_graph, (("n", int),)),
}


def cmd_gen(args: argparse.Namespace) -> int:
    make, params = _FAMILIES[args.family]
    g = make(*(getattr(args, name) for name, _kind in params))
    sys.stdout.write(to_edge_list(g))
    return 0


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    overrides = Overrides(
        ell=args.override_ell,
        target_k=args.target_k,
        sparse_threshold=args.sparse_threshold,
        exhaustive_cap=args.exhaustive_cap,
        node_budget=args.node_budget,
    )
    return RunConfig(
        mode=args.mode,
        kappa_rule=args.kappa,
        epsilon1=args.epsilon1,
        epsilon2=args.epsilon2,
        seed=args.seed,
        overrides=overrides,
    )


def _outcome_failure_dict(outcome: PipelineOutcome) -> dict:
    failure = outcome.failure
    return {
        "kind": outcome.kind,
        "route": outcome.trace.route,
        "reason": failure.reason if failure is not None else "",
        "detail": failure.detail if failure is not None else "",
        "trace": list(outcome.trace.entries),
    }


def cmd_find(args: argparse.Namespace) -> int:
    g = from_edge_list(_read_text(args.graph))
    outcome = top_level(g, _config_from_args(args))
    if args.trace:
        for entry in outcome.trace.entries:
            sys.stderr.write(f"trace: {entry}\n")
    if outcome.certificate is not None and outcome.kind in (
        "certificate",
        "dense_fallback",
    ):
        report = verify_subdivision(g, outcome.certificate)
        if not report.passed:
            sys.stderr.write("error: emitted certificate failed verification\n")
            return 1
        _print_json(outcome.certificate.to_json_dict())
        return 0
    _print_json(_outcome_failure_dict(outcome))
    return 1


def cmd_verify(args: argparse.Namespace) -> int:
    if args.graph == args.certificate == "-":
        raise InvalidArgumentError(
            "the graph and the certificate cannot both be read from stdin"
        )
    g = from_edge_list(_read_text(args.graph))
    payload = json.loads(_read_text(args.certificate))
    cert = SubdivisionCertificate.from_json_dict(payload)
    report = verify_subdivision(g, cert)
    for clause in report.clauses:
        status = "ok" if clause.passed else "FAIL"
        suffix = f" ({clause.witness})" if clause.witness else ""
        sys.stderr.write(f"{status}: {clause.name}{suffix}\n")
    return 0 if report.passed else 1


def cmd_expander(args: argparse.Namespace) -> int:
    g = from_edge_list(_read_text(args.graph))
    profile = ExpansionProfile(args.epsilon1, args.k)
    if args.mode == "sampled" and args.seed is None:
        raise InvalidArgumentError("sampled mode is randomized; --seed is required")
    if args.trials < 0:
        raise InvalidArgumentError("--trials must be >= 0")
    verdict = verify_expander(
        g,
        profile,
        mode=args.mode,
        trials=args.trials,
        seed=args.seed if args.seed is not None else 0,
        cap=args.exhaustive_cap,
    )
    _print_json(
        {
            "status": verdict.status,
            "sets_checked": verdict.sets_checked,
            "witness": sorted(verdict.witness) if verdict.witness else None,
            "flags": {
                "epsilon1": _round9(args.epsilon1),
                "k": _round9(args.k),
                "mode": args.mode,
                "trials": args.trials,
                "seed": args.seed,
                "exhaustive_cap": args.exhaustive_cap,
            },
        }
    )
    return 0 if verdict.status != "refuted" else 1


# kind -> (the flags a build takes besides --avoid, in the builder's
# parameter order after the host and the avoid list; builder; record writer;
# record reader; validator)
_GADGETS = {
    "hub": (("h1", "h2", "c4"), build_hub, _hub_dict, _hub_from_dict, validate_hub),
    "unit": (
        ("h0", "h1", "h2", "h3"), build_unit, _unit_dict, _unit_from_dict,
        validate_unit,
    ),
    "adjuster": (
        ("size", "m", "c4"), build_simple_adjuster, _adjuster_dict,
        _adjuster_from_dict, validate_adjuster,
    ),
}


def cmd_gadget(args: argparse.Namespace) -> int:
    names, build, write, read, validate = _GADGETS[args.kind]
    flags: dict[str, Any] = {"action": args.action, "gadget": args.kind}
    if args.action == "check" and args.graph == args.record == "-":
        raise InvalidArgumentError(
            "the graph and the record cannot both be read from stdin"
        )
    g = from_edge_list(_read_text(args.graph))
    if args.action == "check":
        gadget = read(json.loads(_read_text(args.record)))
    else:
        avoid = _parse_avoid(args.avoid)
        flags["avoid"] = sorted(avoid)
        if "c4" in names:
            flags["c4"] = args.c4  # records list it ahead of the sizes
        flags.update((name, getattr(args, name)) for name in names)
        gadget = build(g, avoid, *(flags[name] for name in names))
        if isinstance(gadget, BuildFailure):
            return _emit_failure(gadget, flags)
    report = validate(g, gadget)
    if args.action == "check":
        body = _report_dict(report)
    else:
        body = {**write(gadget), "report": _report_dict(report)}
    body["flags"] = flags
    _print_json(body)
    return 0 if report.passed else 1


def cmd_drc(args: argparse.Namespace) -> int:
    g = from_edge_list(_read_text(args.graph))
    if args.n1 is not None:
        if not 0 < args.n1 < g.n:
            raise InvalidArgumentError(f"--n1 must split 0..{g.n - 1}")
        side1 = frozenset(range(args.n1))
        side2 = frozenset(range(args.n1, g.n))
    else:
        coloring = g.two_coloring()
        if coloring is None:
            raise InvalidArgumentError("host is not bipartite; pass --n1 to split sides")
        side1 = frozenset(v for v in g.vertices() if coloring[v] == 0)
        side2 = frozenset(v for v in g.vertices() if coloring[v] == 1)
    if args.max_retries < 0:
        raise InvalidArgumentError("--max-retries must be >= 0")
    flags = {
        "t": args.t,
        "r": args.r,
        "c": args.c,
        "a": args.a,
        "seed": args.seed,
        "n1": args.n1,
        "max_retries": args.max_retries,
    }
    params = DrcParams(args.t, args.r, args.c, args.a)
    result = drc_select(
        g, (side1, side2), params, args.seed, max_retries=args.max_retries
    )
    if isinstance(result, BuildFailure):
        return _emit_failure(result, flags)
    _print_json({"a0": sorted(result), "size": len(result), "flags": flags})
    return 0


# -- parser --------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balsub",
        description="Balanced clique subdivisions with machine-checkable "
        "certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="emit a graph family as an edge list")
    families = p_gen.add_subparsers(
        dest="family", metavar="family", help=" | ".join(_FAMILIES), required=True
    )
    for family, (_make, params) in _FAMILIES.items():
        aliases = [family.replace("_", "-")] if "_" in family else []
        p_family = families.add_parser(family, aliases=aliases)
        for name, kind in params:
            if name == "seed":
                p_family.add_argument("--seed", type=kind, required=True)
            else:
                p_family.add_argument(name, type=kind)
        # an alias names its family too
        p_family.set_defaults(family=family)
    p_gen.set_defaults(func=cmd_gen)

    p_find = sub.add_parser("find", help="run the subdivision pipeline")
    p_find.add_argument("graph", nargs="?", default="-")
    p_find.add_argument("--mode", choices=("paper", "desk"), default="desk")
    p_find.add_argument("--epsilon1", type=float, default=1.0)
    p_find.add_argument("--epsilon2", type=float, default=None)
    p_find.add_argument("--kappa", choices=("sqrt", "linear"), default="sqrt")
    p_find.add_argument("--seed", type=int, default=0)
    p_find.add_argument("--override-ell", type=int, default=None)
    p_find.add_argument("--target-k", type=int, default=None)
    p_find.add_argument("--sparse-threshold", type=float, default=None)
    p_find.add_argument("--exhaustive-cap", type=int, default=EXHAUSTIVE_CAP)
    p_find.add_argument("--node-budget", type=int, default=NODE_BUDGET)
    p_find.add_argument("--trace", action="store_true")
    p_find.set_defaults(func=cmd_find)

    p_verify = sub.add_parser("verify", help="check a certificate against a graph")
    p_verify.add_argument("graph")
    p_verify.add_argument("certificate")
    p_verify.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("expander", help="verify the expansion property")
    p_exp.add_argument("graph", nargs="?", default="-")
    p_exp.add_argument("--epsilon1", type=float, default=1.0)
    p_exp.add_argument("--k", type=float, required=True)
    p_exp.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p_exp.add_argument("--trials", type=int, default=200)
    p_exp.add_argument("--seed", type=int, default=None)
    p_exp.add_argument("--exhaustive-cap", type=int, default=EXHAUSTIVE_CAP)
    p_exp.set_defaults(func=cmd_expander)

    p_gad = sub.add_parser("gadget", help="build or check a structural gadget")
    actions = p_gad.add_subparsers(dest="action", required=True)
    builds = actions.add_parser("build").add_subparsers(dest="kind", required=True)
    checks = actions.add_parser("check").add_subparsers(dest="kind", required=True)
    for kind, (names, *_rest) in _GADGETS.items():
        p_build = builds.add_parser(kind)
        p_build.add_argument("graph", nargs="?", default="-")
        for name in names:
            if name == "c4":
                p_build.add_argument("--c4", action="store_true")
            else:
                p_build.add_argument(f"--{name}", type=int, required=True)
        p_build.add_argument("--avoid", type=str, default=None)
        p_check = checks.add_parser(kind)
        p_check.add_argument("graph", nargs="?", default="-")
        p_check.add_argument("--record", type=str, required=True)
    p_gad.set_defaults(func=cmd_gadget)

    p_drc = sub.add_parser(
        "drc", help="robust common-neighborhood selection on a bipartite host"
    )
    p_drc.add_argument("graph", nargs="?", default="-")
    p_drc.add_argument("--t", type=int, required=True)
    p_drc.add_argument("--r", type=int, required=True)
    p_drc.add_argument("--c", type=int, required=True)
    p_drc.add_argument("--a", type=int, required=True)
    p_drc.add_argument("--seed", type=int, required=True)
    p_drc.add_argument("--n1", type=int, default=None)
    p_drc.add_argument("--max-retries", type=int, default=64)
    p_drc.set_defaults(func=cmd_drc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # the one place a bad input becomes a usage error
    try:
        status = args.func(args)
        # a reader that closed stdout early shows up here, not at exit
        sys.stdout.flush()
        return status
    except (
        InvalidArgumentError, InvalidVertexError, EmptyGraphError, TooLargeError,
        json.JSONDecodeError,
    ) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # as the SIGPIPE note of the `signal` docs does: point stdout's
        # descriptor at devnull so that the flush at exit cannot raise
        # again; an in-process stdout may have no descriptor to point
        with contextlib.suppress(io.UnsupportedOperation):
            stdout_fd = sys.stdout.fileno()
            os.dup2(os.open(os.devnull, os.O_WRONLY), stdout_fd)
        return 1


if __name__ == "__main__":
    sys.exit(main())
