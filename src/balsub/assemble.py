"""Pipeline orchestration: units, connections, assembly.

Two modes share one pipeline.  Paper mode computes the constants from
their defining formulas; at desk scale those thresholds usually declare
the input infeasible, and the run ends in a structured failure rather
than a silently rescaled success.  Desk mode takes the few explicit
settings of `Overrides` and sizes the rest from the host.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

from .certify import (
    BudgetExhausted,
    SubdivisionCertificate,
    best_balanced_clique,
    brute_force_subdivision,
    require_verified,
)
from .connect import PathWitness
from .drc import NODE_BUDGET, dense_tk2
from .expander import (
    EXHAUSTIVE_CAP,
    ExpansionProfile,
    ExtractionResult,
    extract_bipartite_expander,
    kst_free_profile_transform,
)
from .gadgets import Unit, build_unit
from .graph import Graph, average_degree
from .outcomes import (
    BuildFailure,
    DensityTooLowError,
    InvalidArgumentError,
    SearchBudgetExceeded,
)
from .router import exact_path_in_region


@dataclass(frozen=True)
class Overrides:
    """Explicit desk-scale settings; None means unset."""

    ell: Optional[int] = None
    target_k: Optional[int] = None
    exhaustive_cap: int = EXHAUSTIVE_CAP
    node_budget: int = NODE_BUDGET

    def __post_init__(self) -> None:
        if self.ell is not None and self.ell < 1:
            raise InvalidArgumentError("ell must be >= 1")
        # the smallest clique with a branch pair to subdivide is K_2
        if self.target_k is not None and self.target_k < 2:
            raise InvalidArgumentError("target_k must be >= 2")
        if self.exhaustive_cap < 0:
            raise InvalidArgumentError("exhaustive_cap must be >= 0")
        if self.node_budget < 0:
            raise InvalidArgumentError("node_budget must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    mode: str = "desk"  # "desk" | "paper"
    kappa_rule: str = "sqrt"  # "sqrt" | "linear"
    epsilon1: float = 1.0
    epsilon2: Optional[float] = None
    seed: int = 0
    overrides: Overrides = field(default_factory=Overrides)

    def __post_init__(self) -> None:
        if self.mode not in ("desk", "paper"):
            raise InvalidArgumentError(f"unknown mode {self.mode!r}")
        if self.kappa_rule not in ("sqrt", "linear"):
            raise InvalidArgumentError(f"unknown kappa rule {self.kappa_rule!r}")
        checked = {"epsilon1": self.epsilon1, "epsilon2": self.resolved_epsilon2()}
        for name, value in checked.items():
            if not (math.isfinite(value) and value > 0):
                raise InvalidArgumentError(f"{name} must be finite and > 0")

    def resolved_epsilon2(self) -> float:
        if self.epsilon2 is not None:
            return self.epsilon2
        return 1e-6 if self.kappa_rule == "linear" else 0.1


@dataclass(frozen=True)
class ResolvedConstants:
    kappa: float
    m: int
    big_d: float
    ell: int
    c: float


def derive_config(n: int, d, cfg: RunConfig) -> ResolvedConstants:
    """Resolve (kappa, m, D, ell, c) from the paper's formulas; of `cfg`
    only the kappa rule is read.

    kappa is sqrt(d) or d by `cfg.kappa_rule`; m is the smallest even
    integer strictly greater than 80*ln^4(n/kappa^2); D = kappa^2*m^4/10^7;
    ell = m^3; c = 1/200.
    """
    if n < 1 or d <= 0:
        raise InvalidArgumentError("need n >= 1 and d > 0")
    dv = float(d)
    kappa = math.sqrt(dv) if cfg.kappa_rule == "sqrt" else dv
    ratio = n / (kappa * kappa)
    raw = 80.0 * math.log(ratio) ** 4 if ratio > 1 else 0.0
    m = 2 * math.floor(raw / 2) + 2
    return ResolvedConstants(
        kappa=kappa, m=m, big_d=kappa * kappa * m**4 / 1e7, ell=m**3, c=1 / 200
    )


@dataclass
class PipelineTrace:
    entries: list = field(default_factory=list)
    route: str = ""
    units: list = field(default_factory=list)

    def add(self, message: str) -> None:
        self.entries.append(message)


@dataclass(frozen=True)
class PipelineOutcome:
    kind: str  # "certificate" | "dense_fallback" | "sparse_regime" | "failure"
    trace: PipelineTrace
    certificate: Optional[SubdivisionCertificate] = None
    failure: Optional[BuildFailure] = None


def desk_target_k(n: int) -> int:
    """The largest k (at least 2) whose k disjoint lean units, interior
    about 2k-1 vertices each, fit in n vertices."""
    target = 2
    while (target + 1) * (2 * (target + 1) - 1) <= n:
        target += 1
    return target


def _max_clique(order: list[int], adjacent) -> list[int]:
    for size in range(len(order), 0, -1):
        for combo in combinations(order, size):
            if all(adjacent(a, b) for a, b in combinations(combo, 2)):
                return list(combo)
    return []


def find_balanced_subdivision(
    g: Graph, cfg: RunConfig, trace: Optional[PipelineTrace] = None
) -> SubdivisionCertificate | BuildFailure:
    """Units with disjoint interiors, core pigeonholing, exact-length
    connections between unused hub centers, and a clique of
    fully-connected units glued into a TK_k^(ell).
    """
    trace = trace if trace is not None else PipelineTrace()
    if g.n == 0:
        return BuildFailure("no_units", "empty host")

    ov = cfg.overrides
    ell = ov.ell
    if cfg.mode == "paper":
        d = average_degree(g)
        consts = derive_config(g.n, max(float(d), 1e-9), cfg)
        target_k = max(2, math.floor(consts.c * consts.kappa / 4))
        h0 = max(1, math.floor(consts.c * consts.kappa))
        h1 = h2 = consts.m**4
        h3 = 2 * consts.m
        pinned = " (pinned)" if ell is not None else ""
        if ell is None:
            ell = consts.ell
        trace.add(
            f"paper constants: kappa={consts.kappa:.6f} m={consts.m} "
            f"D={consts.big_d:.6f} ell={ell}{pinned}"
        )
    else:
        target_k = ov.target_k if ov.target_k is not None else desk_target_k(g.n)
        # single-branch hubs of shape (1, 1) with spokes of length at most 2
        h0, h1, h2, h3 = max(1, target_k - 1), 1, 1, 2
        trace.add(
            f"desk unit parameters: target_k={target_k} "
            f"(h0,h1,h2,h3)=({h0},{h1},{h2},{h3}) ell={ell}"
        )

    units: list[Unit] = []
    avoid: set[int] = set()
    for i in range(target_k):
        built = build_unit(g, avoid, h0, h1, h2, h3)
        if isinstance(built, BuildFailure):
            trace.add(f"unit {i}: stalled ({built.reason}: {built.detail})")
            break
        units.append(built)
        avoid |= built.interior()
        trace.add(
            f"unit {i}: core {built.core}, {len(built.interior())} interior"
        )
    trace.units = list(units)
    if len(units) < 2:
        return BuildFailure("no_units", f"only {len(units)} unit(s) fit the host")

    coloring = g.two_coloring()
    if coloring is not None:
        by_side = {0: [], 1: []}
        for unit in units:
            by_side[coloring[unit.core]].append(unit)
        kept = (
            by_side[0] if len(by_side[0]) >= len(by_side[1]) else by_side[1]
        )
        if len(kept) < len(units):
            trace.add(
                f"pigeonhole: kept {len(kept)} of {len(units)} units with "
                "cores on one side"
            )
    else:
        kept = units
    if len(kept) < 2:
        return BuildFailure("no_units", "pigeonholing left fewer than two units")

    max_spoke = max(s.length for unit in kept for s in unit.spokes)
    if ell is None:
        # bipartite hosts force even center-to-center segments; elsewhere a
        # single-edge segment saves one middle vertex per connection
        ell = 2 * max_spoke + (2 if coloring is not None else 1)
        trace.add(f"ell resolved to {ell} (longest spoke {max_spoke})")

    interiors: set[int] = set()
    for unit in kept:
        assert not (unit.interior() & interiors), "unit interiors overlap"
        interiors |= unit.interior()

    usage: set[int] = set()
    hub_free = {i: list(range(len(unit.hubs))) for i, unit in enumerate(kept)}
    glued: dict[tuple[int, int], PathWitness] = {}
    budget = cfg.overrides.node_budget
    for i, j in combinations(range(len(kept)), 2):
        found = None
        missed = "no segment"
        for hi in list(hub_free[i]):
            if found:
                break
            for hj in list(hub_free[j]):
                sa, sb = kept[i].spokes[hi], kept[j].spokes[hj]
                ca = kept[i].hubs[hi].center
                cb = kept[j].hubs[hj].center
                seg_len = ell - sa.length - sb.length
                if seg_len < 1:
                    continue
                if coloring is not None and (
                    (coloring[ca] ^ coloring[cb]) != seg_len % 2
                ):
                    continue
                blocked = (interiors | usage) - {ca, cb}
                allowed = frozenset(
                    v for v in g.vertices() if v not in blocked
                )
                try:
                    seg = exact_path_in_region(g, allowed, ca, (cb,), seg_len, budget)
                except SearchBudgetExceeded:
                    missed = "segment budget exhausted"
                    continue
                if seg is None:
                    continue
                full = (
                    tuple(sa.vertices)
                    + tuple(seg[1:])
                    + tuple(reversed(sb.vertices))[1:]
                )
                witness = PathWitness(full)
                assert witness.length == ell
                inner = set(seg[1:-1])
                assert not (inner & usage), "segment reused a vertex"
                usage |= inner
                hub_free[i].remove(hi)
                hub_free[j].remove(hj)
                glued[(i, j)] = witness
                found = witness
                break
        trace.add(f"pair ({i},{j}): " + ("connected" if found else missed))

    # Every kept unit is good: each segment was searched with all unit
    # interiors blocked, so no segment runs through a unit's interior.
    clique = _max_clique(
        list(range(len(kept))), lambda a, b: (min(a, b), max(a, b)) in glued
    )
    trace.add(f"connection clique size {len(clique)} of {len(kept)} units")
    if len(clique) >= 2:
        branch = [kept[i].core for i in clique]
        paths = {
            (kept[i].core, kept[j].core): glued[(i, j)]
            for i, j in combinations(sorted(clique), 2)
        }
        cert = SubdivisionCertificate.from_paths(ell, branch, paths)
        require_verified(g, cert)
        trace.route = trace.route or "units"
        return cert
    return BuildFailure(
        "connection_stalled",
        f"no clique of connected units (built {len(kept)}, "
        f"{len(glued)} pairs joined)",
    )


def _component_k_cap(g: Graph) -> int:
    best = max((len(c) for c in g.components()), default=0)
    k = 2
    while (k + 1) + (k + 1) * k // 2 <= best:
        k += 1
    return k


def top_level(g: Graph, cfg: RunConfig) -> PipelineOutcome:
    """Extraction, branch selection, and the subdivision pipeline.

    Route order: sparse check (paper mode only: d/8 < ln^2 n), dense
    TK^(2) sweep, unit pipeline on the extracted expander, brute force for
    hosts of at most 12 vertices.  Every certificate is re-verified against
    the input graph before the outcome is returned.
    """
    trace = PipelineTrace()
    if g.n == 0:
        return PipelineOutcome(
            "failure", trace, failure=BuildFailure("empty_graph", "no vertices")
        )
    d = average_degree(g)
    d1 = d / 8
    eps2 = cfg.resolved_epsilon2()
    exponent = 2.0 if cfg.kappa_rule == "linear" else 1.0
    k_profile = max(eps2 * float(d1) ** exponent, 1e-9)
    profile = ExpansionProfile(cfg.epsilon1, k_profile)
    trace.add(
        f"host: n={g.n} d={float(d):.6f}; d1={float(d1):.6f}; "
        f"profile k={k_profile:.9f}"
    )

    expander: Optional[ExtractionResult] = None
    try:
        expander = extract_bipartite_expander(
            g, d1, profile, cap=cfg.overrides.exhaustive_cap, seed=cfg.seed
        )
        trace.add(
            f"bipartite expander: n={expander.graph.n} "
            f"verdict={expander.verdict.status}"
        )
    except DensityTooLowError as exc:
        trace.add(f"bipartite extraction failed: {exc}")

    if cfg.kappa_rule == "linear":
        try:
            transformed = kst_free_profile_transform(profile, float(d1), 2, 2)
            trace.add(
                f"profile transform (s=t=2): k {profile.k:.9f} -> "
                f"{transformed.k:.9f}"
            )
        except InvalidArgumentError as exc:
            trace.add(f"profile transform inapplicable: {exc}")

    threshold = math.log(max(g.n, 2)) ** 2
    if cfg.mode == "paper" and float(d1) < threshold:
        trace.route = "sparse"
        detail = f"d1={float(d1):.6f} < threshold {threshold:.6f}"
        trace.add(f"sparse regime: {detail}")
        cert = _brute_route(g, cfg, trace)
        failure = BuildFailure("sparse_regime", detail)
        return PipelineOutcome("sparse_regime", trace, cert, failure)

    ov = cfg.overrides
    if ov.ell in (None, 2):
        if ov.target_k is not None:
            start = ov.target_k
        else:
            # a branch vertex keeps k-1 distinct host edges, so k <= maxdeg+1
            max_deg = max(g.degree(v) for v in g.vertices())
            start = min(_component_k_cap(g), max_deg + 1)
        for k in range(start, 1, -1):
            attempt = dense_tk2(g, k, cfg.seed, ov.node_budget)
            if isinstance(attempt, SubdivisionCertificate):
                trace.route = "dense_tk2"
                trace.add(f"dense route: TK_{k} with ell=2")
                return PipelineOutcome(
                    "dense_fallback", trace, certificate=attempt
                )
            if attempt.reason == "budget_exhausted":
                trace.add(f"dense route: TK_{k} {attempt.reason} ({attempt.detail})")
            if ov.target_k is not None:
                break
        trace.add("dense route: no embedding")

    if expander is not None and expander.graph.n >= 3:
        result = find_balanced_subdivision(expander.graph, cfg, trace)
        if isinstance(result, SubdivisionCertificate):
            lifted = result.relabel(expander.ids)
            require_verified(g, lifted)
            trace.route = "units"
            return PipelineOutcome("certificate", trace, certificate=lifted)
        trace.add(f"unit pipeline: {result.reason} ({result.detail})")

    cert = _brute_route(g, cfg, trace)
    if cert is not None:
        trace.route = "brute_force"
        return PipelineOutcome("certificate", trace, certificate=cert)

    return PipelineOutcome(
        "failure",
        trace,
        failure=BuildFailure("pipeline_exhausted", "no route produced a certificate"),
    )


def _brute_route(
    g: Graph, cfg: RunConfig, trace: PipelineTrace
) -> Optional[SubdivisionCertificate]:
    """Brute force on a host of at most 12 vertices: the pinned (k, ell),
    else the best balanced clique, searched again at a pinned ell.  One
    trace line says whether the search found, refuted or ran out of budget."""
    if g.n > 12:
        return None
    ov = cfg.overrides
    k, ell = ov.target_k, ov.ell
    if k is None or ell is None:
        result = best_balanced_clique(g)
        if not isinstance(result, tuple):
            spent = isinstance(result, BudgetExhausted)
            trace.add(
                "brute force: "
                + ("search budget exhausted" if spent else "no subdivision")
            )
            return None
        k, best_ell, result = result
        if ell is None:
            ell = best_ell
        elif ell != best_ell:
            result = brute_force_subdivision(g, k, ell)
    else:
        result = brute_force_subdivision(g, k, ell)
    line = f"brute force: TK_{k} with ell={ell}"
    if isinstance(result, SubdivisionCertificate):
        trace.add(line)
        return result
    spent = isinstance(result, BudgetExhausted)
    trace.add(line + (" search budget exhausted" if spent else " not embeddable"))
    return None
