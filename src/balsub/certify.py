"""Balanced-subdivision certificates, their verifier, and small oracles.

A certificate is host-independent data; verification recomputes every
clause against a concrete graph.  The brute-force oracle enumerates the
pair paths with `router.exact_paths` under one node budget shared by the
whole search, and is three-valued: NotFound is a proof of absence only
when the search completed within budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Mapping, Sequence

from .connect import PathWitness
from .graph import Graph
from .outcomes import Clause, InvalidArgumentError, SearchBudgetExceeded, ValidationReport
from .router import exact_paths

# node budget shared by one whole brute-force search
BRUTE_FORCE_BUDGET = 2_000_000


@dataclass(frozen=True)
class SubdivisionCertificate:
    """A TK_k^(ell): k branch vertices and one length-ell path per pair."""

    ell: int
    branch: tuple[int, ...]
    pair_paths: tuple[tuple[tuple[int, int], PathWitness], ...]

    @classmethod
    def from_paths(
        cls,
        ell: int,
        branch: Iterable[int],
        paths: Mapping[tuple[int, int], PathWitness],
    ) -> "SubdivisionCertificate":
        """Canonicalize: branch sorted, pair keys min-first, every path
        oriented from the smaller branch vertex."""
        if ell < 1:
            raise InvalidArgumentError("ell must be >= 1")
        ordered = tuple(sorted(branch))
        canon: dict[tuple[int, int], PathWitness] = {}
        for (u, v), path in paths.items():
            a, b = min(u, v), max(u, v)
            if path.vertices and path.vertices[0] == b:
                path = path.reversed()
            canon[(a, b)] = path
        return cls(ell, ordered, tuple(sorted(canon.items())))

    @property
    def k(self) -> int:
        return len(self.branch)

    def relabel(self, ids: Sequence[int]) -> "SubdivisionCertificate":
        """Every vertex v renamed ids[v]: lifts a certificate found in a
        subgraph through the subgraph's id table."""
        paths = {
            (ids[u], ids[v]): PathWitness(tuple(ids[x] for x in p.vertices))
            for (u, v), p in self.pair_paths
        }
        return self.from_paths(self.ell, [ids[b] for b in self.branch], paths)

    def pairs(self):
        return iter(self.pair_paths)

    def path_for(self, u: int, v: int) -> PathWitness | None:
        key = (min(u, v), max(u, v))
        for pair, path in self.pair_paths:
            if pair == key:
                return path
        return None

    def all_vertices(self) -> frozenset[int]:
        verts = set(self.branch)
        for _, path in self.pair_paths:
            verts |= set(path.vertices)
        return frozenset(verts)

    def to_json_dict(self) -> dict:
        return {
            "ell": self.ell,
            "branch": list(self.branch),
            "paths": [
                {"u": u, "v": v, "vertices": list(path.vertices)}
                for (u, v), path in self.pair_paths
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "SubdivisionCertificate":
        try:
            ell = int(data["ell"])
            branch = [int(b) for b in data["branch"]]
            paths = {
                (int(entry["u"]), int(entry["v"])): PathWitness(
                    tuple(int(x) for x in entry["vertices"])
                )
                for entry in data["paths"]
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidArgumentError(f"malformed certificate: {exc}") from exc
        return cls.from_paths(ell, branch, paths)


def verify_subdivision(g: Graph, cert: SubdivisionCertificate) -> ValidationReport:
    """Recheck every certificate clause against the host graph."""
    clauses: list[Clause] = []
    branch = cert.branch
    in_range = all(0 <= b < g.n for b in branch)
    clauses.append(
        Clause(
            "branch_distinct",
            in_range and len(set(branch)) == len(branch) and len(branch) >= 2,
        )
    )
    want_pairs = set(combinations(sorted(set(branch)), 2))
    have_pairs = [pair for pair, _ in cert.pair_paths]
    clauses.append(
        Clause(
            "pairs_complete",
            set(have_pairs) == want_pairs and len(have_pairs) == len(want_pairs),
            "" if set(have_pairs) == want_pairs else f"missing {sorted(want_pairs - set(have_pairs))[:3]}",
        )
    )

    endpoints_ok = True
    lengths_ok = True
    edges_ok = True
    bad_length_pair = ""
    for (u, v), path in cert.pair_paths:
        if not path.vertices or path.vertices[0] != u or path.vertices[-1] != v:
            endpoints_ok = False
        if path.length != cert.ell:
            lengths_ok = False
            bad_length_pair = f"pair {(u, v)} has length {path.length}"
        if not all(
            0 <= x < g.n for x in path.vertices
        ) or not all(
            g.has_edge(a, b) for a, b in zip(path.vertices, path.vertices[1:])
        ):
            edges_ok = False
    clauses.append(Clause("endpoints_match", endpoints_ok))
    clauses.append(Clause("uniform_length", lengths_ok, bad_length_pair))
    clauses.append(Clause("edges_exist", edges_ok))

    seen_internal: set[int] = set()
    disjoint = True
    off_branch = True
    for _, path in cert.pair_paths:
        inner = set(path.interior())
        if inner & seen_internal:
            disjoint = False
        if inner & set(branch):
            off_branch = False
        seen_internal |= inner
    clauses.append(Clause("internals_disjoint", disjoint))
    clauses.append(Clause("internals_avoid_branch", off_branch))
    return ValidationReport(tuple(clauses))


def require_verified(g: Graph, cert: SubdivisionCertificate) -> None:
    """The gate before the library returns a certificate it built: raise
    AssertionError unless `cert` passes every clause against `g`.  An
    explicit raise rather than an assert, so `python -O` keeps it."""
    report = verify_subdivision(g, cert)
    if not report.passed:
        raise AssertionError(report.failures())


# -- brute-force oracles --------------------------------------------------------


@dataclass(frozen=True)
class NotFound:
    """Proof of absence: the search space was exhausted."""


@dataclass(frozen=True)
class BudgetExhausted:
    nodes: int


def brute_force_subdivision(
    g: Graph,
    k: int,
    ell: int,
    budget: int = BRUTE_FORCE_BUDGET,
):
    """Exhaustive search for a TK_k^(ell).

    Returns a certificate, NotFound (complete search, none exists), or
    BudgetExhausted (search aborted, no conclusion).
    """
    if k < 2 or ell < 1:
        raise InvalidArgumentError("need k >= 2 and ell >= 1")
    spent = [0]
    need = k + comb(k, 2) * (ell - 1)
    comps = [c for c in g.components() if len(c) >= need]
    everything = frozenset(g.vertices())

    def fill(branch: tuple[int, ...]):
        """The first choice of one path per branch pair, pairs in order,
        each path inside what the earlier ones left: a depth-first search
        on an explicit stack, one path generator per pair, since a branch
        has C(k, 2) pairs."""
        pairs = list(combinations(branch, 2))
        room = [everything.difference(branch)]
        paths: list[tuple[int, ...]] = []
        searches = []
        while len(paths) < len(pairs):
            if len(searches) == len(paths):
                u, v = pairs[len(paths)]
                searches.append(
                    exact_paths(g, u, frozenset({v}), ell, room[-1], spent, budget)
                )
            path = next(searches[-1], None)
            if path is not None:
                paths.append(path)
                room.append(room[-1] - set(path))
                continue
            searches.pop()
            if not searches:
                return None
            paths.pop()
            room.pop()
        return SubdivisionCertificate.from_paths(
            ell, branch, {pair: PathWitness(p) for pair, p in zip(pairs, paths)}
        )

    try:
        for comp in comps:
            # each branch vertex starts k-1 paths through distinct neighbours
            hubs = [v for v in comp if g.degree(v) >= k - 1]
            for branch in combinations(hubs, k):
                found = fill(branch)
                if found is not None:
                    require_verified(g, found)
                    return found
    except SearchBudgetExceeded:
        return BudgetExhausted(spent[0])
    return NotFound()


def best_balanced_clique(g: Graph, budget: int = BRUTE_FORCE_BUDGET):
    """Ground truth for small hosts: the largest k admitting a balanced
    subdivision, with the smallest ell for that k.

    Returns (k, ell, certificate) or None.  Raises TooLargeError never;
    budget exhaustion surfaces as a BudgetExhausted return.
    """
    if g.n == 0:
        return None
    for k in range(min(g.n, max(len(c) for c in g.components())), 1, -1):
        max_ell = 1 + (g.n - k) // comb(k, 2)
        for ell in range(1, max_ell + 1):
            result = brute_force_subdivision(g, k, ell, budget)
            if isinstance(result, SubdivisionCertificate):
                return (k, ell, result)
            if isinstance(result, BudgetExhausted):
                return result
    return None


def best_k_at_ell(g: Graph, ell: int, budget: int = BRUTE_FORCE_BUDGET) -> int:
    """Largest k with a TK_k^(ell), by complete search; 1 when none."""
    for k in range(g.n, 1, -1):
        if k + comb(k, 2) * (ell - 1) > g.n:
            continue
        result = brute_force_subdivision(g, k, ell, budget)
        if isinstance(result, SubdivisionCertificate):
            return k
        if isinstance(result, BudgetExhausted):
            raise InvalidArgumentError("budget too small for a complete answer")
    return 1
