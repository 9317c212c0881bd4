"""Sublinear vertex expansion: the profile function, verification, and
extraction of expanding subgraphs.

A graph is an expander for profile (epsilon1, k) when every vertex set X
with k/2 <= |X| <= n/2 has external neighborhood of size at least
eps(|X|) * |X|, where eps is the sublinear profile below.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .graph import Graph, average_degree, bipartite_half, min_degree_peel
from .outcomes import (
    DensityTooLowError,
    EmptyGraphError,
    InvalidArgumentError,
    TooLargeError,
)

EXHAUSTIVE_CAP = 22


@dataclass(frozen=True)
class ExpansionProfile:
    """Parameters of the sublinear expansion rate eps(x)."""

    epsilon1: float
    k: float

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0 for x in (self.epsilon1, self.k)):
            raise InvalidArgumentError("profile needs finite epsilon1 > 0 and k > 0")


def epsilon_of(x: float, profile: ExpansionProfile) -> float:
    """Required expansion rate at set size x.

    Zero below x = k/5; otherwise epsilon1 / ln^2(15x/k), which decreases
    in x but still forces |N(X)| to grow almost linearly.
    """
    if x <= 0:
        raise InvalidArgumentError("set size must be positive")
    if x < profile.k / 5:
        return 0.0
    return profile.epsilon1 / math.log(15.0 * x / profile.k) ** 2


@dataclass(frozen=True)
class ExpanderVerdict:
    """Result of checking the expansion property.

    status is "certified" (exhaustive pass), "refuted" (witness attached),
    or "sampled_ok" (sampled pass; never a certificate, even when the
    degree bound settled every size and no set was drawn).  sets_checked
    counts the candidate sets, including those the degree bound settled.
    """

    status: str
    sets_checked: int
    witness: frozenset[int] | None = None


def _range_of_sizes(n: int, k: float) -> range:
    lo = max(1, math.ceil(k / 2))
    hi = n // 2
    return range(lo, hi + 1)


def _external_lower_bounds(g: Graph, sizes: range) -> list[int]:
    """A lower bound on |N(X)| for each set size in `sizes`, valid on a
    connected host.

    X is never all of V, so connectivity leaves some neighbour outside X.
    Each vertex of X has at least delta neighbours, at most s - 1 of them
    in X.  On a bipartite host a vertex of X on one side has at least delta
    neighbours on the other, so taking it on the side facing X's smaller
    part leaves at least delta - floor(s/2) outside X.
    """
    delta = min(g.degree(v) for v in g.vertices())
    bipartite = g.two_coloring() is not None
    return [max(1, delta - (s // 2 if bipartite else s - 1)) for s in sizes]


def verify_expander(
    g: Graph,
    profile: ExpansionProfile,
    mode: str = "exhaustive",
    trials: int = 200,
    seed: int = 0,
    cap: int = EXHAUSTIVE_CAP,
) -> ExpanderVerdict:
    """Check |N(X)| >= eps(|X|)|X| over k/2 <= |X| <= n/2.

    Every check compares the integer |N(X)| with one integer threshold per
    size, ceil(eps(s) * s), which holds exactly when the real need does.
    Exhaustive mode walks every candidate set in lexicographic order,
    size by size (refusing hosts larger than `cap`): the sets that share
    all but their last vertex share one OR of their masks, so each set
    costs one OR, one mask and one popcount, and the witness is the first
    failing set.  Sampled mode checks whole components, low-degree
    prefixes, and randomly grown connected sets, and can only refute or
    report "sampled_ok".  On a connected host, sampled mode first tries a
    degree/connectivity lower bound on |N(X)|; when it meets the threshold
    at every size, no set can fail and none is drawn, and sets_checked is
    the count the loop would have checked.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot verify expansion of the empty graph")
    sizes = _range_of_sizes(g.n, profile.k)
    if not sizes:
        # no candidate sets exist, the property holds vacuously
        return ExpanderVerdict("certified", 0)

    masks = g.neighbor_masks()
    # |N(X)| < need exactly when |N(X)| < ceil(need), for an integer count;
    # a need of n or more fails every set, so clamping it keeps ceil finite
    thresholds = {s: math.ceil(min(epsilon_of(s, profile) * s, g.n)) for s in sizes}

    if mode == "exhaustive":
        if g.n > cap:
            raise TooLargeError(
                f"exhaustive verification capped at {cap} vertices, got {g.n}"
            )
        n = g.n
        checked = 0
        for size in sizes:
            t = thresholds[size]
            # combinations(range(n), size) in order: each prefix, then
            # every last vertex after it
            for prefix in combinations(range(n - 1), size - 1):
                xm = 0
                nm = 0
                for v in prefix:
                    xm |= 1 << v
                    nm |= masks[v]
                for j in range(prefix[-1] + 1 if prefix else 0, n):
                    checked += 1
                    if ((nm | masks[j]) & ~(xm | 1 << j)).bit_count() < t:
                        return ExpanderVerdict(
                            "refuted", checked, frozenset((*prefix, j))
                        )
        return ExpanderVerdict("certified", checked)

    if mode != "sampled":
        raise InvalidArgumentError(f"unknown mode {mode!r}")

    lo, hi = sizes.start, sizes.stop - 1
    comps = g.components()
    if len(comps) == 1 and all(
        bound >= thresholds[s]
        for s, bound in zip(sizes, _external_lower_bounds(g, sizes))
    ):
        # the loop below would keep each distinct degree prefix and grow every
        # random set to its drawn size, and none of them could fail
        prefixes = len({lo, (lo + hi) // 2, hi})
        return ExpanderVerdict("sampled_ok", prefixes + max(trials, 0))
    rng = random.Random(seed)
    candidates = [comp for comp in comps if lo <= len(comp) <= hi]
    by_degree = sorted(g.vertices(), key=lambda v: (g.degree(v), v))
    for size in {lo, (lo + hi) // 2, hi}:
        candidates.append(frozenset(by_degree[:size]))
    for _ in range(trials):
        size = rng.randint(lo, hi)
        start = rng.randrange(g.n)
        grown = {start}
        frontier = [start]
        while len(grown) < size and frontier:
            u = frontier[rng.randrange(len(frontier))]
            fresh = [w for w in g.neighbors(u) if w not in grown]
            if not fresh:
                frontier.remove(u)
                continue
            w = fresh[rng.randrange(len(fresh))]
            grown.add(w)
            frontier.append(w)
        if lo <= len(grown) <= hi:
            candidates.append(frozenset(grown))
    checked = 0
    for xs in candidates:
        checked += 1
        xmask = 0
        nmask = 0
        for v in xs:
            xmask |= 1 << v
            nmask |= masks[v]
        if (nmask & ~xmask).bit_count() < thresholds[len(xs)]:
            return ExpanderVerdict("refuted", checked, frozenset(xs))
    return ExpanderVerdict("sampled_ok", checked)


@dataclass(frozen=True)
class ExtractionResult:
    """Expanding subgraph plus its id table into the host and the deepest
    affordable verification verdict."""

    graph: Graph
    ids: tuple[int, ...]
    verdict: ExpanderVerdict


def _half_average_core(g: Graph) -> tuple[Graph, tuple[int, ...]]:
    """Repeatedly delete the least vertex of degree < half the current
    average.

    Each deletion strictly raises the average, so the fixed point H has
    min degree >= d(H)/2 and d(H) at least the starting average.  Deletions
    only mark the host's vertices dead; H is built once at the end.
    """
    alive = [True] * g.n
    deg = [len(nbrs) for nbrs in g._adj]
    count, edges = g.n, g.edge_count()
    while count:
        # 2 deg(v) < 2 edges / count, kept in integers
        victim = next(
            (v for v in g.vertices() if alive[v] and deg[v] * count < edges), -1
        )
        if victim < 0:
            break
        alive[victim] = False
        count -= 1
        edges -= deg[victim]
        for w in g._adj[victim]:
            if alive[w]:
                deg[w] -= 1
    return g.induced(v for v in g.vertices() if alive[v])


def extract_expander(
    g: Graph,
    profile: ExpansionProfile,
    cap: int = EXHAUSTIVE_CAP,
    seed: int = 0,
) -> ExtractionResult:
    """Find an expanding subgraph H with d(H) >= d(G)/2 and min degree
    >= d(H)/2.

    Alternates half-average-degree peeling with descent into X u N(X)
    whenever verification refutes expansion and the witness neighborhood
    keeps average degree at least d(G)/2.  The order strictly decreases,
    so the loop terminates; the final verdict is attached as evidence.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot extract from the empty graph")
    floor_avg = average_degree(g) / 2
    h, ids = _half_average_core(g)
    while True:
        mode = "exhaustive" if h.n <= cap else "sampled"
        verdict = verify_expander(h, profile, mode=mode, seed=seed, cap=cap)
        if verdict.status != "refuted":
            return ExtractionResult(h, ids, verdict)
        witness = verdict.witness or frozenset()
        region = set(witness)
        for v in witness:
            region.update(h.neighbors(v))
        if len(region) >= h.n:
            return ExtractionResult(h, ids, verdict)
        cand, cand_ids = h.induced(region)
        if cand.n == 0 or average_degree(cand) < floor_avg:
            return ExtractionResult(h, ids, verdict)
        core, core_ids = _half_average_core(cand)
        h = core
        ids = tuple(ids[cand_ids[i]] for i in core_ids)


def extract_bipartite_expander(
    g: Graph,
    d: Fraction | float,
    profile: ExpansionProfile,
    cap: int = EXHAUSTIVE_CAP,
    seed: int = 0,
) -> ExtractionResult:
    """Bipartite expander H inside G with min degree >= d.

    Requires d(G) >= 8d.  Takes the crossing half (keeps half the edges),
    extracts an expander from it, then peels to restore the min-degree
    floor; the composition keeps enough density at every step.
    """
    if g.n == 0:
        raise EmptyGraphError("cannot extract from the empty graph")
    d = Fraction(d).limit_denominator(10**9) if not isinstance(d, Fraction) else d
    if average_degree(g) < 8 * d:
        raise DensityTooLowError(
            f"need average degree >= {8 * d}, have {average_degree(g)}"
        )
    half, _sides = bipartite_half(g)
    res = extract_expander(half, profile, cap=cap, seed=seed)
    t = math.ceil(d)
    core, core_ids = min_degree_peel(res.graph, t)
    if core.n == 0:
        raise DensityTooLowError(
            f"min-degree floor {t} emptied the expanding subgraph"
        )
    ids = tuple(res.ids[i] for i in core_ids)
    return ExtractionResult(core, ids, res.verdict)


def kst_free_profile_transform(
    profile: ExpansionProfile, d: float, s: int, t: int
) -> ExpansionProfile:
    """Trade profile strength for a smaller start point on hosts with no
    K_{s,t}: an (eps1, eps2 * d^(s/(s-1)))-expander of min degree >= d/16
    is also an (eps1, eps2 * d)-expander.

    The caller's profile must have k = eps2 * d^(s/(s-1)) with
    0 < eps2 < 1 / (100000 * t); returns the profile with k = eps2 * d.
    """
    if t < s or s < 2:
        raise InvalidArgumentError("need t >= s >= 2")
    if d <= 0:
        raise InvalidArgumentError("need d > 0")
    exponent = s / (s - 1)
    eps2 = profile.k / d**exponent
    if not 0 < eps2 < 1.0 / (100000 * t):
        raise InvalidArgumentError(
            f"derived eps2 = {eps2} outside (0, 1/{100000 * t})"
        )
    return ExpansionProfile(profile.epsilon1, eps2 * d)
