"""Dependent random choice, the dense TK^(2) embedder, and degree bounds.

All probability claims are converted to Las Vegas procedures: outputs are
verified exhaustively before being returned, and randomness only controls
how long that takes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from typing import Iterable

from .certify import SubdivisionCertificate, require_verified
from .connect import PathWitness
from .graph import Graph
from .outcomes import BuildFailure, InvalidArgumentError, SearchBudgetExceeded

# default node budget of one dense_tk2 call, and of each segment search of
# the unit pipeline (`Overrides.node_budget`, `balsub find --node-budget`)
NODE_BUDGET = 200_000


@dataclass(frozen=True)
class DrcParams:
    """Sample count t, subset size r, common-neighbor demand c, target a."""

    t: int
    r: int
    c: int
    a: int

    def __post_init__(self) -> None:
        if min(self.t, self.r, self.c, self.a) < 1:
            raise InvalidArgumentError("all DRC parameters must be >= 1")
        if self.r > self.a:
            raise InvalidArgumentError("subset size r cannot exceed target a")


def drc_feasible(n1: int, n2: int, alpha, p: DrcParams) -> bool:
    """Exact rational check of alpha^t*n1 - C(n1,r)*(c/n2)^t >= a."""
    if n1 < 0 or n2 < 1:
        raise InvalidArgumentError("need n1 >= 0 and n2 >= 1")
    a = Fraction(alpha)
    if not 0 <= a <= 1:
        raise InvalidArgumentError("alpha must lie in [0, 1]")
    lhs = a**p.t * n1 - comb(n1, p.r) * Fraction(p.c, n2) ** p.t
    return lhs >= p.a


def _common_count(masks: tuple[int, ...], vertices: Iterable[int], within: int) -> int:
    """How many vertices of the bitset `within` neighbour every vertex."""
    for v in vertices:
        within &= masks[v]
    return within.bit_count()


def drc_select(
    g: Graph,
    partition: tuple[Iterable[int], Iterable[int]],
    p: DrcParams,
    seed: int,
    max_retries: int = 64,
) -> frozenset[int] | BuildFailure:
    """Select A0 within V1 such that every r-subset of A0 has at least c
    common neighbors in V2 and |A0| >= a.

    Samples t vertices of V2 with repetition, takes their common
    neighborhood, then deletes one vertex (the largest id) from each bad
    r-subset.  The two guarantees are re-verified exhaustively before
    returning; fresh randomness is drawn on failure.  Edges must not run
    inside either part (edges touching vertices outside both parts are
    ignored).
    """
    v1 = g.check_subset(partition[0])
    v2 = g.check_subset(partition[1])
    if v1 & v2:
        raise InvalidArgumentError("partition sides overlap")
    masks = g.neighbor_masks()
    # the bits of distinct vertices never carry, so each sum is a union
    m1, m2 = sum(1 << u for u in v1), sum(1 << w for w in v2)
    if any(masks[u] & m1 for u in v1) or any(masks[u] & m2 for u in v2):
        raise InvalidArgumentError("an edge runs inside one side")
    if not v2:
        raise InvalidArgumentError("second side is empty")
    crossing = sum((masks[u] & m2).bit_count() for u in v1)
    alpha = Fraction(crossing, len(v1) * len(v2)) if v1 else Fraction(0)
    if not drc_feasible(len(v1), len(v2), alpha, p):
        raise InvalidArgumentError("parameters are infeasible for this host")

    rng = random.Random(seed)
    pool2 = sorted(v2)
    for _ in range(max_retries):
        hood = sum(1 << s for s in {rng.choice(pool2) for _ in range(p.t)})
        a_set = sorted(u for u in v1 if hood & ~masks[u] == 0)
        deleted: set[int] = set()
        for subset in combinations(a_set, p.r):
            if deleted.isdisjoint(subset) and _common_count(masks, subset, m2) < p.c:
                deleted.add(max(subset))
        a0 = frozenset(u for u in a_set if u not in deleted)
        if len(a0) >= p.a and all(
            _common_count(masks, subset, m2) >= p.c
            for subset in combinations(sorted(a0), p.r)
        ):
            return a0
    return BuildFailure(
        "retries_exhausted", f"no valid selection in {max_retries} attempts"
    )


# -- dense TK^(2) embedding ----------------------------------------------------


def _middle_matching(
    g: Graph, branch: list[int]
) -> dict[tuple[int, int], int] | None:
    """Assign a distinct middle vertex to every branch pair (Kuhn).

    Each pair tries its common neighbours off the branch in increasing id,
    and one `banned` mask is shared by the whole search for an augmenting
    path.  The path is followed on an explicit stack, one frame per pair
    on it: in a clique each new pair can shift every earlier one, so the
    path can hold all C(k, 2) pairs.
    """
    masks = g.neighbor_masks()
    bmask = 0
    for b in branch:
        bmask |= 1 << b
    pairs = list(combinations(sorted(branch), 2))
    cands: dict[tuple[int, int], int] = {}
    for u, v in pairs:
        cands[(u, v)] = masks[u] & masks[v] & ~bmask
        if not cands[(u, v)]:
            return None
    owner: dict[int, tuple[int, int]] = {}
    for pair in pairs:
        banned = 0
        # frames of [pair, the middle it is trying]; a pair's untried
        # candidates are the unbanned ones, since each one tried is banned
        stack = [[pair, -1]]
        while stack:
            frame = stack[-1]
            left = cands[frame[0]] & ~banned
            if not left:
                stack.pop()
                continue
            low = left & -left
            banned |= low
            frame[1] = m = low.bit_length() - 1
            if m in owner:
                stack.append([owner[m], -1])
                continue
            # m is free: every pair on the stack takes the middle it tried
            for held, middle in stack:
                owner[middle] = held
            break
        else:
            return None
    return {pair: m for m, pair in owner.items()}


def _branch_pool(g: Graph, comp: frozenset[int], k: int) -> tuple[frozenset[int], str]:
    """Vertices of `comp` that can be branch vertices of a TK_k^(2), and
    the bound that refutes the component when there are none.

    A branch vertex starts k-1 paths through distinct neighbours, so its
    degree is at least k-1.  A path of length 2 joins vertices of one
    colour, so in a bipartite component the branch vertices share a side
    and the C(k,2) middles lie on the other: a side can hold the branch
    only with k vertices of degree >= k-1 and C(k,2) vertices opposite,
    and only when the parity bound (`_odd_plane_side`) does not refute it.
    """
    strong = frozenset(v for v in comp if g.degree(v) >= k - 1)
    dist = g.bfs_distances([min(comp)])
    if any(dist[u] % 2 == dist[w] % 2 for u in comp for w in g.neighbors(u)):
        label, sides = "component", [(strong, None)]
    else:
        even = frozenset(v for v in comp if dist[v] % 2 == 0)
        label, sides = "bipartite component", [
            (strong & even, comp - even),
            (strong - even, even),
        ]
    pool: set[int] = set()
    reasons: list[str] = []
    for hubs, opposite in sides:
        if len(hubs) < k:
            reasons.append(
                f"{len(hubs)} vertices of degree >= {k - 1}, {k} branch vertices needed"
            )
        elif opposite is not None and len(opposite) < comb(k, 2):
            reasons.append(
                f"{len(opposite)} vertices opposite the branch side, "
                f"C({k},2)={comb(k, 2)} middles needed"
            )
        elif opposite is not None and _odd_plane_side(g, hubs, k):
            reasons.append(
                f"{len(hubs)} vertices of degree {k - 1} pairwise sharing one "
                f"neighbour, and an odd k={k} cannot pair off"
            )
        else:
            pool |= hubs
    return frozenset(pool), f"{label}: " + "; ".join(dict.fromkeys(reasons))


def _odd_plane_side(g: Graph, hubs: frozenset[int], k: int) -> bool:
    """Whether parity refutes a TK_k^(2) with its branch in `hubs`: k is
    odd, there are more than k hubs, each of degree exactly k-1, and every
    two of them share exactly one neighbour.  The incidence graph of a
    projective plane of odd order q is such a host at k = q + 2.

    Proof.  A branch vertex b of degree k-1 starts its k-1 paths through
    distinct neighbours, so every neighbour w of b is the middle of one
    pair {b, b'}, and so adjacent to b'.  No third branch vertex b'' is
    adjacent to w: w would be the one common neighbour of b and b'', and
    that pair needs a middle other than w.  Now take a hub u off the
    branch, and for each branch vertex b let w_b be the one common
    neighbour of u and b.  w_b is adjacent to exactly b and one b' on the
    branch, and u and b' share it too, so w_b = w_b'.  The map b -> w_b
    thus pairs off the k branch vertices, and k is even.

    The test costs about |hubs|^2 / 2 mask ANDs, and stops at the first
    pair that shares no neighbour or two.
    """
    if k % 2 == 0 or len(hubs) <= k or any(g.degree(v) != k - 1 for v in hubs):
        return False
    masks = g.neighbor_masks()
    seen: list[int] = []
    for v in hubs:
        mask = masks[v]
        if any((mask & other).bit_count() != 1 for other in seen):
            return False
        seen.append(mask)
    return True


def _c4_free(g: Graph, comp: frozenset[int]) -> bool:
    """Whether every pair of vertices of `comp` has at most one common
    neighbour."""
    masks = g.neighbor_masks()
    for v in comp:
        seen = 0
        for w in g.neighbors(v):
            others = masks[w] & ~(1 << v)
            if seen & others:
                return False
            seen |= others
    return True


def dense_tk2(
    g: Graph, k: int, seed: int = 0, node_budget: int = NODE_BUDGET
) -> SubdivisionCertificate | BuildFailure:
    """Embed a TK_k^(2): k branch vertices plus one distinct middle vertex
    per pair.

    Backtracking over branch sets in (degree desc, id asc) order; middles
    are assigned by bipartite matching rather than greedily.  On bipartite
    hosts a dependent-random-choice pass reorders candidates toward a side
    whose subsets are rich in common neighbors.  Four prunes cut only
    subtrees that hold no TK_k^(2), so the first embedding in that order is
    the one returned and, within the node budget, the answer is exact:
    a certificate, or a "no_embedding" refutation that says no TK_k^(2)
    exists.  A search that spends its budget first is "budget_exhausted".

    - Side bound: branch vertices have degree >= k-1, and in a bipartite
      component they share a side with k such vertices and C(k,2)
      vertices opposite; a component without one is refuted unsearched.
    - Parity bound: an odd k is refuted unsearched on a bipartite side of
      more than k candidates, each of degree exactly k-1, every two
      sharing exactly one neighbour, as on the incidence graph of a
      projective plane of odd order q at k = q + 2.  A branch vertex then
      uses each neighbour as the middle of one pair, and a candidate off
      the branch pairs the branch vertices off by the neighbour it shares
      with each; the proof is in `_odd_plane_side`.
    - Candidate mask: a node keeps the later candidates that share a
      neighbour with every branch vertex so far, and a candidate whose
      mask cannot complete k branch vertices is skipped.  Each branch
      vertex's neighbours off the branch are taken once per node, and a
      candidate is dropped at its first pair with no common neighbour.
    - Forced middles: when every pair of vertices in the component has at
      most one common neighbour, each pair's middle is forced, and a
      vertex adjacent to a used middle is dropped from the mask.
    """
    if k < 2:
        raise InvalidArgumentError("need k >= 2")
    need = k + comb(k, 2)
    comps = [c for c in g.components() if len(c) >= need]
    if not comps:
        return BuildFailure(
            "no_embedding", f"no component has the {need} vertices required"
        )

    nodes = 0
    masks = g.neighbor_masks()

    def search(order: list[int], c4_free: bool) -> SubdivisionCertificate | None:
        nonlocal nodes
        # near[w]: order positions of w's neighbours; share[i]: positions of
        # the vertices sharing a neighbour with order[i]
        near = [0] * g.n
        for i, v in enumerate(order):
            for w in g.neighbors(v):
                near[w] |= 1 << i
        share = []
        for i, v in enumerate(order):
            m = 0
            for w in g.neighbors(v):
                m |= near[w]
            share.append(m & ~(1 << i))

        def extend(branch: list[int], bmask: int, union: int, cand: int):
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise SearchBudgetExceeded
            if len(branch) == k:
                middles = _middle_matching(g, branch)
                if middles is None:
                    return None
                paths = {
                    pair: PathWitness((pair[0], m, pair[1]))
                    for pair, m in middles.items()
                }
                return SubdivisionCertificate.from_paths(2, branch, paths)
            # each branch vertex's neighbours off the branch, once per node
            offs = [masks[u] & ~bmask for u in branch]
            off_union = 0
            for off in offs:
                off_union |= off
            # a branch one vertex longer needs this many distinct middles
            middles_needed = comb(len(branch) + 1, 2)
            # candidates in position order, while enough remain to reach k
            while len(branch) + cand.bit_count() >= k:
                low = cand & -cand
                cand ^= low
                idx = low.bit_length() - 1
                v = order[idx]
                # every pair needs a common neighbour off the branch
                mask_v = masks[v]
                if not all(map(mask_v.__and__, offs)):
                    continue
                # later candidates must share a neighbour with v too
                grown = cand & share[idx]
                if c4_free:
                    # each pair's one common neighbour is its middle, so
                    # no later branch vertex may be adjacent to it
                    for off in offs:
                        grown &= ~near[(off & mask_v).bit_length() - 1]
                if len(branch) + 1 + grown.bit_count() < k:
                    continue
                # the union of the common neighbours of every pair so far
                grown_union = union | (mask_v & off_union)
                grown_mask = bmask | (1 << v)
                if (grown_union & ~grown_mask).bit_count() >= middles_needed:
                    branch.append(v)
                    found = extend(branch, grown_mask, grown_union, grown)
                    if found is not None:
                        return found
                    branch.pop()
            return None

        return extend([], 0, 0, (1 << len(order)) - 1)

    coloring = g.two_coloring()
    refutations: list[str] = []
    try:
        for comp in comps:
            pool, refutation = _branch_pool(g, comp, k)
            if not pool:
                refutations.append(refutation)
                continue
            order = sorted(comp, key=lambda v: (-g.degree(v), v))
            if coloring is not None:
                order = _drc_reorder(g, comp, coloring, k, seed, order)
            cert = search([v for v in order if v in pool], _c4_free(g, comp))
            if cert is not None:
                require_verified(g, cert)
                return cert
    except SearchBudgetExceeded:
        return BuildFailure(
            "budget_exhausted", f"search budget of {node_budget} nodes exhausted"
        )
    if len(refutations) == len(comps):
        return BuildFailure("no_embedding", "; ".join(dict.fromkeys(refutations)))
    return BuildFailure("no_embedding", f"no TK_{k} with all edges subdivided once")


def _drc_reorder(
    g: Graph,
    comp: tuple[int, ...],
    coloring: dict[int, int],
    k: int,
    seed: int,
    order: list[int],
) -> list[int]:
    """Move a DRC-selected subset to the front of the candidate order."""
    side0 = frozenset(v for v in comp if coloring[v] == 0)
    side1 = frozenset(v for v in comp if coloring[v] == 1)
    for v1, v2 in ((side0, side1), (side1, side0)):
        if len(v1) < k or not v2:
            continue
        try:
            pick = drc_select(
                g, (v1, v2), DrcParams(t=2, r=2, c=min(k, len(v2)), a=k), seed
            )
        except InvalidArgumentError:
            continue
        if isinstance(pick, BuildFailure):
            continue
        return sorted(order, key=lambda v: v not in pick)  # stable: picks first
    return order


# -- Kővári–Sós–Turán bound ----------------------------------------------------


def _falling_binomial(x: Fraction, s: int) -> Fraction:
    out = Fraction(1)
    for i in range(s):
        out *= x - i
    return out / factorial(s)


def kst_degree_bound(nA: int, nB: int, s: int, t: int) -> Fraction:
    """Largest average degree d of an nA-side compatible with K_{s,t}
    freeness: nA*C(d, s) <= t*C(nB, s), solved to 1e-9 by bisection on the
    generalized binomial; clamped to nB."""
    if s < 1 or t < 1 or nA < 1 or nB < 0:
        raise InvalidArgumentError("need nA, s, t >= 1 and nB >= 0")
    if s == 1:
        return min(Fraction(t * nB, nA), Fraction(nB))
    rhs = t * comb(nB, s)

    def overfull(x: Fraction) -> bool:
        return nA * _falling_binomial(x, s) > rhs

    hi = Fraction(nB)
    if not overfull(hi):
        return hi
    lo = Fraction(s - 1)
    while hi - lo > Fraction(1, 10**9):
        mid = (lo + hi) / 2
        if overfull(mid):
            hi = mid
        else:
            lo = mid
    return lo
