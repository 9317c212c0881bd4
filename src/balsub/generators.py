"""Deterministic graph families and the edge-list text format.

The text format is one header line ``n <vertex_count>`` followed by one
``u v`` line per edge, with ``u < v`` and both ids in ``0..n-1``.
`from_edge_list` accepts the lines in any order, collapses repeated lines
into one edge, and ignores blank lines and whitespace around and between
the numbers.  `to_edge_list` emits the canonical form: each edge once,
sorted lexicographically, one space between the ids and ``\n`` after each
line.  Equal graphs always serialize to identical bytes, and canonical text
is the form `from_edge_list` reads in bulk.  A header may name at most
`MAX_VERTICES` vertices.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from operator import lt

from .graph import Graph
from .outcomes import InvalidArgumentError, TooLargeError


def gnp(n: int, p: float, seed: int) -> Graph:
    """Binomial random graph; edge order of draws is fixed, so one seed
    always yields the same graph."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise InvalidArgumentError("need n >= 0 and 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


def bipartite_gnp(n1: int, n2: int, p: float, seed: int) -> tuple[Graph, tuple[frozenset[int], frozenset[int]]]:
    """Random bipartite graph on sides 0..n1-1 and n1..n1+n2-1."""
    if n1 < 0 or n2 < 0 or not 0.0 <= p <= 1.0:
        raise InvalidArgumentError("need n1, n2 >= 0 and 0 <= p <= 1")
    rng = random.Random(seed)
    edges = [
        (u, n1 + v)
        for u in range(n1)
        for v in range(n2)
        if rng.random() < p
    ]
    sides = (frozenset(range(n1)), frozenset(range(n1, n1 + n2)))
    return Graph(n1 + n2, edges), sides


def kdd(d: int, copies: int) -> Graph:
    """Disjoint union of `copies` complete bipartite blocks K_{d,d}."""
    if d < 1 or copies < 1:
        raise InvalidArgumentError("need d >= 1 and copies >= 1")
    edges = []
    for c in range(copies):
        base = c * 2 * d
        edges.extend(
            (base + i, base + d + j) for i in range(d) for j in range(d)
        )
    return Graph(2 * d * copies, edges)


def hypercube(dim: int) -> Graph:
    """The dim-dimensional hypercube on 2**dim bitmask-labelled vertices."""
    if dim < 0:
        raise InvalidArgumentError("dimension must be nonnegative")
    n = 1 << dim
    edges = [
        (v, v | (1 << b))
        for v in range(n)
        for b in range(dim)
        if not v & (1 << b)
    ]
    return Graph(n, edges)


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InvalidArgumentError("a cycle needs at least 3 vertices")
    return Graph(n, [(v, (v + 1) % n) for v in range(n)])


def path_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidArgumentError("a path needs at least 1 vertex")
    return Graph(n, [(v, v + 1) for v in range(n - 1)])


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise InvalidArgumentError("need at least 1 vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(a: int, b: int) -> Graph:
    if a < 1 or b < 1:
        raise InvalidArgumentError("both sides need at least 1 vertex")
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def _is_prime(q: int) -> bool:
    if q < 2:
        return False
    f = 2
    while f * f <= q:
        if q % f == 0:
            return False
        f += 1
    return True


def incidence_plane(q: int) -> Graph:
    """Point-line incidence graph of the projective plane of prime order q.

    Vertices 0..N-1 are points and N..2N-1 lines, N = q*q + q + 1.  The
    result is (q+1)-regular, bipartite, girth 6, and contains no 4-cycle
    (two points lie on exactly one common line).
    """
    if not _is_prime(q):
        raise InvalidArgumentError(f"order {q} is not prime")
    reps: list[tuple[int, int, int]] = []
    for x in range(q):
        for y in range(q):
            for z in range(q):
                if (x, y, z) == (0, 0, 0):
                    continue
                # keep only the representative whose first nonzero entry is 1
                first = x if x else (y if y else z)
                if first == 1:
                    reps.append((x, y, z))
    n_pts = q * q + q + 1
    assert len(reps) == n_pts
    edges = []
    for i, p in enumerate(reps):
        for j, l in enumerate(reps):
            if (p[0] * l[0] + p[1] * l[1] + p[2] * l[2]) % q == 0:
                edges.append((i, n_pts + j))
    return Graph(2 * n_pts, edges)


# -- canonical edge-list text ------------------------------------------------


def to_edge_list(g: Graph) -> str:
    """The canonical text of `g`.  Each vertex's higher neighbours become
    its run of ``u v`` lines in one `str.join`, with the ids' strings taken
    from a table built once per call."""
    names = list(map(str, range(g.n)))
    chunks = [f"n {g.n}\n"]
    for u in g.vertices():
        nbrs = g.neighbors(u)
        higher = nbrs[bisect_right(nbrs, u):]
        if higher:
            start = f"{u} "
            chunks.append(start + f"\n{start}".join(map(names.__getitem__, higher)) + "\n")
    return "".join(chunks)


def from_edge_list(text: str) -> Graph:
    """The graph an edge-list document describes.

    Accepts more than the canonical form: the lines may come in any order,
    a repeated line is one edge, and blank lines and whitespace around and
    between the numbers are ignored.  Each edge line still needs ``u < v``,
    and both ids inside ``0..n-1``.  Canonical text is read in bulk; any
    other text, or a bad one, goes through the line loop below, which names
    the first bad line.
    """
    g = _from_canonical_text(text)
    if g is not None:
        return g
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidArgumentError("empty edge-list document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise InvalidArgumentError(f"bad header line: {lines[0]!r}")
    n = _vertex_count(head[1])
    us: list[int] = []
    vs: list[int] = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise InvalidArgumentError(f"bad edge line: {ln!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise InvalidArgumentError(f"bad edge line: {ln!r}") from exc
        if u >= v:
            raise InvalidArgumentError(f"edge line not in u < v form: {ln!r}")
        us.append(u)
        vs.append(v)
    # lines in canonical order get the bulk build, so a vertex without
    # edges costs no set of its own; any others go to the constructor
    return Graph.from_ends(n, us, vs)


# The most vertices an edge-list header may name: a graph allocates per
# vertex, so a count is refused before anything is built from it.
MAX_VERTICES = 1 << 20


def _vertex_count(token: str) -> int:
    """The vertex count a header's second token names.  A digit string too
    long for a count within `MAX_VERTICES` is refused before `int` reads
    it, and a larger count right after."""
    if token.isdigit() and len(token.lstrip("0")) > len(str(MAX_VERTICES)):
        raise TooLargeError(
            f"vertex count of {len(token)} digits exceeds the limit of {MAX_VERTICES}"
        )
    try:
        n = int(token)
    except ValueError as exc:
        raise InvalidArgumentError(f"bad vertex count: {token!r}") from exc
    if n > MAX_VERTICES:
        raise TooLargeError(f"vertex count {n} exceeds the limit of {MAX_VERTICES}")
    return n


# Canonical text is read in blocks of about this many characters: a split
# of the whole text at once would hold one string per id of the document.
_BLOCK = 1 << 14
_DROP_DIGITS = str.maketrans("", "", "0123456789")


def _from_canonical_text(text: str) -> Graph | None:
    """The graph of `text` when every line is in canonical form, else None.

    Each check is a C-level pass over a block: with its ASCII digits
    deleted, a block of k lines must read ``" \\n" * k``; it must split into
    2k tokens; and each token must be a key of a table of the strings
    ``str(i)``, which turns away leading zeros and ids out of range.  Line
    order is left to `Graph.from_ends`.
    """
    end = text.find("\n")
    count = text[2:end]
    if end < 0 or not (
        text.startswith("n ") and count.isascii() and count.isdigit() and text.endswith("\n")
    ):
        return None  # past here every block ends at a newline
    n = _vertex_count(count)
    # the table grows with the text, not with n: a line names two ids, so
    # an id past the table leaves isolated vertices below it, and such a
    # document takes the line loop
    size = min(n, 2 * text.count("\n"))
    id_of = dict(zip(map(str, range(size)), range(size)))
    us: list[int] = []
    vs: list[int] = []
    start = end + 1
    while start < len(text):
        stop = text.find("\n", min(start + _BLOCK, len(text)) - 1) + 1
        block = text[start:stop]
        lines = block.count("\n")
        if block.translate(_DROP_DIGITS) != " \n" * lines:
            return None
        tokens = block.split()
        if len(tokens) != 2 * lines:
            return None
        try:
            ends = list(map(id_of.__getitem__, tokens))
        except KeyError:
            return None
        us += ends[0::2]
        vs += ends[1::2]
        start = stop
    if not all(map(lt, us, vs)):
        return None
    return Graph.from_ends(n, us, vs)
