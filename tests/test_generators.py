"""Graph families and the canonical edge-list format."""

import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from balsub import generators
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
    path_graph,
    to_edge_list,
)
from balsub.graph import Graph, degree_stats
from balsub.outcomes import InvalidArgumentError, TooLargeError


def test_gnp_is_seed_deterministic():
    assert gnp(12, 0.3, 7).edges() == gnp(12, 0.3, 7).edges()
    assert gnp(12, 0.3, 7).edges() != gnp(12, 0.3, 8).edges()


def test_gnp_extremes():
    assert gnp(6, 0.0, 1).edge_count() == 0
    assert gnp(6, 1.0, 1).edge_count() == 15


def test_bipartite_gnp_respects_sides():
    g, (s1, s2) = bipartite_gnp(5, 7, 1.0, 3)
    assert g.n == 12 and g.edge_count() == 35
    assert s1 == frozenset(range(5)) and s2 == frozenset(range(5, 12))
    for u, v in g.edges():
        assert (u in s1) != (v in s1)


def test_kdd_two_blocks():
    g = kdd(4, 2)
    assert g.n == 16
    assert g.edge_count() == 32
    s = degree_stats(g)
    assert s.minimum == s.maximum == 4
    assert len(g.components()) == 2


def test_kdd_one_block_is_complete_bipartite():
    assert kdd(3, 1).edges() == complete_bipartite(3, 3).edges()


def test_hypercube_regular():
    g = hypercube(4)
    assert g.n == 16 and g.edge_count() == 32
    s = degree_stats(g)
    assert s.minimum == s.maximum == 4
    assert g.two_coloring() is not None


def test_cycle_and_path_sizes():
    assert cycle_graph(9).edge_count() == 9
    assert path_graph(9).edge_count() == 8
    assert complete_graph(6).edge_count() == 15


def test_incidence_plane_fano():
    # q=2: the Heawood graph, 3-regular on 14 vertices with 21 edges
    g = incidence_plane(2)
    assert g.n == 14 and g.edge_count() == 21
    s = degree_stats(g)
    assert s.minimum == s.maximum == 3
    assert g.two_coloring() is not None


@pytest.mark.parametrize("q", [2, 3, 5])
def test_incidence_plane_counts_and_girth(q):
    g = incidence_plane(q)
    n_points = q * q + q + 1
    assert g.n == 2 * n_points
    assert g.edge_count() == n_points * (q + 1)
    s = degree_stats(g)
    assert s.minimum == s.maximum == q + 1
    # C4-freeness: no two vertices share two common neighbors
    for u in g.vertices():
        for v in range(u + 1, g.n):
            common = set(g.neighbors(u)) & set(g.neighbors(v))
            assert len(common) <= 1


def test_incidence_plane_rejects_nonprime():
    with pytest.raises(InvalidArgumentError):
        incidence_plane(4)
    with pytest.raises(InvalidArgumentError):
        incidence_plane(1)


def test_edge_list_canonical_form():
    g = cycle_graph(3)
    text = to_edge_list(g)
    assert text == "n 3\n0 1\n0 2\n1 2\n"
    assert to_edge_list(from_edge_list(text)) == text


def test_edge_list_rejects_malformed():
    with pytest.raises(InvalidArgumentError):
        from_edge_list("3\n0 1\n")
    with pytest.raises(InvalidArgumentError):
        from_edge_list("n 3\n1 0\n")  # u < v required
    with pytest.raises(InvalidArgumentError):
        from_edge_list("n 3\n0 1 2\n")


@given(st.integers(1, 14), st.integers(0, 10**6))
def test_edge_list_round_trip(n, seed):
    g = gnp(n, 0.4, seed)
    text = to_edge_list(g)
    back = from_edge_list(text)
    assert back.n == g.n and back.edges() == g.edges()
    assert to_edge_list(back) == text


def _line_loop(text):
    """The edge-list reader as a plain loop over lines, with no bulk pass:
    the oracle `from_edge_list` must agree with on every document."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidArgumentError("empty edge-list document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise InvalidArgumentError(f"bad header line: {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise InvalidArgumentError(f"bad vertex count: {head[1]!r}") from exc
    edges = []
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
        edges.append((u, v))
    return Graph(n, edges)


def _outcome(call, *args):
    """What `call(*args)` returns, or the type and message of what it
    raises."""
    try:
        return call(*args)
    except Exception as exc:  # any exception must match the oracle's
        return type(exc), str(exc)


# Text spliced into a document: line ends and whitespace the bulk pass does
# not take (U+2028 ends a line for `str.splitlines`), ids that `int` reads
# but that are not canonical, ids that `int` refuses (U+0663 is ARABIC-INDIC
# DIGIT THREE), and nothing, which deletes the character it replaces.
_SPLICES = [
    "\r\n", "\t", "\n\n", "\n", " ", "\u2028", "05", "+1", "-1", "\u0663", "1_0", "x",
    "0", "9", "12", "",
]


@st.composite
def edge_list_documents(draw):
    """Canonical edge-list text, then up to three edits that keep it
    well-formed or break it."""
    n = draw(st.integers(0, 12))
    text = to_edge_list(gnp(n, draw(st.sampled_from([0.0, 0.3, 0.7])), draw(st.integers(0, 99))))
    lines = text.splitlines()
    for edit in draw(st.lists(st.integers(0, 6), max_size=3)):
        spot = draw(st.integers(0, len(lines)))
        if edit == 0:  # a duplicate line
            lines.insert(spot, draw(st.sampled_from(lines)))
        elif edit == 1:  # lines out of order, the header included or not
            keep = draw(st.integers(0, 1))
            lines = lines[:keep] + draw(st.permutations(lines[keep:]))
        elif edit == 2:  # an extra line of one, two or three ids, any order or range
            ids = draw(st.lists(st.integers(0, 14), min_size=1, max_size=3))
            lines.insert(spot, " ".join(map(str, ids)))
        elif edit == 3 and len(lines) > 1:  # a line turned round, so u > v
            spot = max(spot, 1) if spot < len(lines) else 1
            lines[spot] = " ".join(reversed(lines[spot].split(" ")))
        elif edit == 4:  # a new header
            lines[:1] = [draw(st.sampled_from(["n 0", "n 3", "n 99", "n -1", "n", "m 3"]))]
        else:  # a splice that replaces nothing or one character
            joined = "\n".join(lines)
            at = draw(st.integers(0, len(joined)))
            cut = at + draw(st.integers(0, 1))
            lines = (joined[:at] + draw(st.sampled_from(_SPLICES)) + joined[cut:]).split("\n")
    text = "\n".join(lines) + draw(st.sampled_from(["\n", ""]))
    return draw(st.sampled_from([text] * 9 + ["", "n 0\n"]))


@settings(max_examples=400, deadline=None)
@given(edge_list_documents())
@example("n 3\n0 1\n0 2\n1 2\n")
@example("n 3\n0 1\n0 2\n1 2")  # no newline at the end
@example("n 3\n0\u20281\n")  # two lines to the line loop
@example("n 4\n0 1 2\n3\n")  # 2 ids a line on average, not on each
@example("n 4\n 0\n1 2\n3 \n")  # one id on a line, so ids pair across lines
@example("n 3\n01 2\n")  # a leading zero
@example("n 3\n0 1\n0 1\n")  # a repeated line
@example("n 3\n1 2\n0 1\n")  # lines out of order
@example("n 3\n1 0\n")  # u > v
@example("n 3\n1 3\n")  # an id past n - 1
def test_edge_list_reader_agrees_with_the_line_loop(text):
    assert _outcome(from_edge_list, text) == _outcome(_line_loop, text)


@pytest.mark.parametrize(
    "g",
    [gnp(40, 0.3, 1), complete_graph(30), cycle_graph(5), kdd(3, 2), path_graph(300), Graph(0), Graph(4)],
    ids=repr,
)
def test_canonical_text_takes_the_bulk_pass(g):
    text = to_edge_list(g)
    bulk = generators._from_canonical_text(text)
    assert bulk is not None and bulk == g == _line_loop(text)


def test_ids_past_two_a_line_take_the_line_loop():
    # the id table grows with the text, so a huge vertex count costs the
    # bulk pass nothing; ids it leaves out can only sit above isolated ones
    g = Graph(300, [(7, 299), (0, 256)])
    text = to_edge_list(g)
    assert generators._from_canonical_text(text) is None
    assert from_edge_list(text) == g


def test_bulk_reader_builds_the_adjacency_of_the_constructor():
    g = Graph(600, [(u + 300, v + 300) for u, v in gnp(300, 0.1, 3).edges()])
    text = to_edge_list(g)
    assert len(text) > 2 * generators._BLOCK  # read in several blocks
    bulk = generators._from_canonical_text(text)
    assert bulk == g == _line_loop(text)
    # every id here is over 256, so `int` makes an object per occurrence;
    # the bulk pass maps each vertex to one object of its table
    objects = {id(w) for v in bulk.vertices() for w in bulk.neighbors(v)}
    assert len(objects) == sum(1 for v in bulk.vertices() if bulk.degree(v))


@pytest.mark.parametrize(
    "us, vs",
    [
        ([0, 0, 1], [1, 2, 2]),
        ([0, 1, 0], [1, 2, 2]),  # out of order
        ([0, 0, 1], [1, 1, 2]),  # a repeated edge
        ([0, 1], [2, 0]),  # u > v
        ([1], [1]),  # a self-loop
        ([0], [3]),  # outside 0..n-1
        ([-1], [0]),
        ([], []),
        ([0], [2]),  # vertex 1 has no edge
    ],
)
def test_from_ends_is_the_constructor(us, vs):
    assert _outcome(Graph.from_ends, 3, us, vs) == _outcome(Graph, 3, zip(us, vs))


def _peak_bytes(call):
    """The tracemalloc peak of `call()`, above what was held before it."""
    tracemalloc.start()
    try:
        held = tracemalloc.get_traced_memory()[0]
        call()
        return tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()


def test_edge_list_reader_and_writer_stay_within_a_few_text_lengths():
    # K160 gives an 84 KB text.  Reading it peaks near 9 times that, writing
    # near 2 times; a split of the whole text (17 times) or a whole-text
    # regular expression (41 times) goes past these bounds, as did the line
    # loop (36 and 18 times)
    g = complete_graph(160)
    text = to_edge_list(g)
    assert _peak_bytes(lambda: from_edge_list(text)) < 12 * len(text)
    assert _peak_bytes(lambda: to_edge_list(g)) < 4 * len(text)


# Headers naming more than MAX_VERTICES vertices: a digit string past the
# 4 300 digits `int` reads, and counts far and just past the limit, each
# also with a leading space, which the bulk pass leaves to the line loop.
OVERSIZED_HEADERS = {
    "digits": "n " + "9" * 5000 + "\n0 1\n",
    "huge-n": "n 99999999999999999999\n0 1\n",
    "limit-plus-one": "n 1048577\n",
}
OVERSIZED_HEADERS.update(
    {f"{name}-line-loop": " " + text for name, text in OVERSIZED_HEADERS.items()}
)


@pytest.mark.parametrize("text", OVERSIZED_HEADERS.values(), ids=OVERSIZED_HEADERS)
def test_an_oversized_vertex_count_is_refused_before_any_allocation(text):
    assert generators.MAX_VERTICES == 1 << 20
    if text.startswith(" "):
        assert generators._from_canonical_text(text) is None

    def read():
        with pytest.raises(TooLargeError, match="exceeds the limit of 1048576"):
            from_edge_list(text)

    # a graph on MAX_VERTICES vertices takes over 100 MB
    assert _peak_bytes(read) < 64 * 1024


def test_a_vertex_count_within_the_limit_is_read():
    # leading zeros do not count against the digit limit
    assert from_edge_list("n " + "0" * 30 + "5\n0 1\n") == Graph(5, [(0, 1)])
    assert from_edge_list("n +5\n0 1\n") == Graph(5, [(0, 1)])
    with pytest.raises(InvalidArgumentError, match="bad vertex count"):
        from_edge_list("n +" + "9" * 5000 + "\n")


@pytest.mark.parametrize(
    "text", [f"n {generators.MAX_VERTICES}", f"n {generators.MAX_VERTICES}\n\n"],
    ids=["no-final-newline", "blank-line"],
)
def test_the_line_loop_costs_no_object_per_vertex_without_edges(text):
    # these take the line loop, whose lines in canonical order get the bulk
    # build: 17 MB, where a set per vertex in the constructor peaked at 244 MB
    assert generators._from_canonical_text(text) is None
    graphs = []
    assert _peak_bytes(lambda: graphs.append(from_edge_list(text))) < 25 * 10**6
    g = graphs[0]
    assert g.n == generators.MAX_VERTICES and g.edge_count() == 0
    assert {g.neighbors(v) for v in (0, 1, g.n - 1)} == {()}
    for small in ("n 5000", "n 5000\n\n0 1\n 0 3\n1 3", "n 5000\n1 3\n\n0 1\n"):
        assert generators._from_canonical_text(small) is None
        assert from_edge_list(small) == _line_loop(small)


def test_vertices_without_edges_cost_no_object_of_their_own():
    # a ten-byte document naming MAX_VERTICES vertices, none with an edge:
    # they share the empty tuple, so the peak is the adjacency's pointers,
    # not the 151 MB of a slice and a list per vertex
    text = f"n {generators.MAX_VERTICES}\n"
    graphs = []
    assert _peak_bytes(lambda: graphs.append(from_edge_list(text))) < 25 * 10**6
    g = graphs[0]
    assert g.n == generators.MAX_VERTICES and g.edge_count() == 0
    assert {g.neighbors(v) for v in (0, 1, g.n - 1)} == {()}
    # smaller documents with such vertices, below, between and above edges
    for text in ("n 5000\n", "n 5000\n0 1\n", "n 5000\n0 1\n0 3\n1 3\n"):
        g = generators._from_canonical_text(text)
        assert g is not None and g == _line_loop(text)
        assert to_edge_list(g) == text
