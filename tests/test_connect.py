"""Short robust connections between vertex sets."""

import random

import mpmath
import pytest

from balsub.connect import (
    PathWitness,
    check_path,
    diameter_bound,
    robust_budget,
    short_connect,
)
from balsub.expander import ExpansionProfile
from balsub.generators import complete_graph, gnp, hypercube, path_graph
from balsub.outcomes import InvalidArgumentError


def test_path_witness_validates_shape():
    w = PathWitness((3, 1, 4))
    assert w.length == 2
    assert w.ends == (3, 4)
    assert w.interior() == (1,)
    assert w.reversed().vertices == (4, 1, 3)
    with pytest.raises(InvalidArgumentError):
        PathWitness(())
    with pytest.raises(InvalidArgumentError):
        PathWitness((1, 2, 1))


def test_check_path_against_host():
    g = path_graph(4)
    assert check_path(g, PathWitness((0, 1, 2, 3)))
    assert not check_path(g, PathWitness((0, 2)))


def test_diameter_bound_at_n_equals_k():
    # ceil(ln^3 15) with epsilon1 = 2
    mpmath.mp.dps = 30
    oracle = int(mpmath.ceil(mpmath.log(15) ** 3))
    assert oracle == 20
    assert diameter_bound(15, ExpansionProfile(2.0, 15.0)) == 20


def test_diameter_bound_at_n_fifteen_k():
    # ceil(2 ln^3 225) -- the exact value is 318 (2 ln^3 225 = 317.03...)
    mpmath.mp.dps = 30
    exact = 2 * mpmath.log(225) ** 3
    assert float(exact) < 318
    assert diameter_bound(225, ExpansionProfile(1.0, 15.0)) == 318


def test_diameter_bound_clamped_to_one():
    assert diameter_bound(10, ExpansionProfile(1e9, 10.0)) == 1


def test_robust_budget_small_values():
    p = ExpansionProfile(1.0, 15.0)
    assert robust_budget(1, p) == 0  # below k/5
    assert robust_budget(15, p) == 0  # floor(15 * 0.1364 / 4)


def test_robust_budget_large_value():
    mpmath.mp.dps = 30
    oracle = int(mpmath.floor(10**6 / (4 * mpmath.log(10**6) ** 2)))
    assert oracle == 1309
    assert robust_budget(10**6, ExpansionProfile(1.0, 15.0)) == 1309


def test_short_connect_direct_edge():
    g = complete_graph(5)
    w = short_connect(g, [0], [4], avoid=[1, 2, 3], cap=1)
    assert w is not None and w.vertices == (0, 4)


def test_short_connect_blocked_cut_vertex():
    g = path_graph(5)
    assert short_connect(g, [0], [4], avoid=[2]) is None


def test_short_connect_validates_overlap():
    g = complete_graph(4)
    with pytest.raises(InvalidArgumentError):
        short_connect(g, [0, 1], [1, 2])
    with pytest.raises(InvalidArgumentError):
        short_connect(g, [0], [2], avoid=[0])
    with pytest.raises(InvalidArgumentError):
        short_connect(g, [], [2])


def test_short_connect_interior_avoids_endpoint_sets():
    g = complete_graph(7)
    w = short_connect(g, [0, 1], [5, 6], avoid=[3])
    assert w is not None
    assert w.vertices[0] in (0, 1) and w.vertices[-1] in (5, 6)
    for v in w.interior():
        assert v not in (0, 1, 5, 6, 3)


def test_short_connect_matches_plain_bfs_distance():
    for seed in range(30):
        g = gnp(14, 0.3, seed)
        rng = random.Random(seed)
        a, b = {0}, {g.n - 1}
        avoid = {v for v in range(1, g.n - 1) if rng.random() < 0.2}
        w = short_connect(g, a, b, avoid=avoid)
        # oracle: BFS on the graph with avoid deleted
        left, ids = g.delete(avoid)
        back = {old: new for new, old in enumerate(ids)}
        dist = left.bfs_distances([back[0]])
        expected = dist.get(back[g.n - 1])
        if expected is None:
            assert w is None
        else:
            assert w is not None and w.length == expected
            assert check_path(g, w)
            assert not set(w.vertices) & avoid


def test_short_connect_deterministic_tie_break():
    g = complete_graph(6)
    w1 = short_connect(g, [0], [5])
    w2 = short_connect(g, [0], [5])
    assert w1.vertices == w2.vertices == (0, 5)


def test_hypercube_antipodal_balls_baseline():
    # two antipodal 32-vertex balls in Q10; a random 50-vertex avoid set
    # almost never pushes the connection length above the dimension
    g = hypercube(10)
    mask = (1 << 10) - 1
    found = 0
    for seed in range(100):
        rng = random.Random(seed)
        center = rng.randrange(g.n)
        ball_a = _ball(g, center, 32)
        ball_b = frozenset(v ^ mask for v in ball_a)
        if ball_a & ball_b:
            continue
        pool = [v for v in g.vertices() if v not in ball_a | ball_b]
        avoid = rng.sample(pool, 50)
        cap = diameter_bound(g.n, ExpansionProfile(1.0, 15.0))
        w = short_connect(g, ball_a, ball_b, avoid=avoid, cap=cap)
        if w is not None and w.length <= 10:
            found += 1
    assert found >= 99


def _ball(g, center, size):
    dist = g.bfs_distances([center])
    ordered = sorted(dist, key=lambda v: (dist[v], v))
    return frozenset(ordered[:size])
