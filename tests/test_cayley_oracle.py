"""BFS oracle: vertex ranks, graph structure and BFS sanity.

Vertices are enumerated here independently of the oracle (canonical
representatives filtered by membership in PSL2), and neighbours are formed as
s @ v over the generator images, so the structure checks do not rely on the
oracle's own traversal.
"""

import hashlib
from functools import cache
from itertools import product

import pytest

from lpsnav.cayley_oracle import (
    MAX_ORACLE_Q,
    _rank,
    _square_ranks,
    _squares,
    _unrank,
    bfs_distances,
    build_graph,
    diagonal_distance_census,
    diagonal_vertices,
)
from lpsnav.errors import ParameterError
from lpsnav.quaternion import GraphParams, PslElement


@cache
def psl_elements(q):
    """Every element of PSL2(F_q), one canonical matrix per class."""
    shapes = [(1, b, c, d) for b, c, d in product(range(q), repeat=3)]
    shapes += [(0, 1, c, d) for c, d in product(range(1, q), range(q))]
    out = []
    for m in shapes:
        if (m[0] * m[3] - m[1] * m[2]) % q == 0:
            continue
        g = PslElement.canonical(q, m)
        assert g.m == m
        if g.in_psl():
            out.append(g)
    return tuple(out)


def adjacency(graph):
    """vertex_index(v) -> [vertex_index(s @ v) for each generator image s]."""
    gens = graph.params.gen_images
    return {
        graph.vertex_index(v): [graph.vertex_index(s @ v) for s in gens]
        for v in psl_elements(graph.params.q)
    }


@cache
def graph_and_adjacency(p, q):
    graph = build_graph(GraphParams(p, q))
    return graph, adjacency(graph)


@pytest.fixture(scope="module")
def graph29():
    return graph_and_adjacency(5, 29)[0]


@pytest.fixture(scope="module")
def adj29():
    return graph_and_adjacency(5, 29)[1]


# The first 16 hex digits of sha256(dist.tobytes()): the oracle's table, byte
# for byte, so a rewrite of the BFS cannot move a single distance unnoticed.
DIST_SHA256 = {
    (5, 29): "286457ec822aad8c",
    (5, 41): "e990deeb1d28873b",
    (5, 61): "d2ed248b227ff4b8",
    (13, 17): "842083fcb0f6883d",
}


@pytest.mark.parametrize("p, q", list(DIST_SHA256))
def test_bfs_table_is_pinned(p, q):
    dist = build_graph(GraphParams(p, q)).dist
    assert hashlib.sha256(dist.tobytes()).hexdigest()[:16] == DIST_SHA256[p, q]


def test_vertex_count_and_degree(graph29, adj29):
    params = graph29.params
    assert len(graph29) == 29 * (29 * 29 - 1) // 2 == params.vertex_count
    assert len(adj29) == len(graph29)
    for nbrs in adj29.values():
        assert len(nbrs) == 6
        assert len(set(nbrs)) == 6


@pytest.mark.parametrize("p, q", [(5, 29), (13, 17)])
def test_vertex_index_is_bijection(p, q):
    graph = build_graph(GraphParams(p, q))
    elements = psl_elements(q)
    assert len(elements) == graph.params.vertex_count
    assert sorted(graph.vertex_index(g) for g in elements) == list(range(len(graph)))


@pytest.mark.parametrize("q", [29, 17])
def test_unrank_inverts_rank(q):
    """Every rank decodes to a canonical PSL2 matrix that ranks back to it:
    the BFS frontier's rank -> matrix step is the exact inverse of `_rank`."""
    squares, sqrank = _squares(q), _square_ranks(q)
    for r in range(q * (q * q - 1) // 2):
        m = _unrank(r, q, squares)
        g = PslElement.canonical(q, m)
        assert g.m == m and g.in_psl()
        assert _rank(m, q, sqrank) == r


def test_adjacency_is_symmetric(adj29):
    """s·v ~ v and v ~ s⁻¹·(s·v): undirectedness of the Cayley structure."""
    for u, nbrs in adj29.items():
        for w in nbrs:
            assert u in adj29[w]


def test_no_self_loops(adj29):
    assert all(u not in nbrs for u, nbrs in adj29.items())


def test_connected(graph29):
    dist = bfs_distances(graph29)
    assert all(d >= 0 for d in dist)
    assert dist[graph29.vertex_index(PslElement.identity(29))] == 0


@pytest.mark.parametrize("p, q", [(5, 29), (13, 17)])
def test_bfs_is_metric(p, q):
    """Neighbor distances differ by at most one, and every vertex but the
    identity has a neighbor one step closer: the table is the graph distance.
    The neighbours here are products s @ v of PslElements, independent of the
    oracle's own rank arithmetic."""
    graph, adj = graph_and_adjacency(p, q)
    dist = bfs_distances(graph)
    identity = graph.vertex_index(PslElement.identity(q))
    for u, nbrs in adj.items():
        for w in nbrs:
            assert abs(dist[u] - dist[w]) <= 1
        if u != identity:
            assert dist[u] > 0
            assert min(dist[w] for w in nbrs) == dist[u] - 1


def test_second_graph_structure():
    graph, adj = graph_and_adjacency(13, 17)
    assert len(graph) == 17 * (17 * 17 - 1) // 2
    assert all(len(set(nbrs)) == 14 for nbrs in adj.values())
    dist = bfs_distances(graph)
    assert all(d >= 0 for d in dist)


def test_disconnected_generators_raise():
    """The connectivity check is an explicit exception, not an assert: one
    generator and its inverse span a cyclic subgroup, far from all of PSL2."""
    params = GraphParams(5, 29)
    params.gen_images = (params.gen_images[0], params.gen_images[params.gens.conj[0]])
    with pytest.raises(RuntimeError, match="not connected"):
        build_graph(params)


def test_size_guard():
    with pytest.raises(ParameterError):
        build_graph(GraphParams(5, 229))
    assert MAX_ORACLE_Q == 200


def test_diagonal_vertices_count(graph29):
    diags = diagonal_vertices(graph29.params)
    assert len(diags) == (29 - 1) // 2
    # each is distinct as a graph vertex
    keys = {v.psl(graph29.params.sqrt_m1).m for v in diags}
    assert len(keys) == len(diags)


def test_census_rows(graph29):
    rows = diagonal_distance_census(graph29, threshold=11)
    assert rows[0].count_at_least == (29 - 1) // 2  # everyone is at distance >= 0
    counts = [r.count_at_least for r in rows]
    assert counts == sorted(counts, reverse=True)
    assert rows[-1].count_at_least == 0  # census extends past the max distance
    for r in rows:
        if r.h >= 11:
            assert r.bound is not None
            assert r.count_at_least <= r.bound
        else:
            assert r.bound is None
