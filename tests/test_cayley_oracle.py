"""BFS oracle: vertex ranks, graph structure and BFS sanity.

Vertices are enumerated here independently of the oracle (canonical
representatives filtered by membership in PSL2), and neighbours are formed as
s @ v over the generator images, so the structure checks do not rely on the
oracle's own traversal.
"""

from functools import cache
from itertools import product

import pytest

from lpsnav.cayley_oracle import (
    MAX_ORACLE_Q,
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


@pytest.fixture(scope="module")
def graph29():
    return build_graph(GraphParams(5, 29))


@pytest.fixture(scope="module")
def adj29(graph29):
    return adjacency(graph29)


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


def test_bfs_is_metric(graph29, adj29):
    """Neighbor distances differ by at most one, and every vertex but the
    identity has a neighbor one step closer: the table is the graph distance."""
    dist = bfs_distances(graph29)
    identity = graph29.vertex_index(PslElement.identity(29))
    for u, nbrs in adj29.items():
        for w in nbrs:
            assert abs(dist[u] - dist[w]) <= 1
        if u != identity:
            assert dist[u] > 0
            assert min(dist[w] for w in nbrs) == dist[u] - 1


def test_second_graph_structure():
    graph = build_graph(GraphParams(13, 17))
    assert len(graph) == 17 * (17 * 17 - 1) // 2
    assert all(len(set(nbrs)) == 14 for nbrs in adjacency(graph).values())
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
