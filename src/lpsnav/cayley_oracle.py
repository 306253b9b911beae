"""Brute-force BFS distances on the Cayley graph X_{p,q}, for verification.

The graph is never stored: a vertex's neighbours are the products s @ v over
the p + 1 generator images, and every element of PSL2(F_q) has a closed-form
rank in range(|PSL2(F_q)|) that indexes one byte-per-vertex distance table.
A single breadth-first search from the identity fills that table.  Everything
here is deliberately naive; it exists to check the congruence-based navigator
against ground truth, so it is capped at small q.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from typing import Optional

from .errors import ParameterError
from .navigator import DiagonalVertex, density_bound
from .quaternion import GraphParams, PslElement

__all__ = ["CayleyGraph", "build_graph", "bfs_distances", "diagonal_distance_census"]

MAX_ORACLE_Q = 200
MAX_DISTANCE = 127  # the largest entry of the signed-byte distance table


@dataclass(frozen=True)
class CayleyGraph:
    """X_{p,q} as its BFS distance table from the identity (-1: unreached)."""

    params: GraphParams
    dist: array  # typecode "b", indexed by vertex_index

    def __len__(self) -> int:
        return len(self.dist)

    def vertex_index(self, g: PslElement) -> int:
        q = self.params.q
        return _rank(PslElement.canonical(q, g.m).m, q, _square_ranks(q))


@cache
def _square_ranks(q: int) -> tuple[int, ...]:
    """Index of x among the sorted nonzero squares mod q, or -1 for a non-square."""
    ranks = [-1] * q
    for i, s in enumerate(sorted({x * x % q for x in range(1, q)})):
        ranks[s] = i
    return tuple(ranks)


def _rank(m: tuple[int, int, int, int], q: int, sqrank: tuple[int, ...]) -> int:
    """Closed-form bijection from canonical PSL2(F_q) matrices onto range(q(q²-1)/2).

    Every projective class has a unique matrix whose first nonzero entry
    (row-major) is 1: shape (1, b, c, d) or (0, 1, c, d).  Membership in PSL
    (rather than PGL) means the determinant is a nonzero square, so the class
    is fixed by (b, c) and the determinant's square rank, or by the rank of
    the determinant -c and d.
    """
    half = (q - 1) // 2
    if m[0]:
        _, b, c, d = m
        return (b * q + c) * half + sqrank[(d - b * c) % q]
    _, _, c, d = m
    return q * q * half + sqrank[-c % q] * q + d


def build_graph(params: GraphParams) -> CayleyGraph:
    """BFS from the identity over X_{p,q}. Guarded: the vertex count grows like q³."""
    q = params.q
    if q > MAX_ORACLE_Q:
        raise ParameterError(
            f"oracle graph construction is limited to q <= {MAX_ORACLE_Q}"
        )
    sqrank = _square_ranks(q)
    dist = array("b", [-1]) * params.vertex_count
    identity = PslElement.identity(q)
    dist[_rank(identity.m, q, sqrank)] = 0
    frontier, level, reached = [identity], 0, 1
    while frontier:
        level += 1
        nxt = []
        for u in frontier:
            for s in params.gen_images:
                w = s @ u
                r = _rank(w.m, q, sqrank)
                if dist[r] < 0:
                    dist[r] = level
                    nxt.append(w)
        reached += len(nxt)
        frontier = nxt
    if reached != params.vertex_count:
        raise RuntimeError(
            f"Cayley graph is not connected: BFS reached {reached} of "
            f"{params.vertex_count} vertices"
        )
    return CayleyGraph(params, dist)


def bfs_distances(graph: CayleyGraph) -> array:
    """Distances from the identity to every vertex, indexed by vertex_index."""
    return graph.dist


def diagonal_vertices(params: GraphParams) -> list[DiagonalVertex]:
    """All diagonal vertices of the graph, as (a, b) classes with a²+b² a QR."""
    q = params.q
    out = []
    for b in range(q):
        v = DiagonalVertex(q, 1, b)
        if v.on_graph():
            out.append(v)
    v = DiagonalVertex(q, 0, 1)
    if v.on_graph():
        out.append(v)
    return out


@dataclass(frozen=True)
class CensusRow:
    h: int
    count_at_least: int
    bound: Optional[Fraction]  # None below the regime threshold


def diagonal_distance_census(graph: CayleyGraph, threshold: int) -> list[CensusRow]:
    """For each h: how many diagonal vertices sit at distance >= h.

    Rows at or above `threshold` carry the 89 q⁴ / p^(h-1) comparison bound;
    the table always extends through the threshold so the bounded regime is
    visible even when every vertex is closer than that.
    """
    if threshold > MAX_DISTANCE:
        raise ParameterError(f"census threshold {threshold} exceeds {MAX_DISTANCE}")
    params = graph.params
    dists = [
        graph.dist[graph.vertex_index(v.psl(params.sqrt_m1))]
        for v in diagonal_vertices(params)
    ]
    rows = []
    for h in range(max(max(dists), threshold) + 2):
        count = sum(1 for d in dists if d >= h)
        bound = density_bound(params, h) if h >= max(threshold, 1) else None
        rows.append(CensusRow(h=h, count_at_least=count, bound=bound))
    return rows
