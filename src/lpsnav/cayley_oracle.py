"""Brute-force BFS distances on the Cayley graph X_{p,q}, for verification.

The graph is never stored: a vertex's neighbours are the products s @ v over
the p + 1 generator images, and every element of PSL2(F_q) has a closed-form
rank in range(|PSL2(F_q)|) that indexes one byte-per-vertex distance table.
A single breadth-first search from the identity fills that table.  Its
frontier holds ranks, not matrices: each rank is decoded to its canonical
matrix, multiplied by the generator images in plain integers, rescaled with a
table of inverses mod q and ranked again.  The oracle exists to check the
congruence-based navigator against ground truth, so it is capped at small q.
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
def _squares(q: int) -> tuple[int, ...]:
    """The nonzero squares mod q, sorted."""
    return tuple(sorted({x * x % q for x in range(1, q)}))


@cache
def _square_ranks(q: int) -> tuple[int, ...]:
    """Index of x among the sorted nonzero squares mod q, or -1 for a non-square."""
    ranks = [-1] * q
    for i, s in enumerate(_squares(q)):
        ranks[s] = i
    return tuple(ranks)


def _rank(m: tuple[int, int, int, int], q: int, sqrank: tuple[int, ...]) -> int:
    """Closed-form bijection from canonical PSL2(F_q) matrices onto range(q(q²-1)/2).

    Every projective class has a unique matrix whose first nonzero entry
    (row-major) is 1: shape (1, b, c, d) or (0, 1, c, d).  Membership in PSL
    (rather than PGL) means the determinant is a nonzero square, so the class
    is fixed by (b, c) and the determinant's square rank, or by the rank of
    the determinant -c and d.  `build_graph` repeats this formula inline.
    """
    half = (q - 1) // 2
    if m[0]:
        _, b, c, d = m
        return (b * q + c) * half + sqrank[(d - b * c) % q]
    _, _, c, d = m
    return q * q * half + sqrank[-c % q] * q + d


def _unrank(r: int, q: int, squares: tuple[int, ...]) -> tuple[int, int, int, int]:
    """The canonical matrix of rank r: the inverse of `_rank`."""
    half = (q - 1) // 2
    if r < q * q * half:
        bc, s = divmod(r, half)
        b, c = divmod(bc, q)
        return (1, b, c, (squares[s] + b * c) % q)
    s, d = divmod(r - q * q * half, q)
    return (0, 1, -squares[s] % q, d)


def build_graph(params: GraphParams) -> CayleyGraph:
    """BFS from the identity over X_{p,q}. Guarded: the vertex count grows like q³."""
    q = params.q
    if q > MAX_ORACLE_Q:
        raise ParameterError(
            f"oracle graph construction is limited to q <= {MAX_ORACLE_Q}"
        )
    half = (q - 1) // 2
    shape0 = q * q * half  # the first rank of shape (0, 1, c, d)
    squares, sqrank = _squares(q), _square_ranks(q)
    inv = [0] + [pow(x, -1, q) for x in range(1, q)]
    gens = [s.m for s in params.gen_images]
    dist = array("b", [-1]) * params.vertex_count
    start = _rank(PslElement.identity(q).m, q, sqrank)
    dist[start] = 0
    frontier, level, reached = array("l", [start]), 0, 1
    while frontier:
        level += 1
        nxt = array("l")
        for u in frontier:
            e, f, g, h = _unrank(u, q, squares)
            for a, b, c, d in gens:
                # s @ u scaled so that its first nonzero entry is 1, then
                # `_rank` inline: a call per edge makes the BFS 25-45% slower
                x = (a * e + b * g) % q
                if x:
                    t = inv[x]
                    y = (a * f + b * h) * t % q
                    z = (c * e + d * g) * t % q
                    r = (y * q + z) * half + sqrank[((c * f + d * h) * t - y * z) % q]
                else:
                    t = inv[(a * f + b * h) % q]
                    r = shape0 + sqrank[-(c * e + d * g) * t % q] * q + (c * f + d * h) * t % q
                if dist[r] < 0:
                    dist[r] = level
                    nxt.append(r)
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
