"""Rank-2 integer lattices attached to linear congruences.

The solution set of c1*t1 + c2*t2 ≡ 0 (mod m) is a sublattice of Z² of index
m / gcd(c1, c2, m).  This module builds an explicit basis for it, Gauss
(Lagrange) reduces rank-2 bases, and picks short coset representatives for the
inhomogeneous congruence — the three primitives the four-squares solver rests
on — and bundles the first two with one particular solution as the
`SolutionLattice` of a congruence, which describes its solutions for every
right-hand side at once.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InfeasibleCongruence
from .ntheory import xgcd

Vec2 = tuple[int, int]

__all__ = [
    "Vec2",
    "dot",
    "norm_sq",
    "congruence_lattice",
    "gauss_reduce",
    "particular_solution",
    "shortest_coset_vector",
    "SolutionLattice",
    "solution_lattice",
]


def dot(u: Vec2, v: Vec2) -> int:
    return u[0] * v[0] + u[1] * v[1]


def norm_sq(u: Vec2) -> int:
    return u[0] * u[0] + u[1] * u[1]


def _round_div(a: int, b: int) -> int:
    """Nearest integer to a/b (b > 0), ties toward +infinity."""
    return (2 * a + b) // (2 * b)


def _floor_div(a: int, b: int) -> int:
    if b < 0:
        a, b = -a, -b
    return a // b


def _lex_positive(v: Vec2) -> Vec2:
    if v[0] < 0 or (v[0] == 0 and v[1] < 0):
        return (-v[0], -v[1])
    return v


def congruence_lattice(c1: int, c2: int, m: int) -> tuple[Vec2, Vec2]:
    """Basis of {(t1, t2) in Z²: c1*t1 + c2*t2 ≡ 0 (mod m)}.

    Column-style Hermite construction; handles composite m and coefficients
    sharing factors with m.  The basis determinant is m // gcd(c1, c2, m).
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    c1 %= m
    c2 %= m
    d2 = math.gcd(c2, m)
    s = d2 // math.gcd(c1, d2)
    m2 = m // d2
    if m2 == 1:
        y0 = 0
    else:
        inv = pow(c2 // d2, -1, m2)
        y0 = (-(c1 * s) // d2 * inv) % m2
    # The basis is triangular, so its determinant is s * m2.
    if (c1 * s + c2 * y0) % m or s * m2 != m // math.gcd(c1, c2, m):
        raise RuntimeError(f"({s}, {y0}), (0, {m2}) is no basis for {c1}, {c2} mod {m}")
    return ((s, y0), (0, m2))


def gauss_reduce(u: Vec2, v: Vec2) -> tuple[Vec2, Vec2]:
    """Lagrange-Gauss reduction of a rank-2 basis.

    Post: |u1| <= |u2| and |<u1, u2>| <= |u1|²/2, both vectors sign-normalized
    to be lexicographically positive.  The lattice is unchanged.
    """
    if u[0] * v[1] - u[1] * v[0] == 0:
        raise ValueError("input vectors do not span a rank-2 lattice")
    if norm_sq(u) > norm_sq(v):
        u, v = v, u
    while True:
        mu = _round_div(dot(u, v), norm_sq(u))
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if norm_sq(v) < norm_sq(u):
            u, v = v, u
        else:
            break
    return (_lex_positive(u), _lex_positive(v))


def particular_solution(c1: int, c2: int, k: int, m: int) -> Vec2:
    """Some (t1, t2) with c1*t1 + c2*t2 ≡ k (mod m).

    Raises InfeasibleCongruence when gcd(c1, c2, m) does not divide k.
    """
    if m <= 0:
        raise ValueError("modulus must be positive")
    d, alpha, beta = xgcd(c1 % m, c2 % m)
    g = math.gcd(d, m)
    if k % g != 0:
        raise InfeasibleCongruence(
            f"gcd({c1}, {c2}, {m}) = {g} does not divide {k}"
        )
    mg = m // g
    if mg == 1:
        u = 0
    else:
        u = (k // g) * pow(d // g, -1, mg) % mg
    t = ((alpha * u) % m, (beta * u) % m)
    if (c1 * t[0] + c2 * t[1] - k) % m:
        raise RuntimeError(f"{t} does not solve {c1}*t1 + {c2}*t2 ≡ {k} (mod {m})")
    return t


class SolutionLattice(NamedTuple):
    """The solutions of c1*t1 + c2*t2 ≡ k (mod m) for every k at once.

    `basis` is a Gauss-reduced basis of the homogeneous solutions, g is
    gcd(c1, c2, m) and `unit` solves the congruence for k = g.  The solution
    set is empty unless g divides k, and is (k/g)*unit + span(basis) when it
    does.
    """

    basis: tuple[Vec2, Vec2]
    unit: Vec2
    g: int


def solution_lattice(c1: int, c2: int, m: int) -> SolutionLattice:
    """The `SolutionLattice` of c1*t1 + c2*t2 ≡ k (mod m)."""
    g = math.gcd(c1, c2, m)
    return SolutionLattice(
        gauss_reduce(*congruence_lattice(c1, c2, m)),
        particular_solution(c1, c2, g, m),
        g,
    )


def shortest_coset_vector(basis: tuple[Vec2, Vec2], w: Vec2) -> Vec2:
    """Short vector in the coset w + L by rounding rational coordinates.

    Writes w in the basis, rounds each coordinate down and up (4 candidates),
    and returns the shortest offset w - (n1*u1 + n2*u2); ties break
    lexicographically.  For a Gauss-reduced basis the result u0 satisfies
    |u0| <= (|u1| + |u2|)/2.
    """
    u1, u2 = basis
    det = u1[0] * u2[1] - u1[1] * u2[0]
    if det == 0:
        raise ValueError("degenerate basis")
    # Cramer numerators for w = a*u1 + b*u2.
    na = w[0] * u2[1] - w[1] * u2[0]
    nb = u1[0] * w[1] - u1[1] * w[0]
    fa = _floor_div(na, det)
    fb = _floor_div(nb, det)
    return min(
        (
            (w[0] - n1 * u1[0] - n2 * u2[0], w[1] - n1 * u1[1] - n2 * u2[1])
            for n1 in (fa, fa + 1)
            for n2 in (fb, fb + 1)
        ),
        key=lambda v: (norm_sq(v), v),
    )
