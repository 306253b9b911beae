"""Planar congruence-lattice tests: membership, covolume, reduction."""

import math
import random

import pytest

from lpsnav import lattice2
from lpsnav.errors import InfeasibleCongruence
from lpsnav.lattice2 import (
    congruence_lattice,
    dot,
    gauss_reduce,
    norm_sq,
    particular_solution,
    shortest_coset_vector,
)


def in_lattice(v, c1, c2, m):
    return (c1 * v[0] + c2 * v[1]) % m == 0


def lattice_points(basis, radius):
    """All basis-combinations with coefficients in [-radius, radius]."""
    (a, b), (c, d) = basis
    pts = set()
    for i in range(-radius, radius + 1):
        for j in range(-radius, radius + 1):
            pts.add((i * a + j * c, i * b + j * d))
    return pts


def test_congruence_lattice_membership_and_covolume():
    rng = random.Random(21)
    for _ in range(400):
        m = rng.randrange(1, 200)
        c1 = rng.randrange(m) if m > 1 else 0
        c2 = rng.randrange(m) if m > 1 else 0
        w1, w2 = congruence_lattice(c1, c2, m)
        det = w1[0] * w2[1] - w1[1] * w2[0]
        assert abs(det) == m // math.gcd(math.gcd(c1, c2), m)
        for v in (w1, w2, (w1[0] + w2[0], w1[1] + w2[1])):
            assert in_lattice(v, c1, c2, m)


def test_congruence_lattice_exact_point_set():
    # The lattice is all of {(x, y): c1 x + c2 y ≡ 0}, not merely a sublattice:
    # compare point sets inside a window.
    rng = random.Random(22)
    for _ in range(60):
        m = rng.randrange(2, 24)
        c1, c2 = rng.randrange(m), rng.randrange(m)
        basis = congruence_lattice(c1, c2, m)
        window = {
            (x, y)
            for x in range(-2 * m, 2 * m + 1)
            for y in range(-2 * m, 2 * m + 1)
            if in_lattice((x, y), c1, c2, m)
        }
        spanned = {
            p
            for p in lattice_points(basis, 5 * m)
            if abs(p[0]) <= 2 * m and abs(p[1]) <= 2 * m
        }
        assert window == spanned, (c1, c2, m)


def test_gauss_reduce_properties():
    rng = random.Random(23)
    for _ in range(500):
        u = (rng.randrange(-50, 51), rng.randrange(-50, 51))
        v = (rng.randrange(-50, 51), rng.randrange(-50, 51))
        if u[0] * v[1] - u[1] * v[0] == 0:
            with pytest.raises(ValueError):
                gauss_reduce(u, v)
            continue
        r1, r2 = gauss_reduce(u, v)
        assert norm_sq(r1) <= norm_sq(r2)
        # Lagrange-reduced: projection coefficient at most 1/2 in absolute value.
        assert 2 * abs(dot(r1, r2)) <= norm_sq(r1)
        # Same lattice: determinants agree up to sign.
        assert abs(r1[0] * r2[1] - r1[1] * r2[0]) == abs(u[0] * v[1] - u[1] * v[0])


def test_gauss_reduce_finds_shortest():
    rng = random.Random(24)
    for _ in range(120):
        u = (rng.randrange(-12, 13), rng.randrange(-12, 13))
        v = (rng.randrange(-12, 13), rng.randrange(-12, 13))
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        r1, _ = gauss_reduce(u, v)
        shortest = min(
            (norm_sq(p) for p in lattice_points((u, v), 6) if p != (0, 0)),
        )
        assert norm_sq(r1) == shortest


def test_particular_solution():
    rng = random.Random(25)
    for _ in range(500):
        m = rng.randrange(1, 300)
        c1 = rng.randrange(m) if m > 1 else 0
        c2 = rng.randrange(m) if m > 1 else 0
        k = rng.randrange(m) if m > 1 else 0
        g = math.gcd(math.gcd(c1, c2), m)
        if k % g != 0:
            with pytest.raises(InfeasibleCongruence):
                particular_solution(c1, c2, k, m)
        else:
            t = particular_solution(c1, c2, k, m)
            assert (c1 * t[0] + c2 * t[1] - k) % m == 0


def exact_coset_minimum(basis, w):
    """Brute-force CVP: search a coefficient window around w's rational
    coordinates in the basis (wide enough for any reduced basis)."""
    (a, b), (c, d) = basis
    det = a * d - b * c
    x0 = (w[0] * d - w[1] * c) // det
    y0 = (a * w[1] - b * w[0]) // det
    return min(
        norm_sq((w[0] - i * a - j * c, w[1] - i * b - j * d))
        for i in range(x0 - 3, x0 + 5)
        for j in range(y0 - 3, y0 + 5)
    )


def test_shortest_coset_vector():
    rng = random.Random(26)
    for _ in range(300):
        u = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        v = (rng.randrange(-9, 10), rng.randrange(-9, 10))
        if u[0] * v[1] - u[1] * v[0] == 0:
            continue
        basis = gauss_reduce(u, v)
        w = (rng.randrange(-40, 41), rng.randrange(-40, 41))
        best = shortest_coset_vector(basis, w)
        # best ∈ w + L
        diff = (best[0] - w[0], best[1] - w[1])
        (a, b), (c, d) = basis
        det = a * d - b * c
        na = diff[0] * d - diff[1] * c
        nb = a * diff[1] - b * diff[0]
        assert na % det == 0 and nb % det == 0
        # and matches the exact coset minimum
        assert norm_sq(best) == exact_coset_minimum(basis, w)


def test_lattice_checks_survive_optimization(monkeypatch):
    """Wrong arithmetic under the lattice primitives is a RuntimeError, not
    an assert that python -O strips."""
    xgcd = lattice2.xgcd

    def wrong_cofactors(a, b):
        d, x, y = xgcd(a, b)
        return d, x + 1, y

    monkeypatch.setattr(lattice2, "xgcd", wrong_cofactors)
    with pytest.raises(RuntimeError):
        particular_solution(3, 5, 1, 11)
    monkeypatch.undo()
    # A wrong modular inverse in the Hermite construction.
    monkeypatch.setattr(lattice2, "pow", lambda b, e, m: (pow(b, e, m) + 1) % m, raising=False)
    with pytest.raises(RuntimeError):
        congruence_lattice(3, 5, 11)
