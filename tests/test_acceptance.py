"""Acceptance suite: the eight project-level criteria, each with pinned
tolerances and an independent oracle where one exists.

Every test is deterministic (fixed seeds) and keeps well inside a ten-minute
budget on commodity hardware.
"""

import dataclasses
import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from lpsnav.cayley_oracle import (
    bfs_distances,
    build_graph,
    diagonal_distance_census,
    diagonal_vertices,
)
from lpsnav.errors import InfeasibleCongruence
from lpsnav.foursquares import FourSquaresInstance, build_form, solve
from lpsnav.lattice2 import congruence_lattice, gauss_reduce, norm_sq
from lpsnav.navigator import (
    DiagonalVertex,
    NavConfig,
    decompose_xyz,
    diagonal_distance,
    typical_height_bound,
)
from lpsnav.npreduction import decode, reduce_subset_sum
from lpsnav.ntheory import legendre, sqrt_mod
from lpsnav.quaternion import (
    GraphParams,
    PslElement,
    Quat,
    evaluate_word,
    factor_into_generators,
    is_nonbacktracking,
    lps_generators,
    psl_to_quat_class,
)

Q100 = 6513516734600035718300327211250928237178281758494417357560086828416863929270451437126021949850746381
A100 = 23147807431234971203978401278304192730471291281
B100 = 1284712970142165365412342134123412341234121234342141234133


# --------------------------------------------------------------------------
# Criterion 1: exact navigation reproduces true graph distances.
@pytest.mark.parametrize("q", [29, 41, 61, 89, pytest.param(149, marks=pytest.mark.slow)])
def test_criterion_1_diagonal_distances_match_bfs(q):
    """Every diagonal vertex of X_{5,q}: navigator height == BFS distance and
    the returned word is a non-backtracking walk evaluating to the vertex.
    Exact mode certifies the heights the scan skips absent, so q = 149 checks
    the skip well past the graphs the default run builds."""
    start = time.monotonic()
    params = GraphParams(5, q)
    graph = build_graph(params)
    dist = bfs_distances(graph)
    cfg = NavConfig(mode="exact")
    checked = 0
    for v in diagonal_vertices(params):
        want = dist[graph.vertex_index(v.psl(params.sqrt_m1))]
        res = diagonal_distance(params, v, cfg)
        assert res.h == want, (v.a, v.b)
        assert len(res.word) == res.h
        assert is_nonbacktracking(res.word, params.gens)
        got = evaluate_word(res.word, params.gens, q, params.sqrt_m1)
        assert got == v.psl(params.sqrt_m1)
        checked += 1
    assert checked == (q - 1) // 2
    assert time.monotonic() - start < 600


# --------------------------------------------------------------------------
# Criterion 2: the constrained solver agrees with exhaustive search on a
# dense grid of small instances and never returns "unknown" in exact mode.
def _sum_two_squares_table(limit):
    table = [False] * (limit + 1)
    r = math.isqrt(limit)
    for a in range(r + 1):
        for b in range(a, r + 1):
            v = a * a + b * b
            if v <= limit:
                table[v] = True
    return table


def _oracle_has_solution(n, m, r1, r2, sos):
    """Exhaustive: some x ≡ r1, y ≡ r2 (mod m) with the z²+w² remainder
    being m² times a sum of two squares."""
    root = math.isqrt(n)
    m2 = m * m
    x = r1 - m * ((r1 + root) // m)
    while x <= root:
        rem1 = n - x * x
        y = r2 - m * ((r2 + root) // m)
        while y <= root:
            rem2 = rem1 - y * y
            if rem2 >= 0 and rem2 % m2 == 0 and sos[rem2 // m2]:
                return True
            y += m
        x += m
    return False


def test_criterion_2_solver_vs_exhaustive_oracle():
    """All n <= 2000, m in {5, 13}, every admissible residue pair: presence
    of solutions matches brute force exactly; zero "unknown" verdicts."""
    sos = _sum_two_squares_table(2000)
    checked = 0
    for m in (5, 13):
        for n in range(2001):
            for r1 in range(m):
                for r2 in range(m):
                    if (r1 * r1 + r2 * r2 - n) % m:
                        continue
                    res = solve(FourSquaresInstance(n, m, r1, r2), mode="exact")
                    assert res.status != "unknown", (n, m, r1, r2)
                    exists = _oracle_has_solution(n, m, r1, r2, sos)
                    if exists:
                        assert res.status == "found", (n, m, r1, r2)
                        x, y, z, w = res.solution
                        assert x * x + y * y + z * z + w * w == n
                        assert (x - r1) % m == 0 and (y - r2) % m == 0
                        assert z % m == 0 and w % m == 0
                    else:
                        assert res.status == "absent", (n, m, r1, r2)
                    checked += 1
    assert checked >= 30000


@pytest.mark.parametrize("m", [58, 82, 12, 20, 9, 25, 4, 2, 1])
def test_solver_vs_exhaustive_oracle_on_even_and_composite_moduli(m):
    """Criterion 2's check on the kind of modulus the navigator solves with
    (M = 2q: even and composite), plus prime powers and the trivial moduli:
    every n <= 700 and admissible residue pair, zero "unknown" verdicts."""
    limit = 700
    sos = _sum_two_squares_table(limit)
    for n in range(limit + 1):
        for r1 in range(m):
            for r2 in range(m):
                if (r1 * r1 + r2 * r2 - n) % m:
                    continue
                res = solve(FourSquaresInstance(n, m, r1, r2), mode="exact")
                if _oracle_has_solution(n, m, r1, r2, sos):
                    assert res.status == "found", (n, m, r1, r2)
                    x, y, z, w = res.solution
                    assert x * x + y * y + z * z + w * w == n
                    assert (x - r1) % m == 0 and (y - r2) % m == 0
                    assert z % m == 0 and w % m == 0
                else:
                    assert res.status == "absent", (n, m, r1, r2)


# --------------------------------------------------------------------------
# Criterion 3: hundred-digit parameters navigate to the expected heights.
def test_criterion_3_hundred_digit_navigation():
    """Fast mode on the 100-digit graph: the antidiagonal class lands at
    height 571 +/- 2 and the reference dense class at 432 +/- 2."""
    start = time.monotonic()
    params = GraphParams(5, Q100)
    cfg = NavConfig(mode="fast")

    res_hole = diagonal_distance(params, DiagonalVertex(Q100, 0, 1), cfg)
    assert abs(res_hole.h - 571) <= 2
    assert len(res_hole.word) == res_hole.h
    assert is_nonbacktracking(res_hole.word, params.gens)
    got = evaluate_word(res_hole.word, params.gens, Q100, params.sqrt_m1)
    assert got == DiagonalVertex(Q100, 0, 1).psl(params.sqrt_m1)
    assert time.monotonic() - start < 600

    start = time.monotonic()
    res_typ = diagonal_distance(params, DiagonalVertex(Q100, A100, B100), cfg)
    assert abs(res_typ.h - 432) <= 2
    got = evaluate_word(res_typ.word, params.gens, Q100, params.sqrt_m1)
    assert got == DiagonalVertex(Q100, A100, B100).psl(params.sqrt_m1)
    assert time.monotonic() - start < 600


# --------------------------------------------------------------------------
# Criterion 4: in the well-conditioned regime the candidate region is a true
# certificate: F positive on the inner box, negative just outside 5x the box.
def _in_box(form, x1, x2, scale=1):
    """Membership in scale*C, where C = [-A, A] x [-B, B] with
    A = sqrt(n) / (2*M*|u1|) and B = sqrt(n) / (2*M*|u2|) - 1 (exact integer
    test)."""
    s2n = scale * scale * form.n
    m2 = 4 * form.modulus**2
    if x1 * x1 * m2 * norm_sq(form.u1) > s2n:
        return False
    k = abs(x2) + scale
    return k * k * m2 * norm_sq(form.u2) <= s2n


def _box_extent(form, axis):
    """Largest coordinate on the given axis whose point is inside C."""
    v = 0
    probe = (lambda t: _in_box(form, t, 0, 1)) if axis == 0 else (
        lambda t: _in_box(form, 0, t, 1)
    )
    while probe(v + 1):
        v += 1
    return v


def _box_extent_5(form, axis):
    v = 0
    probe = (lambda t: _in_box(form, t, 0, 5)) if axis == 0 else (
        lambda t: _in_box(form, 0, t, 5)
    )
    while probe(v + 1):
        v += 1
    return v


def test_criterion_4_box_certificate_regime():
    """500 seeded instances with |u2| >= |u1| + 3 and inner box height >= 8:
    F > 0 at every integer point of C and F < 0 at every integer point in the
    3-cell annulus outside 5C.  Zero violations allowed."""
    rng = random.Random(0xACCE)
    done = 0
    while done < 500:
        m = rng.randrange(11, 61)
        r1 = rng.randrange(1, m)
        r2 = (rng.randrange(0, 4) * r1) % m
        basis = gauss_reduce(*congruence_lattice(2 * r1 % m, 2 * r2 % m, m))
        u1, u2 = basis
        n1, n2 = norm_sq(u1), norm_sq(u2)
        s1 = math.isqrt(n1)
        if n2 < (s1 + 3) * (s1 + 3):  # need |u2| >= |u1| + 3
            continue
        if n2 > 36 * n1:  # keep the inner box from getting too wide to scan
            continue
        base = (18 * m) ** 2 * n2  # forces B >= 8
        n = base + rng.randrange(0, base // 2)
        n += m - (n - r1 * r1 - r2 * r2) % m
        try:
            form = build_form(FourSquaresInstance(n, m, r1, r2))
        except InfeasibleCongruence:
            continue
        ax, bx = _box_extent(form, 0), _box_extent(form, 1)
        assert bx >= 8, (n, m, r1, r2)

        for x2 in range(-bx, bx + 1):
            for x1 in range(-ax, ax + 1):
                assert _in_box(form, x1, x2, 1)
                assert form.f_value(x1, x2) > 0, (n, m, r1, r2, x1, x2)

        a5, b5 = _box_extent_5(form, 0), _box_extent_5(form, 1)
        for x2 in range(-b5 - 3, b5 + 4):
            if abs(x2) > b5:
                xs = range(-a5 - 3, a5 + 4)
            else:
                xs = itertools.chain(
                    range(-a5 - 3, -a5), range(a5 + 1, a5 + 4)
                )
            for x1 in xs:
                assert not _in_box(form, x1, x2, 5)
                assert form.f_value(x1, x2) < 0, (n, m, r1, r2, x1, x2)
        done += 1


# --------------------------------------------------------------------------
# Criterion 5: generator-word factorization is an exact inverse of
# multiplication for non-backtracking words.
@pytest.mark.parametrize("p", [5, 13])
def test_criterion_5_factorization_round_trip(p):
    """10^4 seeded random non-backtracking words of length <= 12: the product
    quaternion factors back to the identical word."""
    gens = lps_generators(p)
    rng = random.Random(0x5EED + p)
    for _ in range(10_000):
        length = rng.randrange(0, 13)
        word = []
        while len(word) < length:
            c = rng.randrange(len(gens))
            if word and c == gens.conj[word[-1]]:
                continue
            word.append(c)
        acc = Quat(1, 0, 0, 0)
        for c in word:
            acc = acc * gens.quats[c]
        assert acc.norm() == p**length
        assert factor_into_generators(acc, gens) == word


# --------------------------------------------------------------------------
# Criterion 6: distance census against the eigenvalue-driven density bound.
def test_criterion_6_density_census():
    """X_{5,29}: for every h at or past the typical-regime threshold, the
    number of diagonal vertices at distance >= h stays within 89 q⁴/p^(h-1)."""
    params = GraphParams(5, 29)
    graph = build_graph(params)
    kdef = typical_height_bound(params)
    assert kdef == 11
    rows = diagonal_distance_census(graph, threshold=kdef)
    bounded_rows = [r for r in rows if r.h >= kdef]
    assert bounded_rows
    for r in bounded_rows:
        assert r.bound is not None
        assert r.bound == Fraction(89 * 29**4, 5 ** (r.h - 1))
        assert r.count_at_least <= r.bound, r


# --------------------------------------------------------------------------
# Criterion 7: subset-sum round trip through the Gaussian-prime encoding.
def _gaussian_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gpow_mod(g, e, q):
    r = (1, 0)
    while e:
        if e & 1:
            r = ((r[0] * g[0] - r[1] * g[1]) % q, (r[0] * g[1] + r[1] * g[0]) % q)
        g = ((g[0] * g[0] - g[1] * g[1]) % q, (2 * g[0] * g[1]) % q)
        e >>= 1
    return r


def _representations(pi):
    """All unit multiples of all conjugate-choice products of the primes."""
    out = []
    for eps in itertools.product((0, 1), repeat=len(pi)):
        z = (1, 0)
        for e, (re, im) in zip(eps, pi):
            z = _gaussian_mul(z, (re, -im) if e else (re, im))
        for _ in range(4):
            z = (-z[1], z[0])
            out.append(z)
    return out


def test_criterion_7_subset_sum_round_trip():
    """Every multiset of up to 4 values from [1, 10] and every goal t in
    [1, sum]: solvable instances decode to a correct subset from some
    residue-matching representation; unsolvable instances admit no
    residue-matching representation at all."""
    start = time.monotonic()
    rng = random.Random(0x7357)
    multisets = [
        ms
        for k in (1, 2, 3, 4)
        for ms in itertools.combinations_with_replacement(range(1, 11), k)
    ]
    assert len(multisets) == 1000

    for targets in multisets:
        total = sum(targets)
        base = reduce_subset_sum(targets, total, rng=rng)
        q, g = base.q, base.g
        reps = _representations(base.pi)
        reachable = 1
        for tj in targets:
            reachable |= reachable << tj
        for t in range(1, total + 1):
            s = (q - 1) * t + total
            inst = dataclasses.replace(
                base, target=t, s=s, residue=_gpow_mod(g, s, q)
            )
            a, b = inst.residue
            matches = [
                (x, y)
                for x, y in reps
                if (x * b - y * a) % q == 0 and (x % q, y % q) != (0, 0)
            ]
            if (reachable >> t) & 1:
                assert matches, (targets, t)
                decoded = [decode(inst, x, y) for x, y in matches]
                valid = [d for d in decoded if d.valid]
                assert valid, (targets, t)
                for d in valid:
                    assert d.subset_sum == t
                    assert sum(
                        tj for e, tj in zip(d.epsilon, targets) if e
                    ) == t
            else:
                assert not matches, (targets, t, matches)
    assert time.monotonic() - start < 600


# --------------------------------------------------------------------------
# Criterion 8: the three-factor decomposition accepts about half of PSL2(F_q).
def test_criterion_8_decompose_acceptance_rate():
    """1000 seeded uniform elements of PSL2(F_101): the fraction admitting an
    (1+ix)(1+jy)(1+kz) decomposition lies in [0.40, 0.60]."""
    q = 101
    sm1 = sqrt_mod(q - 1, q)
    rng = random.Random(0xC8C8)
    hits = 0
    for _ in range(1000):
        while True:
            m = tuple(rng.randrange(q) for _ in range(4))
            det = (m[0] * m[3] - m[1] * m[2]) % q
            if det != 0 and legendre(det, q) == 1:
                break
        g = PslElement.canonical(q, m)
        if decompose_xyz(Quat(*psl_to_quat_class(g, sm1)), q):
            hits += 1
    assert 0.40 <= hits / 1000 <= 0.60, hits
