"""Navigation layer: diagonal distances, bounds, decomposition, general case."""

import copy
import hashlib
import math
import random

import pytest

import lpsnav.navigator as navigator
from lpsnav.errors import BudgetExhausted, ParameterError
from lpsnav.foursquares import FourSquaresInstance, _row_range, build_form
from lpsnav.lattice2 import (
    SolutionLattice,
    congruence_lattice,
    gauss_reduce,
    norm_sq,
    particular_solution,
    shortest_coset_vector,
    solution_lattice,
)
from lpsnav.navigator import (
    DiagonalVertex,
    NavConfig,
    decompose_xyz,
    density_bound,
    diagonal_distance,
    general_navigate,
    predicted_bounds,
    typical_height_bound,
)
from lpsnav.ntheory import legendre, sqrt_mod
from lpsnav.quaternion import (
    GraphParams,
    PslElement,
    Quat,
    evaluate_word,
    is_nonbacktracking,
    psl_to_quat_class,
    quat_to_psl,
)


@pytest.fixture(scope="module")
def params29():
    return GraphParams(5, 29)


def test_diagonal_vertex_basics():
    v = DiagonalVertex(29, 1, 2)
    assert v.on_graph()
    with pytest.raises(ParameterError):
        DiagonalVertex(29, 0, 0)
    # (1, 12): 1 + 144 = 145 ≡ 0 (mod 29), singular direction
    assert not DiagonalVertex(29, 1, 12).on_graph()


def test_diagonal_distance_rejects_off_graph(params29):
    with pytest.raises(ParameterError):
        diagonal_distance(params29, DiagonalVertex(29, 1, 12))  # singular
    # a² + b² a non-residue: (1, 1) -> 2; legendre(2, 29) = -1
    assert legendre(2, 29) == -1
    with pytest.raises(ParameterError):
        diagonal_distance(params29, DiagonalVertex(29, 1, 1))


def test_diagonal_distance_identity(params29):
    res = diagonal_distance(params29, DiagonalVertex(29, 1, 0))
    assert res.h == 0 and res.word == ()


def test_diagonal_distance_known_values(params29):
    """Frozen spot checks (independently confirmed by the BFS oracle suite)."""
    expected = {(1, 2): 1, (1, 27): 1, (1, 11): 2, (1, 18): 2, (0, 1): 7}
    for (a, b), h in expected.items():
        res = diagonal_distance(params29, DiagonalVertex(29, a, b), NavConfig(mode="exact"))
        assert res.h == h, (a, b)
        assert len(res.word) == h
        assert is_nonbacktracking(res.word, params29.gens)
        got = evaluate_word(res.word, params29.gens, 29, params29.sqrt_m1)
        assert got == DiagonalVertex(29, a, b).psl(params29.sqrt_m1)


def test_diagonal_distance_solution_congruences(params29):
    res = diagonal_distance(params29, DiagonalVertex(29, 1, 18))
    x, y, z, w = res.solution
    assert x * x + y * y + z * z + w * w == 5**res.h
    assert x % 2 == 1 and y % 2 == 0 and z % 2 == 0 and w % 2 == 0
    assert z % 29 == 0 and w % 29 == 0
    # (x, y) ≡ λ(1, 18): cross-ratio vanishes
    assert (x * 18 - y * 1) % 29 == 0


def test_fast_mode_agrees_on_small_graph(params29):
    rng = random.Random(51)
    for b in (2, 8, 9, 11, 13):
        v = DiagonalVertex(29, 1, b)
        exact = diagonal_distance(params29, v, NavConfig(mode="exact"))
        fast = diagonal_distance(params29, v, NavConfig(mode="fast"))
        # fast may overshoot in principle, never undershoot
        assert fast.h >= exact.h
        got = evaluate_word(fast.word, params29.gens, 29, params29.sqrt_m1)
        assert got == v.psl(params29.sqrt_m1)


def test_predicted_bounds_hole_vertex(params29):
    rep = predicted_bounds(params29, DiagonalVertex(29, 0, 1))
    assert rep.regime == "hole"
    assert rep.u1 in (
        (0, 1),
        (0, -1),
        (1, 0),
    )  # shortest vector has norm 1
    # 5^h >= 89·29⁴ first at h = 12
    assert rep.hole_bound == 12
    assert rep.h_max == 16
    # the navigator respects the bound
    res = diagonal_distance(params29, DiagonalVertex(29, 0, 1))
    assert res.h <= rep.hole_bound


def test_predicted_bounds_typical_vertex(params29):
    rep = predicted_bounds(params29, DiagonalVertex(29, 1, 2))
    assert rep.typical_bound == typical_height_bound(params29)
    assert rep.hole_bound >= 1
    # reduced basis really generates the vertex lattice: b·x ≡ a·y (mod q)
    for v in (rep.u1, rep.u2):
        assert (2 * v[0] - 1 * v[1]) % 29 == 0


def test_density_bound_values(params29):
    from fractions import Fraction

    assert density_bound(params29, 1) == 89 * 29**4
    assert density_bound(params29, 13) == Fraction(89 * 29**4, 5**12)
    with pytest.raises(ParameterError):
        density_bound(params29, 0)


def random_psl(q, rng):
    while True:
        m = tuple(rng.randrange(q) for _ in range(4))
        det = (m[0] * m[3] - m[1] * m[2]) % q
        if det != 0 and legendre(det, q) == 1:
            return PslElement.canonical(q, m)


@pytest.mark.parametrize("q", [29, 101])
def test_decompose_xyz_verifies(q):
    """Each returned triple must multiply back to the element, projectively."""
    sqrt_m1 = sqrt_mod(q - 1, q)
    rng = random.Random(52 + q)
    produced = 0
    for _ in range(500):
        g = random_psl(q, rng)
        for x, y, z in decompose_xyz(Quat(*psl_to_quat_class(g, sqrt_m1)), q):
            produced += 1
            prod = Quat(1, x, 0, 0) * Quat(1, 0, y, 0) * Quat(1, 0, 0, z)
            assert quat_to_psl(prod.reduced(q), q, sqrt_m1) == g
    assert produced > 200  # roughly half decompose, most with two roots


def test_decompose_xyz_identity(params29):
    g = PslElement.identity(29)
    triples = decompose_xyz(Quat(*psl_to_quat_class(g, params29.sqrt_m1)), 29)
    assert (0, 0, 0) in triples


def test_decompose_xyz_both_roots(params29):
    """When the discriminant is a nonzero square both roots are returned."""
    q, sqrt_m1 = 29, params29.sqrt_m1
    rng = random.Random(53)
    for _ in range(300):
        g = random_psl(q, rng)
        A, B, C, D = psl_to_quat_class(g, sqrt_m1)
        lead = (A * D - B * C) % q
        lin = (A * A + B * B - C * C - D * D) % q
        if lead == 0:
            continue
        disc = (lin * lin + 4 * lead * lead) % q
        if disc == 0 or legendre(disc, q) != 1:
            continue
        roots = {z for _x, _y, z in decompose_xyz(Quat(*psl_to_quat_class(g, sqrt_m1)), q)}
        inv = pow(2 * lead, -1, q)
        s = sqrt_mod(disc, q)
        expected = {(-lin + s) * inv % q, (-lin - s) * inv % q}
        degenerate = {
            z for z in expected if (A + D * z) % q == 0 or (1 + z * z) % q == 0
        }
        assert roots == expected - degenerate


@pytest.mark.parametrize("q", [29, 101])
def test_decompose_xyz_depends_only_on_the_class(q):
    """Any scalar multiple of alpha mod q, and alpha's PSL round trip, give
    alpha's triples in the same order."""
    sqrt_m1 = sqrt_mod(q - 1, q)
    rng = random.Random(57 + q)
    decomposable = 0
    for _ in range(300):
        while True:
            alpha = Quat(*(rng.randrange(q) for _ in range(4)))
            if alpha.norm() % q:
                break
        triples = decompose_xyz(alpha, q)
        decomposable += bool(triples)
        c = rng.randrange(1, q)
        assert decompose_xyz(Quat(*(c * x for x in alpha.coords())), q) == triples
        round_trip = psl_to_quat_class(quat_to_psl(alpha, q, sqrt_m1), sqrt_m1)
        assert decompose_xyz(Quat(*round_trip), q) == triples
    assert decomposable > 100


def test_general_navigate_round_trip(params29):
    rng = random.Random(54)
    for _ in range(60):
        g = random_psl(29, rng)
        res = general_navigate(params29, g)
        got = evaluate_word(res.word, params29.gens, 29, params29.sqrt_m1)
        assert got == g
        assert is_nonbacktracking(res.word, params29.gens)


# First 16 hex digits of the sha256 of (word, s_index, s_word, xyz,
# factor_heights) over 300 seeded elements per q: general navigation's
# output contract.
GENERAL_NAV_SHA256 = {29: "aecb7e9a1c7f7d5c", 61: "830077a32ec7c941", 101: "97dd2194fedda2a6"}


@pytest.mark.parametrize("q", sorted(GENERAL_NAV_SHA256))
def test_general_navigate_outputs_are_pinned(q):
    params = GraphParams(5, q)
    rng = random.Random(56 + q)
    digest = hashlib.sha256()
    for _ in range(300):
        res = general_navigate(params, random_psl(q, rng))
        fields = (res.word, res.s_index, res.s_word, res.xyz, res.factor_heights)
        digest.update(repr(fields).encode())
    assert digest.hexdigest()[:16] == GENERAL_NAV_SHA256[q]


def test_general_navigate_identity(params29):
    res = general_navigate(params29, PslElement.identity(29))
    assert res.word == ()
    assert res.s_index == 0
    assert res.xyz == (0, 0, 0)


def test_general_navigate_rejects_non_psl(params29):
    # det = 3, a non-residue mod 29 -> not in PSL2
    assert legendre(3, 29) == -1
    g = PslElement.canonical(29, (1, 0, 0, 3))
    with pytest.raises(ParameterError):
        general_navigate(params29, g)


def test_nav_config_budget_is_respected(params29):
    # s_cap of zero means not even the empty correcting word may be tried
    with pytest.raises(BudgetExhausted):
        general_navigate(
            params29, PslElement.identity(29), NavConfig(s_cap=0)
        )


def test_s_cap_counts_correcting_words_exactly(params29):
    """This element needs correcting word number 15, the 16th tried."""
    g = PslElement.canonical(29, (1, 2, 3, 7))
    res = general_navigate(params29, g)
    assert res.s_index == 15
    with pytest.raises(BudgetExhausted):
        general_navigate(params29, g, NavConfig(s_cap=15))
    assert general_navigate(params29, g, NavConfig(s_cap=16)) == res


def test_result_checks_survive_optimization(params29, monkeypatch):
    """A wrong word is a RuntimeError, not an assert that python -O strips."""
    import lpsnav.navigator as navigator

    peel = navigator.factor_into_generators
    monkeypatch.setattr(
        navigator, "factor_into_generators", lambda alpha, gens: peel(alpha, gens)[:-1]
    )
    with pytest.raises(RuntimeError):
        diagonal_distance(params29, DiagonalVertex(29, 0, 1))
    with pytest.raises(RuntimeError):
        general_navigate(params29, random_psl(29, random.Random(55)))


def test_primitivity_check_survives_optimization(params29, monkeypatch):
    """An exact-mode solution with p-content is a RuntimeError on the
    diagonal and the general path alike, not an assert that python -O
    strips."""
    solve_heights = navigator._solve_heights

    def with_p_content(*args):
        h, sol, mode = solve_heights(*args)
        return h + 2, tuple(5 * x for x in sol), mode

    monkeypatch.setattr(navigator, "_solve_heights", with_p_content)
    cfg = NavConfig(mode="exact")
    with pytest.raises(RuntimeError, match="primitive"):
        diagonal_distance(params29, DiagonalVertex(29, 3, 4), cfg)
    with pytest.raises(RuntimeError, match="primitive"):
        general_navigate(params29, random_psl(29, random.Random(55)), cfg)


def test_decomposition_check_survives_optimization(params29, monkeypatch):
    """A wrong root of the z-discriminant is a RuntimeError, not an assert
    that python -O strips."""
    monkeypatch.setattr(navigator, "sqrt_mod", lambda a, p: (sqrt_mod(a, p) + 1) % p)
    with pytest.raises(RuntimeError, match="k-coefficient"):
        g = PslElement.canonical(29, (1, 2, 3, 7))
        decompose_xyz(Quat(*psl_to_quat_class(g, params29.sqrt_m1)), 29)


@pytest.mark.parametrize("q", [29, 41, 61])
def test_one_vertex_lattice_serves_bounds_and_balance(q):
    """predicted_bounds prints the reduced basis of {b*x - a*y ≡ 0}, and the
    balance test on the scan's lattice {t1 + v*t2 ≡ 0} gives the verdicts of
    the rotated lattice {v*x - y ≡ 0}; both references are reduced here with
    gauss_reduce(congruence_lattice(...)) directly."""
    params, cfg = GraphParams(5, q), NavConfig()
    for a in range(q):
        for b in range(q):
            if not (a or b):
                continue
            ref = gauss_reduce(*congruence_lattice(b, -a, q))
            scan = solution_lattice(a, b, q).basis
            assert [norm_sq(u) for u in scan] == [norm_sq(u) for u in ref], (a, b)
            if DiagonalVertex(q, a, b).on_graph():
                report = predicted_bounds(params, DiagonalVertex(q, a, b), cfg)
                assert (report.u1, report.u2) == ref, (a, b)
    limit = (cfg.c_gamma * math.log(q) ** cfg.gamma) ** 2
    for v in range(q):
        u1, u2 = gauss_reduce(*congruence_lattice(v, -1, q))
        balanced = v == 0 or norm_sq(u2) <= limit * norm_sq(u1)
        lattices = navigator._axis_lattices(q, (v,), cfg)
        assert (lattices is not None) == balanced, v
        if balanced:
            assert lattices == [solution_lattice(1, v, q)]


# The benchmark's 20-digit q and the acceptance suite's 100-digit q.
Q20 = 27182818284590452489
Q100 = 6513516734600035718300327211250928237178281758494417357560086828416863929270451437126021949850746381


def _parity_lift(x, parity, q):
    """The residue mod 2q that is ≡ x (mod q) and ≡ parity (mod 2)."""
    v = x % q
    return v if v % 2 == parity else v + q


def _instances_by_height(params, a, b):
    """The four-squares instance of the vertex (a, b) at each height up to
    the cap, built apart from the scanner: λ from a direct power of √p."""
    q = params.q
    cap = navigator._least_height(1, params.p, q) + NavConfig().h_max_slack
    mu0 = sqrt_mod(pow(a * a + b * b, -1, q), q)
    for h in range(cap + 1):
        lam = mu0 * pow(params.sqrt_p, h, q) % q
        r1 = _parity_lift(lam * a, 1, q)
        r2 = _parity_lift(lam * b, 0, q)
        yield FourSquaresInstance(params.p**h, 2 * q, r1, r2)


def _check_scan(params, a, b):
    """The height scan of the vertex (a, b) yields a height's form exactly
    when the height's own `build_form` has rows, and then equals it field for
    field.  Returns every height's own form and the count the scan yielded."""
    forms = [build_form(inst) for inst in _instances_by_height(params, a, b)]
    lattice = solution_lattice(a, b, params.q)
    scanned = dict(navigator._height_forms(params, a, b, lattice, len(forms) - 1))
    assert max(scanned, default=0) < len(forms), (a, b)
    for h, form in enumerate(forms):
        if h in scanned:
            assert scanned[h] == form, (a, b, h)
        else:
            assert _row_range(form) is None, (a, b, h)
    return forms, len(scanned)


@pytest.mark.parametrize("q", [29, 41, 61])
def test_vertex_lattice_matches_per_height_form(q):
    """The scanner yields exactly the heights with rows, each with the form
    the height's instance alone gives; every instance's k is even, so no
    height is infeasible, and its form agrees with the lattice primitives."""
    params, m = GraphParams(5, q), 2 * q
    yielded = skipped = 0
    for a in range(q):
        for b in range(q):
            if not ((a or b) and DiagonalVertex(q, a, b).on_graph()):
                continue
            forms, n_yielded = _check_scan(params, a, b)
            yielded, skipped = yielded + n_yielded, skipped + len(forms) - n_yielded
            for h, form in enumerate(forms):
                k = (form.n - form.r1**2 - form.r2**2) // m
                assert k % 2 == 0, (a, b, h)
                # Against the lattice primitives directly, as each height
                # once built its form on its own.
                c1, c2 = 2 * form.r1 % m, 2 * form.r2 % m
                u1, u2 = gauss_reduce(*congruence_lattice(c1, c2, m))
                u0 = shortest_coset_vector((u1, u2), particular_solution(c1, c2, k % m, m))
                assert (form.u0, form.u1, form.u2) == (u0, u1, u2), (a, b, h)
    assert yielded > q * q // 4 and skipped > q * q // 4


@pytest.mark.parametrize("q", [Q20, Q100], ids=["Q20", "Q100"])
def test_height_skip_matches_row_range_at_benchmark_sizes(q):
    """The same check on seeded vertices of the benchmark's two large moduli,
    where almost every height below the answer is skipped."""
    params, rng = GraphParams(5, q), random.Random(9)
    vertices = 0
    while vertices < 8:
        a, b = rng.randrange(q), rng.randrange(q)
        if (a or b) and DiagonalVertex(q, a, b).on_graph():
            forms, yielded = _check_scan(params, a, b)
            assert 0 < yielded < len(forms), (a, b)
            vertices += 1
    # Hole-regime vertices: u1 is tiny and the first rows come early.
    holes = 0
    while holes < 4:
        a, b = rng.randrange(1, 1000), rng.randrange(1, 1000)
        vertex = DiagonalVertex(q, a, b)
        if vertex.on_graph():
            assert predicted_bounds(params, vertex).regime == "hole", (a, b)
            forms, yielded = _check_scan(params, a, b)
            assert 0 < yielded < len(forms), (a, b)
            holes += 1


def _bad_lattices(a, b):
    """(lattice, the scanner's error) for three lattices that do not fit (a, b)."""
    (u1, u2), unit, g = solution_lattice(a, b, 29)
    return (
        (SolutionLattice((u1, u2), (unit[0] + 1, unit[1]), g), "off the coset"),
        (SolutionLattice((u1, (2 * u2[0], 2 * u2[1])), unit, g), "wrong index"),
        (SolutionLattice(((0, 1), (29, 0)), unit, g), "off the lattice"),
    )


def test_lattice_checks_survive_optimization():
    """A lattice that does not fit the vertex is a RuntimeError on the height
    scan's first step, not an assert that python -O strips.  The scan's
    once-per-vertex checks raise it, before the coset points of heights 0
    and 1 are formed and before any form is built."""
    params = GraphParams(5, 29)

    def first_height(a, b, lattice):
        return next(navigator._height_forms(params, a, b, lattice, 12))[0]

    # Height 0 of (3, 4) has rows; the first rows of (1, 8) and (0, 1) come
    # at heights 5 and 7.
    assert first_height(3, 4, solution_lattice(3, 4, 29)) == 0
    assert first_height(1, 8, solution_lattice(1, 8, 29)) == 5
    assert first_height(0, 1, solution_lattice(0, 1, 29)) == 7
    cases = [(3, 4, *bad) for bad in _bad_lattices(3, 4)]
    cases += [(1, 8, *bad) for bad in _bad_lattices(1, 8)]
    (u1, u2), unit, g = solution_lattice(0, 1, 29)
    cases.append((0, 1, SolutionLattice((u1, u2), (unit[0], unit[1] + 1), g), "off the coset"))
    for a, b, bad, error in cases:
        with pytest.raises(RuntimeError, match=error):
            first_height(a, b, bad)


def test_coset_residue_checks_survive_optimization(monkeypatch):
    """A wrong coset point is a RuntimeError, not an assert that python -O
    strips.  A wrong λ raises at height 1, though (1, 8) has no rows before
    height 5: the scan forms and checks the coset points of heights 0 and 1,
    which start its row-offset recurrence, before it yields.  A wrong carried
    point raises at the height it is formed for."""
    params = GraphParams(5, 29)
    lattice = solution_lattice(1, 8, 29)

    def scan(params):
        return list(navigator._height_forms(params, 1, 8, lattice, 12))

    assert min(h for h, _form in scan(params)) == 5
    # √p wrong: λ²(a² + b²) ≢ p (mod q) at h = 1, so x² + y² ≢ p (mod 4q²).
    bad = copy.copy(params)
    bad.sqrt_p = params.sqrt_p + 1
    with pytest.raises(RuntimeError, match=r"off the coset of \(1, 8\) at height 1$"):
        scan(bad)

    # p^⌊h/2⌋ wrong at height 5, the first yielded: twice it leaves the
    # circle x² + y² ≡ p^5 (mod 4q²); its negative stays on the circle, but
    # its row offset is not the recurrence's.
    def wrong_power(scale):
        def fake_pow(x, e, mod):
            return pow(x, e, mod) * (scale if (x, e, mod) == (5, 2, 2 * 29 * 29) else 1) % mod

        return fake_pow

    monkeypatch.setattr(navigator, "pow", wrong_power(2), raising=False)
    with pytest.raises(RuntimeError, match=r"off the coset of \(1, 8\) at height 5$"):
        scan(params)
    monkeypatch.setattr(navigator, "pow", wrong_power(-1), raising=False)
    with pytest.raises(RuntimeError, match=r"row offset \d+ of \(1, 8\) at height 5 "):
        scan(params)


def test_row_offset_check_survives_optimization(monkeypatch):
    """A fault in the row-offset recurrence is a RuntimeError at the first
    height the faulty scan yields, not an assert that python -O strips: the
    yielded height's coset point gives its own row offset, and the two
    disagree."""
    params = GraphParams(5, 29)
    lattice = solution_lattice(1, 8, 29)
    row_offsets = navigator._row_offsets

    def scan():
        return navigator._height_forms(params, 1, 8, lattice, 12)

    assert next(scan())[0] == 5

    # Height 3 has no rows, but an offset of 0 puts a row through the origin.
    def zero_at_3(d0, d1, p, mq):
        for h, d in enumerate(row_offsets(d0, d1, p, mq)):
            yield 0 if h == 3 else d

    monkeypatch.setattr(navigator, "_row_offsets", zero_at_3)
    with pytest.raises(RuntimeError, match=r"row offset 0 of \(1, 8\) at height 3 "):
        next(scan())
    # A wrong step from height 2 on skips height 5, which has rows, and puts
    # rows at height 6 that its coset point does not have.
    monkeypatch.setattr(
        navigator, "_row_offsets", lambda d0, d1, p, mq: row_offsets(d0, d1, p + 1, mq)
    )
    with pytest.raises(RuntimeError, match=r"row offset 602 of \(1, 8\) at height 6 "):
        next(scan())
