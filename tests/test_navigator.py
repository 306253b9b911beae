"""Navigation layer: diagonal distances, bounds, decomposition, general case."""

import itertools
import math
import random

import pytest

import lpsnav.navigator as navigator
from lpsnav.errors import ParameterError
from lpsnav.foursquares import FourSquaresInstance, build_form
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
        for x, y, z in decompose_xyz(g, sqrt_m1):
            produced += 1
            prod = Quat(1, x, 0, 0) * Quat(1, 0, y, 0) * Quat(1, 0, 0, z)
            assert quat_to_psl(prod.reduced(q), q, sqrt_m1) == g
    assert produced > 200  # roughly half decompose, most with two roots


def test_decompose_xyz_identity(params29):
    triples = decompose_xyz(PslElement.identity(29), params29.sqrt_m1)
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
        roots = {z for _x, _y, z in decompose_xyz(g, sqrt_m1)}
        inv = pow(2 * lead, -1, q)
        s = sqrt_mod(disc, q)
        expected = {(-lin + s) * inv % q, (-lin - s) * inv % q}
        degenerate = {
            z for z in expected if (A + D * z) % q == 0 or (1 + z * z) % q == 0
        }
        assert roots == expected - degenerate


def test_general_navigate_round_trip(params29):
    rng = random.Random(54)
    for _ in range(60):
        g = random_psl(29, rng)
        res = general_navigate(params29, g)
        got = evaluate_word(res.word, params29.gens, 29, params29.sqrt_m1)
        assert got == g
        assert is_nonbacktracking(res.word, params29.gens)


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
    from lpsnav.errors import BudgetExhausted

    with pytest.raises(BudgetExhausted):
        general_navigate(
            params29, PslElement.identity(29), NavConfig(s_cap=0)
        )


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
        decompose_xyz(PslElement.canonical(29, (1, 2, 3, 7)), params29.sqrt_m1)


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


def _vertex_heights(q):
    """(a, b, the vertex's scanned forms up to the height cap) for every
    on-graph (a, b) mod q."""
    params = GraphParams(5, q)
    cap = navigator._least_height(1, 5, q) + NavConfig().h_max_slack
    for a in range(q):
        for b in range(q):
            if (a or b) and DiagonalVertex(q, a, b).on_graph():
                forms = navigator._height_forms(params, a, b, solution_lattice(a, b, q))
                yield a, b, itertools.islice(forms, cap + 1)


@pytest.mark.parametrize("q", [29, 41, 61])
def test_vertex_lattice_matches_per_height_form(q):
    """The scanner's form at every height is the form the height's instance
    alone gives, field for field, and its k is even, so no height is
    infeasible."""
    m, checked = 2 * q, 0
    for a, b, forms in _vertex_heights(q):
        for h, form in enumerate(forms):
            assert (form.n, form.modulus) == (5**h, m), (a, b, h)
            inst = FourSquaresInstance(form.n, m, form.r1, form.r2)
            assert form == build_form(inst), (a, b, h)
            k = (inst.n - inst.r1**2 - inst.r2**2) // m
            assert k % 2 == 0, (a, b, h)
            # Against the lattice primitives directly, as each height once
            # built its form on its own.
            c1, c2 = 2 * inst.r1 % m, 2 * inst.r2 % m
            u1, u2 = gauss_reduce(*congruence_lattice(c1, c2, m))
            u0 = shortest_coset_vector((u1, u2), particular_solution(c1, c2, k % m, m))
            assert (form.u0, form.u1, form.u2) == (u0, u1, u2), (a, b, h)
            checked += 1
    assert checked > q * q // 4


def test_lattice_checks_survive_optimization():
    """A lattice that does not fit the vertex is a RuntimeError in the height
    scan, not an assert that python -O strips."""
    params = GraphParams(5, 29)
    (u1, u2), unit, g = solution_lattice(3, 4, 29)
    for bad in (
        SolutionLattice((u1, u2), (unit[0] + 1, unit[1]), g),  # wrong coset
        SolutionLattice((u1, (2 * u2[0], 2 * u2[1])), unit, g),  # sublattice
        SolutionLattice(((0, 1), (29, 0)), unit, g),  # off the lattice
    ):
        with pytest.raises(RuntimeError):
            for _form in itertools.islice(navigator._height_forms(params, 3, 4, bad), 12):
                pass
