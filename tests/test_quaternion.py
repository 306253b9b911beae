"""Quaternion arithmetic, generator sets, and word factorization."""

import itertools
import math
import random

import pytest

from lpsnav.errors import ParameterError
from lpsnav.ntheory import is_prime, sqrt_mod
from lpsnav.quaternion import (
    FactorizationError,
    GeneratorSet,
    GraphParams,
    PslElement,
    Quat,
    _block_len,
    _peel_table,
    evaluate_word,
    factor_into_generators,
    free_reduce,
    inverse_word,
    is_nonbacktracking,
    lps_generators,
    psl_to_quat_class,
    quat_to_psl,
)

Q100 = 6513516734600035718300327211250928237178281758494417357560086828416863929270451437126021949850746381


def test_quat_algebra():
    i = Quat(0, 1, 0, 0)
    j = Quat(0, 0, 1, 0)
    k = Quat(0, 0, 0, 1)
    assert i * j == k and j * k == i and k * i == j
    assert j * i == -k
    assert i * i == Quat(-1, 0, 0, 0)
    rng = random.Random(31)
    for _ in range(200):
        a = Quat(*(rng.randrange(-9, 10) for _ in range(4)))
        b = Quat(*(rng.randrange(-9, 10) for _ in range(4)))
        assert (a * b).norm() == a.norm() * b.norm()
        assert (a * b).conjugate() == b.conjugate() * a.conjugate()
        assert a * a.conjugate() == Quat(a.norm(), 0, 0, 0)


def test_generator_set_p5():
    gens = lps_generators(5)
    assert len(gens) == 6
    assert [g.coords() for g in gens.quats] == [
        (1, -2, 0, 0),
        (1, 0, -2, 0),
        (1, 0, 0, -2),
        (1, 0, 0, 2),
        (1, 0, 2, 0),
        (1, 2, 0, 0),
    ]
    assert gens.names == ("Vz^{-1}", "Vy^{-1}", "Vx^{-1}", "Vx", "Vy", "Vz")
    for i, g in enumerate(gens.quats):
        assert g.norm() == 5
        partner = gens.quats[gens.conj[i]]
        assert partner == g.conjugate()
        assert gens.conj[gens.conj[i]] == i


def test_generator_set_p13():
    gens = lps_generators(13)
    assert len(gens) == 14
    for i, g in enumerate(gens.quats):
        assert g.norm() == 13
        assert g.a > 0 and g.a % 2 == 1
        assert all(x % 2 == 0 for x in (g.b, g.c, g.d))
        assert gens.quats[gens.conj[i]] == g.conjugate()
    # lexicographic order
    coords = [g.coords() for g in gens.quats]
    assert coords == sorted(coords)
    # names pair up: every g has its ^{-1} partner
    plain = {n for n in gens.names if not n.endswith("^{-1}")}
    assert len(plain) == 7
    for n in plain:
        assert f"{n}^{{-1}}" in gens.names


def test_lps_generators_rejects_bad_p():
    for p in (4, 7, 9, 11):
        with pytest.raises(ParameterError):
            lps_generators(p)


def test_graph_params_validation():
    GraphParams(5, 29)  # fine
    GraphParams(5, 41)
    GraphParams(13, 17)
    with pytest.raises(ParameterError):
        GraphParams(5, 13)  # 5 is not a quadratic residue mod 13
    with pytest.raises(ParameterError):
        GraphParams(5, 7)  # q ≢ 1 (mod 4)
    with pytest.raises(ParameterError):
        GraphParams(6, 29)  # p not prime
    with pytest.raises(ParameterError):
        GraphParams(5, 5)


def test_psl_element_canonical_and_group_laws():
    q = 29
    rng = random.Random(32)
    for _ in range(200):
        m = tuple(rng.randrange(q) for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % q == 0:
            continue
        g = PslElement.canonical(q, m)
        # canonical: first nonzero entry is 1
        lead = next(x for x in g.m if x)
        assert lead == 1
        # scaling the representative does not change the class
        for lam in (2, 17, q - 1):
            assert PslElement.canonical(q, tuple(x * lam for x in m)) == g
        assert g @ g.inverse() == PslElement.identity(q)
        assert g.inverse() @ g == PslElement.identity(q)


def reference_canonical(q, m):
    """The class's representative with first nonzero entry 1, by one inverse."""
    inv = pow(next(x for x in m if x % q), -1, q)
    return tuple(x * inv % q for x in m)


@pytest.mark.parametrize("q", [29, Q100], ids=["q29", "Q100"])
def test_psl_product_and_equality_without_an_inverse(q):
    """A product keeps an uncanonical representative; `==` and `hash` still
    agree with the canonical form, and `.m` is the canonical product."""
    rng = random.Random(q)

    def element(m):
        return PslElement.canonical(q, m)

    mats = []
    while len(mats) < 40:
        m = tuple(rng.randrange(q) if rng.random() < 0.8 else 0 for _ in range(4))
        if (m[0] * m[3] - m[1] * m[2]) % q:
            mats.append(m)
    for m, n in zip(mats, mats[1:] + mats[:1]):
        g, h = element(m), element(n)
        a, b, c, d = m
        e, f, gg, hh = n
        product = (a * e + b * gg, a * f + b * hh, c * e + d * gg, c * f + d * hh)
        assert (g @ h).m == reference_canonical(q, product)
        assert repr(g @ h) == f"PslElement(q={q}, m={reference_canonical(q, product)})"
        for lam in (1, 2, q - 1, rng.randrange(1, q)):
            scaled = element([x * lam for x in m])
            assert scaled == g and hash(scaled) == hash(g)
            assert scaled.m == g.m == reference_canonical(q, m)
            assert (scaled @ h == g @ h) and hash(scaled @ h) == hash(g @ h)
        assert (g == h) == (g.m == h.m) == (hash(g) == hash(h))
        assert g != m  # not a PslElement
    # a representative with a different first nonzero entry is another class
    assert element((0, 1, 1, 0)) != element((1, 1, 1, 0)) != element((0, 1, 1, 0))
    assert element((1, 0, 0, 1)) != element((0, 1, q - 1, 0))
    assert PslElement.identity(q) != PslElement.identity(13)
    singular = PslElement(q, (1, 2, 2, 4))
    with pytest.raises(ParameterError, match="singular"):
        element((1, 2, 2, 4))
    with pytest.raises(ParameterError, match="singular"):
        singular @ element(mats[0])
    with pytest.raises(ParameterError, match="singular"):
        element(mats[0]) @ singular


def test_quat_psl_round_trip():
    params = GraphParams(5, 29)
    q, i = params.q, params.sqrt_m1
    rng = random.Random(33)
    for _ in range(200):
        alpha = Quat(*(rng.randrange(q) for _ in range(4)))
        if alpha.norm() % q == 0:
            continue
        g = quat_to_psl(alpha, q, i)
        back = psl_to_quat_class(g, i)
        # class equality: back is a scalar multiple of alpha mod q
        a = alpha.coords()
        lead_idx = next(idx for idx, x in enumerate(a) if x % q)
        lam = back[lead_idx] * pow(a[lead_idx], -1, q) % q
        assert lam != 0
        assert all(back[idx] == a[idx] * lam % q for idx in range(4))


def test_v_gate_images():
    """The p=5 generators map to the classical one-parameter gate matrices."""
    params = GraphParams(5, 29)
    q, i = params.q, params.sqrt_m1
    by_name = dict(zip(params.gens.names, params.gens.quats))
    two_i = 2 * i % q
    # Vz = 1 + 2i·(quaternion i) acts diagonally
    img = quat_to_psl(by_name["Vz"], q, i)
    assert img == PslElement.canonical(q, (1 + two_i, 0, 0, 1 - two_i))
    # Vy = 1 + 2j: real off-diagonal entries
    img = quat_to_psl(by_name["Vy"], q, i)
    assert img == PslElement.canonical(q, (1, 2, -2, 1))
    # Vx = 1 + 2k: imaginary off-diagonal entries
    img = quat_to_psl(by_name["Vx"], q, i)
    assert img == PslElement.canonical(q, (1, two_i, two_i, 1))


def random_nonbacktracking_word(gens, length, rng):
    word = []
    while len(word) < length:
        c = rng.randrange(len(gens))
        if word and c == gens.conj[word[-1]]:
            continue
        word.append(c)
    return word


def word_product(word, gens):
    acc = Quat(1, 0, 0, 0)
    for c in word:
        acc = acc * gens.quats[c]
    return acc


@pytest.mark.parametrize("p", [5, 13])
def test_factor_round_trip(p):
    gens = lps_generators(p)
    rng = random.Random(34 + p)
    for _ in range(300):
        length = rng.randrange(0, 9)
        word = random_nonbacktracking_word(gens, length, rng)
        alpha = word_product(word, gens)
        assert alpha.norm() == p**length
        recovered = factor_into_generators(alpha, gens)
        assert recovered == word
        # sign of the product is irrelevant
        assert factor_into_generators(-alpha, gens) == word


def full_product_peel(alpha, gens):
    """Peeling by p + 1 full quaternion products per letter: the reference
    for factor_into_generators, which looks each letter up by the line of
    its residue mod p."""
    p = gens.p
    n, h = alpha.norm(), 0
    while n % p == 0:
        n, h = n // p, h + 1
    if n != 1 or alpha.content() % p == 0:
        raise FactorizationError("not primitive of norm p^h")
    word, cur = [], alpha
    for _ in range(h):
        hits = [i for i, g in enumerate(gens.quats)
                if all(x % p == 0 for x in (g.conjugate() * cur).coords())]
        if len(hits) != 1:
            raise FactorizationError("no or ambiguous step")
        word.append(hits[0])
        cur = gens.quats[hits[0]].conjugate() * cur
        cur = Quat(*(x // p for x in cur.coords()))
    if cur.coords() not in ((1, 0, 0, 0), (-1, 0, 0, 0)):
        raise FactorizationError("residual unit is not ±1")
    return word


@pytest.mark.parametrize("p", [5, 13, 17, 29, 37])
def test_peel_matches_full_product_reference(p):
    """Same word, or the same refusal, as full-product peeling on products of
    up to 40 norm-p quaternions of every parity, so some are not generator
    words and, with backtracking, some are imprimitive."""
    gens = lps_generators(p)
    r = math.isqrt(p)
    norm_p = [Quat(*c) for c in itertools.product(range(-r, r + 1), repeat=4)
              if sum(x * x for x in c) == p]
    assert len(norm_p) == 8 * (p + 1)
    rng = random.Random(37 + p)
    peeled = refused = 0
    for _ in range(600):
        alpha = Quat(1, 0, 0, 0)
        for _ in range(rng.randrange(0, 41)):
            alpha = alpha * rng.choice(norm_p)
        try:
            expected = full_product_peel(alpha, gens)
        except FactorizationError:
            refused += 1
            with pytest.raises(FactorizationError):
                factor_into_generators(alpha, gens)
        else:
            peeled += 1
            assert factor_into_generators(alpha, gens) == expected
    assert peeled > 20 and refused > 20


def test_peel_matches_full_product_reference_at_benchmark_length():
    """Words of 400-450 letters, the length of a 100-digit diagonal answer."""
    gens = lps_generators(5)
    rng = random.Random(38)
    for _ in range(20):
        word = random_nonbacktracking_word(gens, rng.randrange(400, 451), rng)
        alpha = word_product(word, gens)
        for signed in (alpha, -alpha):
            assert full_product_peel(signed, gens) == word
            assert factor_into_generators(signed, gens) == word


def column_lines(g, p, iota):
    """The points of P^1(F_p) spanned by the nonzero columns of g's image
    [[a+ιb, c+ιd], [-c+ιd, a-ιb]] mod p, each scaled to a first nonzero
    entry of 1."""
    a, b, c, d = g.coords()
    lines = set()
    for x, y in ((a + iota * b, -c + iota * d), (c + iota * d, a - iota * b)):
        x, y = x % p, y % p
        if x or y:
            s = pow(x if x else y, -1, p)
            lines.add((x * s % p, y * s % p))
    return lines


def test_generator_lines_are_a_bijection_onto_p1():
    """Each generator's image mod p has rank one, and the p + 1 column lines
    are the p + 1 points of P^1(F_p): one lookup finds each peeled letter."""
    for p in range(5, 200, 4):
        if not is_prime(p):
            continue
        gens = lps_generators(p)
        iota = sqrt_mod(p - 1, p)
        lines = []
        for g in gens.quats:
            (line,) = column_lines(g, p, iota)
            lines.append(line)
        assert len(set(lines)) == len(lines) == p + 1
        pk, table_iota, table = _peel_table(gens, 1)
        assert (pk, table_iota, len(table)) == (p, iota, p + 1)
        for i, (x, y) in enumerate(lines):
            assert table[y * pow(x, -1, p) % p if x else p] == ((i,), gens.quats[i].conjugate())


# A q for each p with X_{p,q} non-bipartite, for the generator images.
BLOCK_GRAPHS = {5: 29, 13: 17, 17: 13, 29: 53, 37: 41}


def test_block_length_keeps_tables_small():
    assert {p: _block_len(p) for p in BLOCK_GRAPHS} == {5: 4, 13: 2, 17: 2, 29: 2, 37: 1}
    assert _block_len(1009) == 1


@pytest.mark.parametrize("p", sorted(BLOCK_GRAPHS))
def test_block_peel_and_evaluate_match_letter_by_letter(p):
    """The k-letter table holds every reduced k-letter word once; peeling k
    letters per step returns each reduced word of 0 ... 3k + 2 letters, and
    evaluating k letters per step equals the left-to-right product of the
    generator images, on backtracking words too."""
    params = GraphParams(p, BLOCK_GRAPHS[p])
    gens, q = params.gens, params.q
    k = _block_len(p)
    pk, iota, table = _peel_table(gens, k)
    assert pk == p**k and (iota * iota + 1) % pk == 0
    assert len(table) == (p + 1) * p ** (k - 1)
    assert len({w for w, _ in table}) == len(table)
    for w, conjugate in table:
        assert len(w) == k and is_nonbacktracking(w, gens)
        assert conjugate == word_product(w, gens).conjugate()
    rng = random.Random(40 + p)
    for length in range(3 * k + 3):
        for _ in range(12):
            word = random_nonbacktracking_word(gens, length, rng)
            alpha = word_product(word, gens)
            assert factor_into_generators(alpha, gens) == word
            assert factor_into_generators(-alpha, gens) == word
            letters = [rng.randrange(p + 1) for _ in range(length)]
            for w in (word, letters):
                expected = PslElement.identity(q)
                for i in w:
                    expected = expected @ params.gen_images[i]
                assert evaluate_word(w, gens, q, params.sqrt_m1) == expected


def test_block_table_refuses_a_wrong_conjugate_map():
    """A set whose lines mod p are distinct but whose `conj` is wrong lets a
    backtracking word into the k-letter table; its product is ≡ 0 (mod p)."""
    gens = lps_generators(5)
    wrong = GeneratorSet(5, gens.quats, tuple(range(6)), gens.names)
    with pytest.raises(ParameterError, match="≡ 0 mod 5"):
        factor_into_generators(gens.quats[0], wrong)


def test_peel_refusals_survive_optimization():
    """Every refusal of factor_into_generators is a raise that python -O
    keeps, and the zero quaternion is refused instead of looping forever."""
    gens = lps_generators(5)
    with pytest.raises(FactorizationError, match="norm is not a power of p"):
        factor_into_generators(Quat(0, 0, 0, 0), gens)
    with pytest.raises(FactorizationError, match="norm is not a power of p"):
        factor_into_generators(Quat(1, 1, 1, 0), gens)  # norm 3
    with pytest.raises(FactorizationError, match="not primitive"):
        factor_into_generators(Quat(5, 0, 0, 0), gens)  # norm 25 but imprimitive
    # norm 25, primitive, but the parity pattern (odd real part, even imaginary
    # parts) fails, so peeling cannot terminate at a unit
    for alpha in (Quat(0, 3, 4, 0), Quat(4, 3, 0, 0)):
        with pytest.raises(FactorizationError, match="residual unit"):
            factor_into_generators(alpha, gens)
    # -g has the line of g, so a set holding both cannot be peeled by lookup
    quats = (-gens.quats[1],) + gens.quats[1:]
    shared = GeneratorSet(5, quats, gens.conj, gens.names)
    with pytest.raises(ParameterError, match="share a line"):
        factor_into_generators(gens.quats[0], shared)


def test_divexact_check_survives_optimization():
    """An inexact division is a RuntimeError, not an assert that python -O
    strips: peeling relies on it."""
    assert Quat(2, -4, 6, 8).divexact(2) == Quat(1, -2, 3, 4)
    with pytest.raises(RuntimeError):
        Quat(2, 4, 6, 7).divexact(2)


def test_word_utilities():
    gens = lps_generators(5)
    rng = random.Random(35)
    for _ in range(200):
        word = random_nonbacktracking_word(gens, rng.randrange(0, 8), rng)
        assert is_nonbacktracking(word, gens)
        inv = inverse_word(word, gens)
        assert free_reduce(word + inv, gens) == []
        assert free_reduce(list(word), gens) == word
    assert not is_nonbacktracking([0, gens.conj[0]], gens)


def test_evaluate_word_matches_quat_product():
    params = GraphParams(5, 29)
    gens = params.gens
    rng = random.Random(36)
    for _ in range(100):
        word = random_nonbacktracking_word(gens, rng.randrange(0, 7), rng)
        alpha = word_product(word, gens)
        assert evaluate_word(word, gens, params.q, params.sqrt_m1) == quat_to_psl(
            alpha, params.q, params.sqrt_m1
        )
