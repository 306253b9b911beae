"""Number-theory kernel tests, cross-checked against a sieve and sympy."""

import math
import random
import signal

import pytest
import sympy

from lpsnav import ntheory
from lpsnav.ntheory import (
    Factorization,
    TwoSquares,
    factor,
    gauss_gcd,
    is_prime,
    jacobi,
    legendre,
    next_prime_at_least,
    sqrt_mod,
    two_squares,
    two_squares_prime,
    xgcd,
)


def sieve(n: int) -> list[bool]:
    flags = [True] * (n + 1)
    flags[0] = flags[1] = False
    for i in range(2, math.isqrt(n) + 1):
        if flags[i]:
            flags[i * i :: i] = [False] * len(flags[i * i :: i])
    return flags


def test_is_prime_against_sieve():
    flags = sieve(100_000)
    for n in range(100_001):
        assert is_prime(n) == flags[n], n


def test_is_prime_large_values():
    rng = random.Random(11)
    for _ in range(120):
        n = rng.randrange(10**12, 10**18)
        assert is_prime(n) == sympy.isprime(n), n
    for _ in range(25):
        n = rng.randrange(10**30, 10**40)
        assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_classic_traps():
    # Carmichael numbers and strong-pseudoprime magnets.
    for n in (561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
              3215031751, 3825123056546413051):
        assert not is_prime(n), n
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)  # Mersenne composite (Cole's factorization)


def test_xgcd():
    rng = random.Random(5)
    for _ in range(500):
        a = rng.randrange(-10**9, 10**9)
        b = rng.randrange(-10**9, 10**9)
        g, u, v = xgcd(a, b)
        assert g == math.gcd(a, b)
        assert u * a + v * b == g


def test_jacobi_matches_sympy():
    rng = random.Random(6)
    for _ in range(800):
        n = rng.randrange(3, 10**6) | 1
        a = rng.randrange(-(10**6), 10**6)
        assert jacobi(a, n) == sympy.jacobi_symbol(a, n), (a, n)
    with pytest.raises(ValueError):
        jacobi(3, 10)
    with pytest.raises(ValueError):
        jacobi(3, -7)


def test_legendre_euler_criterion():
    rng = random.Random(7)
    for p in (5, 13, 29, 41, 101, 3571):
        for _ in range(60):
            a = rng.randrange(1, p)
            assert legendre(a, p) == (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def test_next_prime_at_least():
    assert next_prime_at_least(14) == 17
    assert next_prime_at_least(17) == 17
    assert next_prime_at_least(90, condition=lambda n: n % 4 == 3) == 103
    rng = random.Random(8)
    for _ in range(40):
        x = rng.randrange(10, 10**8)
        p = next_prime_at_least(x)
        assert p >= x and is_prime(p)
        assert sympy.nextprime(x - 1) == p
    p = next_prime_at_least(10**6, mode="randomized", rng=random.Random(1))
    assert is_prime(p) and 10**6 <= p <= 2 * 10**6


def test_factor_reassembles():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randrange(2, 10**12)
        f = factor(n)
        assert isinstance(f, Factorization)
        assert f.complete
        assert f.value() == n
        for p, e in f.factors:
            assert is_prime(p) and e >= 1
        assert list(f.factors) == sorted(f.factors)


def test_factor_semiprimes():
    rng = random.Random(10)
    for _ in range(12):
        p = next_prime_at_least(rng.randrange(10**9, 10**10))
        q = next_prime_at_least(rng.randrange(10**9, 10**10))
        f = factor(p * q)
        assert f.complete and f.value() == p * q
        assert {x for x, _ in f.factors} == {p, q}


def test_factor_budget_gives_incomplete():
    p = next_prime_at_least(10**16)
    q = next_prime_at_least(2 * 10**16)
    f = factor(p * q, budget_rho=1)
    assert f.value() == p * q
    if not f.complete:
        assert f.cofactor > 1


def test_sqrt_mod():
    rng = random.Random(12)
    for p in (5, 13, 29, 41, 10007, 1000003):
        for _ in range(40):
            x = rng.randrange(1, p)
            a = x * x % p
            r = sqrt_mod(a, p)
            assert r * r % p == a
            assert 0 <= r <= (p - 1) // 2  # canonical representative
    with pytest.raises(ValueError):
        sqrt_mod(2, 5)  # 2 is not a square mod 5


def test_sqrt_mod_composite_modulus_is_an_error():
    """A composite modulus ends in ValueError, never in a hang or a wrong
    root: 21 sends Tonelli-Shanks round a cycle, 9 has no non-residue, and
    the p ≡ 3 (mod 4) power gives 1 as a root of 4 mod 15."""

    def timeout(_signum, _frame):
        raise TimeoutError("sqrt_mod did not return within 5 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(5)
    try:
        for a, n in ((20, 21), (8, 9), (4, 15)):
            with pytest.raises(ValueError):
                sqrt_mod(a, n)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def test_sqrt_mod_is_deterministic():
    q = 6513516734600035718300327211250928237178281758494417357560086828416863929270451437126021949850746381
    r1 = sqrt_mod(q - 1, q)
    r2 = sqrt_mod(q - 1, q)
    assert r1 == r2
    assert r1 * r1 % q == q - 1


def test_two_squares_prime():
    assert two_squares_prime(2) == (1, 1)
    assert two_squares_prime(5) == (1, 2)
    assert two_squares_prime(13) == (2, 3)
    assert two_squares_prime(29) == (2, 5)
    rng = random.Random(13)
    for _ in range(60):
        p = next_prime_at_least(rng.randrange(10, 10**9), condition=lambda n: n % 4 == 1)
        x, y = two_squares_prime(p)
        assert x * x + y * y == p
        assert 0 <= x <= y


def brute_two_squares(n: int):
    for x in range(math.isqrt(n) + 1):
        y2 = n - x * x
        y = math.isqrt(y2)
        if y * y == y2 and x <= y:
            return (x, y)
    return None


def fast_declines(n: int) -> bool:
    """Fast mode leaves n undecided exactly when its odd part is a composite
    ≡ 1 (mod 4)."""
    if n == 0:
        return False
    m = n >> ((n & -n).bit_length() - 1)
    return m % 4 == 1 and m > 1 and not sympy.isprime(m)


@pytest.mark.parametrize("mode", ["exact", "fast"])
def test_two_squares_small_exhaustive(mode):
    for n in range(0, 3000):
        res = two_squares(n, mode=mode)
        if mode == "fast" and res.status == "unknown":
            assert fast_declines(n), n
            continue
        brute = brute_two_squares(n)
        if brute is None:
            assert res.status == "absent", n
            assert res.pair is None
        else:
            assert res.status == "found", n
            x, y = res.pair
            assert x * x + y * y == n and 0 <= x <= y
    if mode == "exact":
        return
    # Fast verdicts are the exact ones, except "unknown" where fast declines.
    rng = random.Random(16)
    values = list(range(20000))
    for _ in range(100):
        s = rng.randrange(0, 40)
        p = next_prime_at_least(rng.randrange(3, 10**30))
        p2 = next_prime_at_least(rng.randrange(3, 10**8))
        p3 = next_prime_at_least(rng.randrange(3, 10**8))
        values += [2**s * p, 2**s * p2 * p3]
    for n in values:
        fast = two_squares(n, mode="fast")
        assert (fast.status == "unknown") == fast_declines(n), n
        if fast.status != "unknown":
            assert fast == two_squares(n), n


def test_two_squares_big():
    rng = random.Random(14)
    for _ in range(30):
        x = rng.randrange(10**8, 10**9)
        y = rng.randrange(10**8, 10**9)
        res = two_squares(x * x + y * y)
        assert res.status == "found"
        a, b = res.pair
        assert a * a + b * b == x * x + y * y


def test_two_squares_unknown_when_budget_fails():
    p = next_prime_at_least(10**16)
    q = next_prime_at_least(2 * 10**16)
    res = two_squares(p * q, budget_rho=1)
    assert res.status in ("unknown", "found", "absent")
    if res.status == "found":
        a, b = res.pair
        assert a * a + b * b == p * q


def test_two_squares_absent_without_rho():
    """The mod-4 rule and trial division certify "absent" before any rho step."""
    p1 = next_prime_at_least(10**16, condition=lambda n: n % 4 == 1)
    p2 = next_prime_at_least(2 * 10**16, condition=lambda n: n % 4 == 3)
    p3 = next_prime_at_least(3 * 10**16, condition=lambda n: n % 4 == 3)
    # Odd part ≡ 3 (mod 4).
    assert (p1 * p2) % 4 == 3
    for s in (0, 3):
        assert two_squares(2**s * p1 * p2, budget_rho=0) == TwoSquares("absent")
    # Odd part ≡ 1 (mod 4), but 3 divides it to an odd power.
    n = 3 * 7 * p2 * p3
    assert n % 4 == 1
    assert two_squares(n, budget_rho=0) == TwoSquares("absent")
    # Without a small witness the budget still decides.
    assert two_squares(p2 * p3, budget_rho=0) == TwoSquares("unknown")


def reference_two_squares(n: int) -> TwoSquares:
    """Compose x + iy over sympy's factorization of n, one prime at a time in
    descending order: (1 + i) for 2, the canonical x² + y² = p for p ≡ 1
    (mod 4), and p^(e/2) for p ≡ 3 (mod 4)."""
    if n == 0:
        return TwoSquares("found", (0, 0))
    re, im = 1, 0
    for p, e in sorted(sympy.factorint(n).items(), reverse=True):
        if p % 4 == 3:
            if e % 2:
                return TwoSquares("absent")
            re, im = re * p ** (e // 2), im * p ** (e // 2)
            continue
        x, y = (1, 1) if p == 2 else two_squares_prime(p)
        for _ in range(e):
            re, im = re * x - im * y, re * y + im * x
    x, y = sorted((abs(re), abs(im)))
    return TwoSquares("found", (x, y))


def test_two_squares_matches_reference_composition():
    """Exact verdicts and pairs equal a composition over sympy.factorint: the
    same pair, not only a valid one, so words built from them stay fixed."""
    rng = random.Random(17)
    values = list(range(3000))
    values += [rng.randrange(2**60, 2**70) for _ in range(200)]
    values += [rng.randrange(2**30, 2**35) ** 2 + rng.randrange(2**30, 2**35) ** 2
               for _ in range(100)]
    for n in values:
        assert two_squares(n) == reference_two_squares(n), n


def test_prime_certified_once(monkeypatch):
    """A prime that a two-squares verdict certifies is tested once, not
    again before its descent."""
    p = next_prime_at_least(10**100, condition=lambda n: n % 4 == 1)
    p1 = next_prime_at_least(10**9, condition=lambda n: n % 4 == 1)
    p2 = next_prime_at_least(2 * 10**9, condition=lambda n: n % 4 == 1)
    calls = []
    monkeypatch.setattr(ntheory, "is_prime", lambda n, *a, **k: calls.append(n) or is_prime(n))
    res = two_squares(2**5 * p, mode="fast")
    assert res.status == "found" and calls == [p]
    calls.clear()
    res = two_squares(p1 * p2)
    assert res.status == "found" and sorted(calls) == [p1, p2, p1 * p2]


def test_descent_check_survives_optimization(monkeypatch):
    """A failed Cornacchia descent is a RuntimeError, not an assert that
    python -O strips: it is the only check on a prime passed in untested."""
    monkeypatch.setattr(ntheory, "sqrt_mod", lambda a, p: 1)  # not a root of -1
    with pytest.raises(RuntimeError):
        two_squares_prime(13)
    with pytest.raises(RuntimeError):
        two_squares(13)
    with pytest.raises(RuntimeError):
        two_squares(2 * 13, mode="fast")


def test_fast_admission_error_survives_optimization(monkeypatch):
    """Fast mode admits m by Baillie-PSW alone.  Should it admit a composite,
    the descent's ValueError turns into "unknown", and a "found" pair is
    still a true identity; exact mode, whose admission is 40 rounds
    stronger, keeps raising."""
    rounds = []
    monkeypatch.setattr(ntheory, "is_prime", lambda n, *a, **k: rounds.append(k) or True)
    composites = [21, 65, 561, 2**5 * 561]
    composites += [n for n in range(9, 3000, 4) if not sympy.isprime(n)]
    for n in composites:
        res = two_squares(n, mode="fast")
        assert res.status in ("unknown", "found"), n
        if res.status == "found":
            x, y = res.pair
            assert x * x + y * y == n, n
    assert rounds and all(k == {"rounds": 0} for k in rounds)
    # 10007 ≡ 10039 ≡ 3 (mod 4): no prime below the trial bound divides the
    # product, so exact mode's admission hands it to the descent.
    with pytest.raises(ValueError):
        two_squares(10007 * 10039)


def test_gauss_gcd():
    rng = random.Random(15)
    for _ in range(300):
        a = (rng.randrange(-500, 500), rng.randrange(-500, 500))
        b = (rng.randrange(-500, 500), rng.randrange(-500, 500))
        if a == (0, 0) and b == (0, 0):
            continue
        g = gauss_gcd(a, b)
        ng = g[0] * g[0] + g[1] * g[1]
        assert ng > 0
        # g divides both: (x + iy)/(u + iv) is a Gaussian integer iff the
        # norms divide the real and imaginary parts of x*conj(g).
        for z in (a, b):
            re = z[0] * g[0] + z[1] * g[1]
            im = z[1] * g[0] - z[0] * g[1]
            assert re % ng == 0 and im % ng == 0, (z, g)


def test_gauss_gcd_prime_detection():
    # gcd with a Gaussian prime is a unit exactly when the prime misses z.
    pi = (5, 2)  # norm 29
    z = (5 * 7 - 2 * 3, 5 * 3 + 7 * 2)  # pi * (7 + 3i)
    g = gauss_gcd(z, pi)
    assert g[0] * g[0] + g[1] * g[1] == 29
    g2 = gauss_gcd((7, 3), pi)
    assert g2[0] * g2[0] + g2[1] * g2[1] == 1
