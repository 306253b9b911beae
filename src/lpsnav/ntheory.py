"""Elementary and algorithmic number theory used across the package.

Primality testing follows the usual two-tier scheme: deterministic
Miller-Rabin witness sets below the verified bound, Baillie-PSW plus random
Miller-Rabin rounds above it, after one gcd with the product of the small
primes has rejected most composites.  Factoring is trial division plus Brent's
cycle-finding variant of Pollard rho under an explicit iteration budget;
callers must be prepared for an incomplete factorization (`cofactor > 1`).

References:
    - Baillie, Wagstaff, "Lucas pseudoprimes", Math. Comp. 35 (1980).
    - Brent, "An improved Monte Carlo factorization algorithm", BIT 20 (1980).
    - Sorenson, Webster, "Strong pseudoprimes to twelve prime bases" (2015)
      for the deterministic witness bound.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

__all__ = [
    "Factorization",
    "TwoSquares",
    "xgcd",
    "jacobi",
    "legendre",
    "is_prime",
    "next_prime_at_least",
    "factor",
    "sqrt_mod",
    "two_squares_prime",
    "two_squares",
    "gauss_mul",
    "gauss_gcd",
]

# Deterministic below this bound with the 13 smallest prime bases.
_MR_DETERMINISTIC_BOUND = 3_317_044_064_679_887_385_961_981
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

_TRIAL_BOUND = 10_000
DEFAULT_RHO_BUDGET = 2_000_000


def _sieve(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = bytearray(len(flags[i * i :: i]))
    return [i for i in range(limit + 1) if flags[i]]


_SMALL_PRIMES = _sieve(_TRIAL_BOUND)
# The trial primes past the 13 bases, multiplied together for one gcd.
_SMALL_PRIME_PRODUCT = math.prod(_SMALL_PRIMES[len(_MR_BASES) :])


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Extended gcd: returns (g, u, v) with u*a + v*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_u, u = 1, 0
    old_v, v = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_u, u = u, old_u - q * u
        old_v, v = v, old_v - q * v
    if old_r < 0:
        old_r, old_u, old_v = -old_r, -old_u, -old_v
    return old_r, old_u, old_v


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("jacobi symbol needs odd n > 0")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) for odd prime p; 0 when p | a."""
    return jacobi(a, p)


def _mr_witness(n: int, a: int, d: int, s: int) -> bool:
    """True if a witnesses compositeness of n (n - 1 = d * 2**s, d odd)."""
    a %= n
    if a == 0:
        return False
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return False
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return False
    return True


def _lucas_strong_prp(n: int) -> bool:
    """Strong Lucas probable-prime test with Selfridge's parameters."""
    # Method A: first D in 5, -7, 9, -11, ... with (D|n) = -1.
    d = 5
    while True:
        j = jacobi(d, n)
        if j == -1:
            break
        if j == 0 and abs(d) != n:
            return False
        if d > 0:
            d = -(d + 2)
        else:
            d = -(d - 2)
        if abs(d) > 1000 and math.isqrt(n) ** 2 == n:
            return False  # perfect squares never yield (D|n) = -1
    q = (1 - d) // 4

    def half(x: int) -> int:
        return x // 2 if x % 2 == 0 else (x + n) // 2

    # n + 1 = m * 2**s with m odd
    m = n + 1
    s = (m & -m).bit_length() - 1
    m >>= s

    # Compute U_m, V_m, Q^m by binary ladder (P = 1).
    u, v, qk = 1, 1, q % n
    for bit in bin(m)[3:]:
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if bit == "1":
            u, v = half(u + v) % n, half(d * u + v) % n
            qk = qk * q % n
    if u == 0 or v == 0:
        return True
    for _ in range(s - 1):
        u = u * v % n
        v = (v * v - 2 * qk) % n
        qk = qk * qk % n
        if v == 0:
            return True
    return False


def is_prime(n: int, rng: Optional[random.Random] = None, rounds: int = 40) -> bool:
    """Primality test.

    Deterministic Miller-Rabin below the 13-base verified bound; above it,
    one gcd with the product of the other trial primes (43 ... 9973), then
    Baillie-PSW (base-2 Miller-Rabin + strong Lucas) plus `rounds` rounds of
    random-base Miller-Rabin.  Such an n exceeds every trial prime, so a
    shared factor proves it composite before any modular power is taken.
    `rng` seeds the extra rounds; a fixed default keeps results reproducible.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    if n < _MR_DETERMINISTIC_BOUND:
        return not any(_mr_witness(n, a, d, s) for a in _MR_BASES)
    if math.gcd(n, _SMALL_PRIME_PRODUCT) != 1:
        return False
    if _mr_witness(n, 2, d, s):
        return False
    if not _lucas_strong_prp(n):
        return False
    if rng is None:
        rng = random.Random(0x5EED)
    for _ in range(rounds):
        a = rng.randrange(3, n - 1)
        if _mr_witness(n, a, d, s):
            return False
    return True


def next_prime_at_least(
    x: int,
    mode: str = "sequential",
    rng: Optional[random.Random] = None,
    condition: Optional[Callable[[int], bool]] = None,
) -> int:
    """Smallest (or a random) prime p >= x, optionally with p satisfying `condition`.

    mode="sequential" scans upward from x; mode="randomized" draws uniformly
    from [x, 2x] until a prime passes, which needs `rng`.
    """
    if x < 0:
        raise ValueError("x must be nonnegative")
    ok = condition or (lambda _p: True)
    if mode == "sequential":
        if x <= 2:
            if ok(2):
                return 2
            x = 3
        n = x if x % 2 == 1 else x + 1
        while True:
            if is_prime(n) and ok(n):
                return n
            n += 2
    if mode == "randomized":
        if rng is None:
            raise ValueError("randomized mode needs an rng")
        lo = max(x, 2)
        for _ in range(200 * max(10, lo.bit_length()) ** 2):
            n = rng.randrange(lo, 2 * lo + 1)
            if is_prime(n) and ok(n):
                return n
        raise RuntimeError("randomized prime search exhausted its draw budget")
    raise ValueError(f"unknown mode {mode!r}")


@dataclass(frozen=True)
class Factorization:
    """Possibly-partial factorization n = cofactor * prod(p**e).

    `factors` is sorted by prime; `cofactor` is 1 when the factorization is
    complete, otherwise a composite whose factorization exceeded the budget.
    """

    factors: tuple[tuple[int, int], ...]
    cofactor: int

    @property
    def complete(self) -> bool:
        return self.cofactor == 1

    def value(self) -> int:
        out = self.cofactor
        for p, e in self.factors:
            out *= p**e
        return out


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n: int) -> None:
        self.left = n


def _brent_rho(n: int, budget: _Budget, rng: random.Random) -> Optional[int]:
    """One Brent-rho attempt; returns a nontrivial factor of composite odd n, or None."""
    if n % 2 == 0:
        return 2
    while budget.left > 0:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1 and budget.left > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1 and budget.left > 0:
                ys = y
                steps = min(m, r - k, budget.left)
                for _ in range(steps):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                budget.left -= steps
                g = math.gcd(q, n)
                k += steps
            r *= 2
        if g == n:
            # Backtrack to recover the factor the batched gcd skipped past.
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        # g == n with a degenerate cycle: retry with new parameters.
    return None


def _trial_division(n: int) -> Iterator[tuple[int, int, int]]:
    """Divide the primes below the trial bound out of n >= 1, smallest first.

    Yields (p, e, rest) for each such p with p^e exactly dividing n, where
    rest is n with every prime up to p divided out.  Stops once p² exceeds
    what is left, so the last rest (n itself when nothing is yielded) is 1, a
    prime, or has no prime factor below the bound.
    """
    for p in _SMALL_PRIMES:
        if p * p > n:
            return
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            yield p, e, n


def _rho_split(n: int, budget_rho: int, found: dict[int, int]) -> int:
    """Split n >= 1 into primes by Brent rho, counting each prime into `found`.

    The budget caps total rho iterations across the call.  Returns the
    product of the pieces left unsplit when it runs out (1 when complete).
    """
    budget = _Budget(budget_rho)
    rng = random.Random(0xB4E57)  # fixed seed: reproducible rho attempts
    cofactor = 1
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend((root, root))
            continue
        d = _brent_rho(m, budget, rng)
        if d is None:
            cofactor *= m
            continue
        stack.extend((d, m // d))
    return cofactor


def factor(n: int, budget_rho: int = DEFAULT_RHO_BUDGET) -> Factorization:
    """Factor n >= 1 by trial division then budgeted Brent rho.

    The budget caps total rho iterations across the whole call.  Pieces left
    unfactored when it runs out are multiplied into `cofactor`.
    """
    if n < 1:
        raise ValueError("factor() needs n >= 1")
    found: dict[int, int] = {}
    rest = n
    for p, e, rest in _trial_division(n):
        found[p] = e
    cofactor = _rho_split(rest, budget_rho, found)
    return Factorization(tuple(sorted(found.items())), cofactor)


def sqrt_mod(a: int, p: int) -> int:
    """Square root of a mod odd prime p.

    Returns the canonical root in [0, (p-1)//2]; raises ValueError when a is
    a non-residue.  One modular power finds it for p ≡ 3 (mod 4), and for
    p ≡ 5 (mod 8) by Atkin's method (Cohen, *A Course in Computational
    Algebraic Number Theory*, §1.5): b = (2a)^((p−5)/8), i = 2ab² is a root
    of −1, and r = ab(i − 1).  For p ≡ 1 (mod 8) Tonelli-Shanks finds its
    auxiliary non-residue by scanning 2, 3, 4, ... which keeps the whole
    routine deterministic.  A composite p ends in ValueError too, within a
    bounded number of steps, never in a wrong root: every root is checked.
    """
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if legendre(a, p) != 1:
        raise ValueError("a is not a quadratic residue mod p")
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
    elif p % 8 == 5:
        b = pow(2 * a, (p - 5) // 8, p)
        i = 2 * a * b * b % p
        r = a * b * (i - 1) % p
    else:
        r = _tonelli_shanks(a, p)
    if r * r % p != a:
        raise ValueError(f"{r}² is not {a} mod {p}: {p} is not prime")
    return min(r, p - r)


def _tonelli_shanks(a: int, p: int) -> int:
    """Some r with r² ≡ a (mod p), for a residue a and a prime p ≡ 1 (mod 4)."""
    # write p - 1 = q * 2^s
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    # (·|p) takes the value -1 below p unless p is a square, so the scan
    # for z ends below p.
    if math.isqrt(p) ** 2 == p:
        raise ValueError(f"{p} is a square, not a prime")
    z = 2
    while legendre(z, p) != -1:
        z += 1
    c = pow(z, q, p)
    r = pow(a, (q + 1) // 2, p)
    t = pow(a, q, p)
    m = s
    while t != 1:
        # Least i < m with t^(2^i) ≡ 1; for a prime p it exists.
        t2 = t
        for i in range(1, m):
            t2 = t2 * t2 % p
            if t2 == 1:
                break
        else:
            raise ValueError(f"Tonelli-Shanks did not converge: {p} is not prime")
        b = pow(c, 1 << (m - i - 1), p)
        r = r * b % p
        c = b * b % p
        t = t * c % p
        m = i
    return r


def two_squares_prime(p: int) -> tuple[int, int]:
    """Write a prime p = 2 or p ≡ 1 (mod 4) as x² + y² with 0 < x <= y."""
    if p == 2:
        return (1, 1)
    if p % 4 != 1 or not is_prime(p):
        raise ValueError("p must be 2 or a prime ≡ 1 (mod 4)")
    return _cornacchia(p)


def _cornacchia(p: int) -> tuple[int, int]:
    """(x, y) with x² + y² = p and 0 < x <= y, for p a certified prime ≡ 1 (mod 4).

    Cornacchia/Hermite-Serret descent from a square root of -1 mod p.  The
    caller vouches for primality; a p that is not such a prime leaves a
    non-square remainder, which raises RuntimeError.
    """
    r = sqrt_mod(p - 1, p)
    a, b = p, r
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    x = b
    y2 = p - x * x
    y = math.isqrt(y2)
    if y * y != y2:
        raise RuntimeError(f"Cornacchia descent failed: {p} is not a prime ≡ 1 (mod 4)")
    return (min(x, y), max(x, y))


@dataclass(frozen=True)
class TwoSquares:
    """Tri-state answer to 'is n a sum of two squares, and how'."""

    status: str  # "found" | "absent" | "unknown"
    pair: Optional[tuple[int, int]] = None


def gauss_mul(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """Product of two Gaussian integers given as (re, im)."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def two_squares(
    n: int, budget_rho: int = DEFAULT_RHO_BUDGET, mode: str = "exact"
) -> TwoSquares:
    """Decide n = x² + y² and construct a representation.

    Returns status "found" with 0 <= x <= y, "absent" when the classical
    criterion certifies no representation (some prime ≡ 3 mod 4 divides n to
    an odd power), or "unknown" when the criterion was not decided.

    Each verdict comes from the cheapest test that proves it.  Both admission
    policies write n = 2^s * m and answer "absent" at once when m ≡ 3 (mod 4),
    since then some prime ≡ 3 (mod 4) divides m to an odd power.  "exact"
    then trial-divides m, stops with "absent" at the first small prime ≡ 3
    (mod 4) that divides it to an odd power, and hands what is left to Brent
    rho, so "unknown" means only that the rho budget ran out.  "fast" factors
    nothing: it admits m = 1 and each m ≡ 1 (mod 4) that passes Baillie-PSW
    alone, and answers "unknown" for an m that fails it, which it declines to
    factor, and for an admitted m whose descent proves it composite.  Primes
    certified on the way go straight to the Cornacchia descent, which checks
    x² + y² = m, so a "found" pair is right whatever m fast mode admits.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        return TwoSquares("found", (0, 0))
    if mode not in ("exact", "fast"):
        raise ValueError(f"unknown mode {mode!r}")
    s = (n & -n).bit_length() - 1
    m = n >> s
    if m % 4 == 3:
        return TwoSquares("absent")
    primes: dict[int, int] = {}
    if mode == "exact":
        rest = m
        for p, e, rest in _trial_division(m):
            if p % 4 == 3 and e % 2 == 1:
                return TwoSquares("absent")
            primes[p] = e
        if _rho_split(rest, budget_rho, primes) != 1:
            return TwoSquares("unknown")
    elif m > 1:
        # No composite is known to pass Baillie-PSW; the descent and the
        # callers' checks on the pair stand in for the extra random rounds.
        if not is_prime(m, rounds=0):
            return TwoSquares("unknown")
        primes[m] = 1
    scale = 1
    z = (1, 0)
    for _ in range(s):
        z = gauss_mul(z, (1, 1))
    for p, e in primes.items():
        if p % 4 == 1:
            try:
                rep = _cornacchia(p)
            except ValueError:
                # Only sqrt_mod raises ValueError, and only for a composite p.
                if mode == "exact":
                    raise
                return TwoSquares("unknown")
            for _ in range(e):
                z = gauss_mul(z, rep)
        elif e % 2 == 1:
            return TwoSquares("absent")
        else:
            scale *= p ** (e // 2)
    x, y = abs(z[0]) * scale, abs(z[1]) * scale
    x, y = min(x, y), max(x, y)
    return TwoSquares("found", (x, y))


def _gauss_canonical(z: tuple[int, int]) -> tuple[int, int]:
    """Unique associate with re > 0 and -re < im <= re (identity for 0)."""
    re, im = z
    if re == 0 and im == 0:
        return z
    for _ in range(4):
        if re > 0 and -re < im <= re:
            return (re, im)
        re, im = -im, re
    raise AssertionError("unreachable: some rotation is canonical")


def gauss_gcd(z1: tuple[int, int], z2: tuple[int, int]) -> tuple[int, int]:
    """Gcd in Z[i] by Euclidean descent, canonicalized (re > 0, -re < im <= re)."""
    if z1 == (0, 0) and z2 == (0, 0):
        raise ValueError("gauss_gcd(0, 0) is undefined")
    a, b = z1, z2
    while b != (0, 0):
        nb = b[0] * b[0] + b[1] * b[1]
        # Nearest Gaussian integer to a/b.
        tr = a[0] * b[0] + a[1] * b[1]
        ti = a[1] * b[0] - a[0] * b[1]
        qr = (2 * tr + nb) // (2 * nb)
        qi = (2 * ti + nb) // (2 * nb)
        r = (a[0] - (qr * b[0] - qi * b[1]), a[1] - (qr * b[1] + qi * b[0]))
        a, b = b, r
    return _gauss_canonical(a)
