"""Integral quaternions, LPS generator sets, and their PSL2(F_q) images.

For a prime p ≡ 1 (mod 4) the p+1 integral quaternions of norm p with odd
positive real part and even imaginary parts generate a free group (modulo
center); reducing mod q through a square root of -1 turns them into the
generators of the Lubotzky-Phillips-Sarnak graph X_{p,q}.  This module owns
that dictionary: quaternion arithmetic, the projective matrix image, and the
peeling algorithm that factors a norm-p^h quaternion back into a generator
word.

Reference: Lubotzky, Phillips, Sarnak, "Ramanujan graphs", Combinatorica 8
(1988); Davidoff, Sarnak, Valette, "Elementary Number Theory, Group Theory
and Ramanujan Graphs" (2003), ch. 2 and 4.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cache
from typing import Iterable, Optional, Sequence

from .errors import ParameterError
from .ntheory import is_prime, legendre, sqrt_mod

__all__ = [
    "Quat",
    "PslElement",
    "GeneratorSet",
    "GraphParams",
    "FactorizationError",
    "lps_generators",
    "quat_to_psl",
    "psl_to_quat_class",
    "factor_into_generators",
    "evaluate_word",
    "inverse_word",
    "free_reduce",
    "is_nonbacktracking",
]


class FactorizationError(ValueError):
    """A quaternion failed to peel into generators (not primitive, or no/ambiguous step)."""


class Quat:
    """Quaternion a + b*i + c*j + d*k with integer coordinates."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: int, b: int, c: int, d: int) -> None:
        self.a, self.b, self.c, self.d = a, b, c, d

    def __mul__(self, other: "Quat") -> "Quat":
        a1, b1, c1, d1 = self.a, self.b, self.c, self.d
        a2, b2, c2, d2 = other.a, other.b, other.c, other.d
        return Quat(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Quat)
            and (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def __repr__(self) -> str:
        return f"Quat({self.a}, {self.b}, {self.c}, {self.d})"

    def coords(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def conjugate(self) -> "Quat":
        return Quat(self.a, -self.b, -self.c, -self.d)

    def norm(self) -> int:
        return self.a * self.a + self.b * self.b + self.c * self.c + self.d * self.d

    def content(self) -> int:
        return math.gcd(math.gcd(abs(self.a), abs(self.b)), math.gcd(abs(self.c), abs(self.d)))

    def divexact(self, n: int) -> "Quat":
        a, ra = divmod(self.a, n)
        b, rb = divmod(self.b, n)
        c, rc = divmod(self.c, n)
        d, rd = divmod(self.d, n)
        if ra or rb or rc or rd:
            raise RuntimeError(f"{self!r} is not divisible by {n}")
        return Quat(a, b, c, d)

    def reduced(self, q: int) -> "Quat":
        return Quat(self.a % q, self.b % q, self.c % q, self.d % q)


class PslElement:
    """The projective class of an invertible 2x2 matrix over F_q.

    An element keeps the row-major representative it was built from, reduced
    mod q, and that representative's determinant, so a product `g @ h` costs
    eight multiplications for its entries and one for its determinant, which
    must be nonzero, with no modular inverse. `m` is the canonical
    representative, scaled so that its first nonzero entry is 1; it is
    computed on first read and cached. `==` tests the two representatives
    for proportionality by cross products, and `hash` and `repr` use `m`.
    """

    __slots__ = ("q", "_e", "_d", "_m")

    def __init__(self, q: int, m: Iterable[int]) -> None:
        self.q = q
        self._e = e = tuple(x % q for x in m)
        if len(e) != 4:
            raise ValueError("need exactly 4 matrix entries")
        self._d = (e[0] * e[3] - e[1] * e[2]) % q  # det of the representative
        self._m: Optional[tuple[int, ...]] = None

    @staticmethod
    def canonical(q: int, m: Iterable[int]) -> "PslElement":
        """The class of m mod q; ParameterError when m is singular mod q."""
        g = PslElement(q, m)
        if g._d == 0:
            raise ParameterError("matrix is singular mod q")
        return g

    @staticmethod
    def identity(q: int) -> "PslElement":
        return PslElement(q, (1, 0, 0, 1))

    @property
    def m(self) -> tuple[int, ...]:
        if self._m is None:
            inv = pow(next(x for x in self._e if x), -1, self.q)
            self._m = tuple(x * inv % self.q for x in self._e)
        return self._m

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PslElement):
            return NotImplemented
        x0, x1, x2, x3 = self._e
        y0, y1, y2, y3 = other._e
        q = self.q
        # Proportional: with i the first nonzero index of x, y[i] ≠ 0 and
        # x[i]·y ≡ y[i]·x, which puts y's first nonzero entry at i too.
        if x0:
            xi, yi = x0, y0
        elif x1:
            xi, yi = x1, y1
        elif x2:
            xi, yi = x2, y2
        else:
            xi, yi = x3, y3
        return (
            q == other.q
            and yi != 0
            and (xi * y0 - yi * x0) % q == 0
            and (xi * y1 - yi * x1) % q == 0
            and (xi * y2 - yi * x2) % q == 0
            and (xi * y3 - yi * x3) % q == 0
        )

    def __hash__(self) -> int:
        return hash((self.q, self.m))

    def __repr__(self) -> str:
        return f"PslElement(q={self.q!r}, m={self.m!r})"

    def in_psl(self) -> bool:
        """True when the class lies in PSL2: every representative's determinant
        has the same Legendre symbol, so the kept one decides."""
        return legendre(self._d, self.q) == 1

    def __matmul__(self, other: "PslElement") -> "PslElement":
        q = self.q
        if q != other.q:
            raise ValueError("mixed moduli")
        a, b, c, d = self._e
        e, f, g, h = other._e
        det = self._d * other._d % q  # det(gh) = det(g)·det(h)
        if det == 0:
            raise ParameterError("matrix is singular mod q")
        out = object.__new__(PslElement)
        out.q, out._d, out._m = q, det, None
        out._e = (
            (a * e + b * g) % q, (a * f + b * h) % q, (c * e + d * g) % q, (c * f + d * h) % q
        )
        return out


@dataclass(frozen=True)
class GeneratorSet:
    """The p+1 norm-p generators, lexicographically ordered.

    `conj` maps a generator index to the index of its conjugate (= inverse in
    the projective image); `names` holds the print names, with the classical
    Vx/Vy/Vz aliases at p = 5.
    """

    p: int
    quats: tuple[Quat, ...]
    conj: tuple[int, ...]
    names: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.quats)


def lps_generators(p: int) -> GeneratorSet:
    """Enumerate the generator quaternions for prime p ≡ 1 (mod 4)."""
    if not is_prime(p) or p % 4 != 1:
        raise ParameterError("p must be a prime ≡ 1 (mod 4)")
    quats: list[Quat] = []
    a = 1
    while a * a <= p:
        rem_a = p - a * a
        b0 = math.isqrt(rem_a)
        b0 -= b0 & 1
        for bb in range(-b0, b0 + 1, 2):
            rem_b = rem_a - bb * bb
            c0 = math.isqrt(rem_b)
            c0 -= c0 & 1
            for cc in range(-c0, c0 + 1, 2):
                rem_c = rem_b - cc * cc
                dd = math.isqrt(rem_c)
                if dd * dd == rem_c and dd % 2 == 0:
                    quats.append(Quat(a, bb, cc, dd))
                    if dd != 0:
                        quats.append(Quat(a, bb, cc, -dd))
        a += 2
    quats.sort(key=Quat.coords)
    if len(quats) != p + 1:
        raise AssertionError(f"expected {p + 1} generators, found {len(quats)}")
    index = {g.coords(): i for i, g in enumerate(quats)}
    conj = tuple(index[g.conjugate().coords()] for g in quats)
    # Name conjugate pairs by their lexicographically larger member.
    names = [""] * len(quats)
    pair_no = 0
    axis = {3: "Vx", 2: "Vy", 1: "Vz"}  # nonzero coordinate position at p = 5
    for i, g in enumerate(quats):
        if names[i]:
            continue
        j = conj[i]
        pos, neg = (i, j) if g.coords() > quats[j].coords() else (j, i)
        pair_no += 1
        if p == 5:
            nz = next(t for t in (1, 2, 3) if quats[pos].coords()[t])
            base = axis[nz]
        else:
            base = f"g{pair_no}"
        names[pos] = base
        names[neg] = base + "^{-1}"
    return GeneratorSet(p, tuple(quats), conj, tuple(names))


def quat_to_psl(alpha: Quat, q: int, sqrt_m1: int) -> PslElement:
    """Projective image of a quaternion: [[x0+i*x1, x2+i*x3], [-x2+i*x3, x0-i*x1]] mod q."""
    i = sqrt_m1
    x0, x1, x2, x3 = (x % q for x in alpha.coords())
    return PslElement.canonical(
        q,
        (
            x0 + i * x1,
            x2 + i * x3,
            -x2 + i * x3,
            x0 - i * x1,
        ),
    )


def psl_to_quat_class(g: PslElement, sqrt_m1: int) -> tuple[int, int, int, int]:
    """Inverse of quat_to_psl on classes: residues (A, B, C, D) mod q, up to scalars."""
    q = g.q
    a, b, c, d = g.m
    inv2 = pow(2, -1, q)
    inv_i = q - sqrt_m1  # (sqrt_m1)^-1 = -sqrt_m1
    A = (a + d) * inv2 % q
    B = (a - d) * inv2 * inv_i % q
    C = (b - c) * inv2 % q
    D = (b + c) * inv2 * inv_i % q
    return (A, B, C, D)


class GraphParams:
    """Validated parameters of X_{p,q} plus the derived arithmetic data.

    Requires distinct primes p, q ≡ 1 (mod 4) with p a quadratic residue mod q
    (the non-bipartite case where the generators land in PSL2(F_q)).
    """

    def __init__(self, p: int, q: int) -> None:
        if not (is_prime(p) and p % 4 == 1):
            raise ParameterError(f"p = {p} must be a prime ≡ 1 (mod 4)")
        if not (is_prime(q) and q % 4 == 1):
            raise ParameterError(f"q = {q} must be a prime ≡ 1 (mod 4)")
        if p == q:
            raise ParameterError("p and q must be distinct")
        if legendre(p % q, q) != 1:
            raise ParameterError(
                f"p = {p} must be a quadratic residue mod q = {q}; "
                "otherwise the generators fall outside PSL2(F_q)"
            )
        self.p = p
        self.q = q
        self.sqrt_m1 = sqrt_mod(q - 1, q)
        self.sqrt_p = sqrt_mod(p % q, q)
        self.gens = lps_generators(p)
        self.gen_images = tuple(quat_to_psl(g, q, self.sqrt_m1) for g in self.gens.quats)
        if len(set(self.gen_images)) != len(self.gen_images):
            raise ParameterError("generator images collide mod q; parameters degenerate")

    def __repr__(self) -> str:
        return f"GraphParams(p={self.p}, q={self.q})"

    @property
    def vertex_count(self) -> int:
        return self.q * (self.q * self.q - 1) // 2


def _column_line(a: int, b: int, c: int, d: int, p: int, pk: int, iota: int) -> int:
    """The column line of the image of a + bi + cj + dk mod p^k, or -1.

    The image is [[a+ιb, c+ιd], [−c+ιd, a−ιb]] (`quat_to_psl` with ι² ≡ −1
    mod p^k). When its column space mod p^k is a line, that line is spanned
    by the first column not ≡ 0 (mod p), (x : y), and it is numbered y/x when
    p ∤ x and p^k + (x/y)/p otherwise: (p + 1)·p^(k−1) points, which are
    y/x and p at k = 1. Returns -1 when the image is ≡ 0 (mod p).
    """
    x, y = (a + iota * b) % pk, (iota * d - c) % pk
    if not (x % p or y % p):
        x, y = (c + iota * d) % pk, (a - iota * b) % pk
    if x % p:
        return y * pow(x, -1, pk) % pk
    if y % p:
        return pk + x * pow(y, -1, pk) % pk // p
    return -1


def _block_len(p: int) -> int:
    """Letters per peel or evaluate step: the largest k whose tables of
    (p + 1)·p^(k−1) reduced words hold at most 1000 entries (at least 1)."""
    k = 1
    while (p + 1) * p**k <= 1000:
        k += 1
    return k


def _product(word: Sequence[int], gens: GeneratorSet) -> Quat:
    acc = Quat(1, 0, 0, 0)
    for i in word:
        acc = acc * gens.quats[i]
    return acc


@cache
def _block_products(gens: GeneratorSet, k: int) -> dict[tuple[int, ...], Quat]:
    """The product of each reduced k-letter word, multiplied from `gens.quats`."""
    words = itertools.product(range(len(gens)), repeat=k)
    return {w: _product(w, gens) for w in words if is_nonbacktracking(w, gens)}


@cache
def _peel_table(gens: GeneratorSet, k: int = 1) -> tuple[int, int, tuple]:
    """(p^k, ι mod p^k, the reduced k-letter word and the conjugate of its
    product by column line of P¹(Z/p^k)).

    A reduced word w of k letters divides a primitive quaternion α of norm
    divisible by p^k on the left iff the images of α and of w's product mod
    p^k have the same column line, so a generator set whose p + 1 lines mod
    p are distinct finds k letters by one lookup.
    """
    p = gens.p
    if len(gens) != p + 1:
        raise ParameterError(f"expected {p + 1} generators, got {len(gens)}")
    if k > 1:
        _peel_table(gens, 1)  # refuses a set that is not a bijection mod p
    pk = p**k
    iota = sqrt_mod(p - 1, p)
    while (iota * iota + 1) % pk:  # Newton's lift of ι to a root mod p^k
        iota = (iota - (iota * iota + 1) * pow(2 * iota, -1, pk)) % pk
    table: list = [None] * (pk + pk // p)
    for w, prod in _block_products(gens, k).items():
        line = _column_line(prod.a, prod.b, prod.c, prod.d, p, pk, iota)
        if line < 0:
            raise ParameterError(f"the product of generators {w} is ≡ 0 mod {p}")
        if table[line] is not None:
            u, v = (" ".join(map(str, x)) for x in (table[line][0], w))
            raise ParameterError(f"generators {u} and {v} share a line mod {pk}")
        table[line] = (w, prod.conjugate())
    return pk, iota, tuple(table)


def factor_into_generators(alpha: Quat, gens: GeneratorSet) -> list[int]:
    """Peel a primitive quaternion of norm p^h into its unique generator word.

    Returns indices [s_h, ..., s_1] whose quaternion product equals alpha up
    to sign.  Each step peels a block of k letters (`_block_len`): the
    residues mod p^k name the block's column line, one lookup gives the
    block, and one product and one exact division by p^k strip it.  The last
    h mod k letters go one at a time.  Raises FactorizationError when alpha
    is not primitive, when no generator divides at some step, or when the
    division is ambiguous.
    """
    p = gens.p
    n = alpha.norm()
    h = 0
    while n and n % p == 0:
        n //= p
        h += 1
    if n != 1:
        raise FactorizationError("norm is not a power of p")
    if alpha.content() % p == 0:
        raise FactorizationError("not primitive: every coordinate divisible by p")
    k = _block_len(p)
    word: list[int] = []
    cur = alpha
    for size, steps in ((k, h // k), (1, h % k)):
        pk, iota, table = _peel_table(gens, size)
        for _ in range(steps):
            # Every block divides a residue ≡ 0 (mod p), none one of norm
            # ≢ 0 (mod p^k); otherwise the column line names the one that does.
            a, b, c, d = cur.a % pk, cur.b % pk, cur.c % pk, cur.d % pk
            line = _column_line(a, b, c, d, p, pk, iota)
            if line < 0:
                raise FactorizationError("ambiguous peeling step")
            if (a * a + b * b + c * c + d * d) % pk:
                raise FactorizationError("no generator divides at this step")
            block, conjugate = table[line]
            word += block
            cur = (conjugate * cur).divexact(pk)
    if cur.coords() not in ((1, 0, 0, 0), (-1, 0, 0, 0)):
        raise FactorizationError("residual unit is not ±1")
    return word


def evaluate_word(
    word: Sequence[int], gens: GeneratorSet, q: int, sqrt_m1: int
) -> PslElement:
    """Projective image of the word product (letters multiplied left to right).

    The word is multiplied k letters at a time (`_block_len`), by the
    product of each reduced block (`_block_products`, which never reads the
    peel table); a block that backtracks, and the last h mod k letters, are
    multiplied letter by letter.
    """
    k = _block_len(gens.p)
    blocks = _block_products(gens, k)
    acc = Quat(1, 0, 0, 0)
    for t in range(0, len(word), k):
        block = tuple(word[t : t + k])
        acc = (acc * (blocks.get(block) or _product(block, gens))).reduced(q)
    return quat_to_psl(acc, q, sqrt_m1)


def inverse_word(word: Sequence[int], gens: GeneratorSet) -> list[int]:
    return [gens.conj[i] for i in reversed(word)]


def free_reduce(word: Sequence[int], gens: GeneratorSet) -> list[int]:
    """Cancel adjacent inverse pairs until the word is non-backtracking."""
    out: list[int] = []
    for i in word:
        if out and out[-1] == gens.conj[i]:
            out.pop()
        else:
            out.append(i)
    return out


def is_nonbacktracking(word: Sequence[int], gens: GeneratorSet) -> bool:
    return all(word[t + 1] != gens.conj[word[t]] for t in range(len(word) - 1))
