"""Subset-sum embedded in congruence-constrained sum-of-two-squares instances.

Given positive targets t_1..t_k and a goal t, pick an inert prime q (q ≡ 3
mod 4, q > 4k·max value), a generator g of F_{q²}* = (Z[i]/q)*, and lift each
g^{t_j} to a Gaussian prime π_j ≡ g^{t_j} (mod q).  With N = Π norm(π_j) and
s = (q-1)t + Σ t_j, solutions X + iY of X² + Y² = N with X + iY ≡ λ·g^s
(mod q), λ scalar, correspond exactly to subsets of the t_j summing to t: the
choice between π_j and its conjugate in the factorization of X + iY encodes
membership.  Decoding reads that choice back off with Gaussian gcds and
verifies the subset over the integers.

The q > 4k·max bound is what makes the correspondence two-way at this scale:
it leaves no room for exponent collisions modulo q² - 1 besides the intended
one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from random import Random
from typing import Optional

from .errors import BudgetExhausted, ParameterError
from .ntheory import factor, gauss_gcd, gauss_mul, is_prime, next_prime_at_least

__all__ = ["NpInstance", "DecodeResult", "reduce_subset_sum", "decode", "lift_dimension"]

GPair = tuple[int, int]  # u + i*v as (u, v)


def _gmul(x: GPair, y: GPair, q: int) -> GPair:
    """Multiplication in F_q[i] (i² = -1; a field exactly when q ≡ 3 mod 4)."""
    re, im = gauss_mul(x, y)
    return (re % q, im % q)


def _gpow(x: GPair, e: int, q: int) -> GPair:
    r: GPair = (1, 0)
    while e:
        if e & 1:
            r = _gmul(r, x, q)
        x = _gmul(x, x, q)
        e >>= 1
    return r


def _is_field_generator(g: GPair, q: int, prime_divisors: list[int]) -> bool:
    if g == (0, 0):
        return False
    n2 = q * q - 1
    return all(_gpow(g, n2 // ell, q) != (1, 0) for ell in prime_divisors)


@dataclass(frozen=True)
class NpInstance:
    """One reduced instance: the subset-sum data plus its Gaussian encoding."""

    targets: tuple[int, ...]
    target: int
    q: int
    s: int
    g: GPair
    residue: GPair  # g^s, the required (a, b) direction mod q
    pi: tuple[GPair, ...]  # Gaussian primes, π_j ≡ g^{t_j} (mod q)
    primes: tuple[int, ...]  # their norms
    n: int  # product of the norms

    def to_json_dict(self) -> dict:
        return {
            "targets": list(self.targets),
            "target": self.target,
            "q": str(self.q),
            "s": str(self.s),
            "g": [str(self.g[0]), str(self.g[1])],
            "residue": [str(self.residue[0]), str(self.residue[1])],
            "pi": [[str(a), str(b)] for a, b in self.pi],
            "primes": [str(p) for p in self.primes],
            "n": str(self.n),
        }

    @staticmethod
    def from_json_dict(d: dict) -> "NpInstance":
        """Parse `to_json_dict` output; ParameterError unless each target has
        one π_j of norm primes[j] > 1 (what `decode` reads ε_j off)."""
        inst = NpInstance(
            targets=tuple(int(x) for x in d["targets"]),
            target=int(d["target"]),
            q=int(d["q"]),
            s=int(d["s"]),
            g=(int(d["g"][0]), int(d["g"][1])),
            residue=(int(d["residue"][0]), int(d["residue"][1])),
            pi=tuple((int(a), int(b)) for a, b in d["pi"]),
            primes=tuple(int(p) for p in d["primes"]),
            n=int(d["n"]),
        )
        if not len(inst.targets) == len(inst.pi) == len(inst.primes):
            raise ParameterError("targets, pi and primes must have equal lengths")
        for (a, b), p in zip(inst.pi, inst.primes):
            if a * a + b * b != p or p <= 1:
                raise ParameterError(f"pi ({a}, {b}) must have norm {p}, a prime > 1")
        return inst


def reduce_subset_sum(
    targets: list[int] | tuple[int, ...],
    target: int,
    rng: Optional[Random] = None,
    q_mode: str = "sequential",
) -> NpInstance:
    """Encode the subset-sum instance (targets, target) as Gaussian-prime data.

    Randomness (generator choice, prime lifts) comes from `rng`; q itself is
    the least admissible prime by default ("sequential") or a random one of
    comparable size ("randomized").
    """
    targets = tuple(int(x) for x in targets)
    if not targets or any(x < 1 for x in targets):
        raise ParameterError("targets must be positive integers")
    if target < 1:
        raise ParameterError("target must be a positive integer")
    rng = rng or Random(0)
    k = len(targets)
    maxval = max(max(targets), target)
    q = next_prime_at_least(
        4 * k * maxval + 1,
        mode=q_mode,
        rng=rng,
        condition=lambda n: n % 4 == 3,
    )

    n2 = q * q - 1
    fac = factor(n2)
    if not fac.complete:
        raise BudgetExhausted(f"q² - 1 = {n2} did not factor within the rho budget")
    divisors = [p for p, _ in fac.factors]
    g: Optional[GPair] = None
    for _ in range(64 * max(4, math.ceil(math.log(q)))):
        cand = (rng.randrange(q), rng.randrange(q))
        if _is_field_generator(cand, q, divisors):
            g = cand
            break
    if g is None:  # pragma: no cover - generators have density >> 1/64ln(q)
        raise RuntimeError("could not find a generator of F_{q²}*")

    s = (q - 1) * target + sum(targets)
    pi: list[GPair] = []
    norms: list[int] = []
    for tj in targets:
        aj, bj = _gpow(g, tj, q)
        for _ in range(20000):
            re = rng.randint(1, 8 * q) * q + aj
            im = rng.randint(1, 8 * q) * q + bj
            norm = re * re + im * im
            if norm not in norms and is_prime(norm, rng=rng):
                pi.append((re, im))
                norms.append(norm)
                break
        else:  # pragma: no cover - prime density makes exhaustion implausible
            raise RuntimeError("could not lift a residue to a Gaussian prime")

    n = 1
    for p in norms:
        n *= p
    return NpInstance(
        targets=targets,
        target=target,
        q=q,
        s=s,
        g=g,
        residue=_gpow(g, s, q),
        pi=tuple(pi),
        primes=tuple(norms),
        n=n,
    )


@dataclass(frozen=True)
class DecodeResult:
    epsilon: tuple[int, ...]  # 1 = conjugate chosen = member of the subset
    xi: tuple[int, ...]  # q^epsilon_j
    subset_sum: int  # sum of targets with epsilon_j = 1
    valid: bool  # the exponent identity holds over the integers


def decode(inst: NpInstance, x: int, y: int) -> DecodeResult:
    """Read the subset off a solution X + iY of X² + Y² = N.

    Each π_j or its conjugate divides X + iY (exactly one, since the norms are
    distinct primes); the conjugate side marks membership.  The decode is
    accepted only if Σ q^{ε_j} t_j equals s as integers — the condition that
    makes (X, Y) an actual solution of the congruence instance rather than a
    stray representation of N.
    """
    if x * x + y * y != inst.n:
        raise ParameterError("x² + y² must equal the instance product N")
    eps = []
    for pj in inst.pi:
        d = gauss_gcd((x, y), pj)
        dividing = d[0] * d[0] + d[1] * d[1] > 1
        eps.append(0 if dividing else 1)
    xi = tuple(inst.q if e == 1 else 1 for e in eps)
    total = sum(f * t for f, t in zip(xi, inst.targets))
    chosen = sum(t for e, t in zip(eps, inst.targets) if e == 1)
    return DecodeResult(
        epsilon=tuple(eps), xi=xi, subset_sum=chosen, valid=total == inst.s
    )


def lift_dimension(
    n: int, q: int, t: int, residues: tuple[int, ...] | list[int], m: int
) -> tuple[int, int, tuple[int, ...]]:
    """Append one coordinate with prescribed value m to a congruence instance.

    Sends (N, q^t-level residues a_1..a_d, new-coordinate value m) to the
    instance N' = m² + q^{2t} N at modulus q^{t+1} with residues
    (q^t a_1, ..., q^t a_d, m): solutions of the new instance are exactly
    q^t-scalings of old solutions with the last coordinate forced to ±m.
    Preconditions: N < q^{2t}, m ≤ q^{2t+1}/3, gcd(m, q) = 1.
    """
    if n < 1 or t < 1 or q < 2:
        raise ParameterError("need n >= 1, t >= 1, q >= 2")
    if n >= q ** (2 * t):
        raise ParameterError("need n < q^(2t)")
    if 3 * m > q ** (2 * t + 1):
        raise ParameterError("need m <= q^(2t+1)/3")
    if math.gcd(m, q) != 1:
        raise ParameterError("need gcd(m, q) = 1")
    shift = q**t
    new_n = m * m + shift * shift * n
    new_modulus = q ** (t + 1)
    new_residues = tuple(shift * a % new_modulus for a in residues) + (
        m % new_modulus,
    )
    return new_n, new_modulus, new_residues
