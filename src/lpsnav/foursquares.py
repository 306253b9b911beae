"""Sum-of-four-squares solver under linear congruence constraints.

Solves x² + y² + z² + w² = N with x ≡ r1, y ≡ r2, z ≡ w ≡ 0 (mod M).
Writing x = M*t1 + r1, y = M*t2 + r2 reduces the problem to making
F(t1, t2) = (N - x² - y²) / M² a sum of two squares, where (t1, t2) ranges
over the affine lattice of solutions of 2*r1*t1 + 2*r2*t2 ≡ k (mod M),
k = (N - r1² - r2²)/M.  Parametrizing that lattice by a Gauss-reduced basis
turns F into an integer quadratic that is nonnegative exactly on an ellipse;
candidates are enumerated in order of increasing parameter norm and each
F-value is certified (or rejected) as a sum of two squares by
`ntheory.two_squares` under the instance's admission policy (`solve_mode`).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import InfeasibleCongruence, ParameterError
from .lattice2 import (
    Vec2,
    dot,
    norm_sq,
    shortest_coset_vector,
    solution_lattice,
)
from .ntheory import DEFAULT_RHO_BUDGET, two_squares

__all__ = [
    "FourSquaresInstance",
    "CandidateForm",
    "SolveResult",
    "FAST_MODE_THRESHOLD",
    "solve_mode",
    "coset_form",
    "build_form",
    "enumerate_candidates",
    "solve_form",
    "solve",
]

FAST_MODE_THRESHOLD = 10**18


def solve_mode(mode: str, n: int) -> str:
    """The certification mode `solve` applies to an instance of size n.

    "auto" is "exact" up to 10^18 and "fast" above; "exact" and "fast" stand.
    """
    if mode == "auto":
        return "exact" if n <= FAST_MODE_THRESHOLD else "fast"
    if mode not in ("exact", "fast"):
        raise ParameterError(f"unknown mode {mode!r}")
    return mode


@dataclass(frozen=True)
class FourSquaresInstance:
    """x² + y² + z² + w² = n with x ≡ r1, y ≡ r2, z ≡ w ≡ 0 (mod modulus)."""

    n: int
    modulus: int
    r1: int
    r2: int

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ParameterError("n must be nonnegative")
        if self.modulus < 1:
            raise ParameterError("modulus must be positive")
        if (self.r1 * self.r1 + self.r2 * self.r2 - self.n) % self.modulus != 0:
            raise ParameterError("instance needs r1² + r2² ≡ n (mod modulus)")


@dataclass(frozen=True)
class CandidateForm:
    """The quadratic F plus everything needed to enumerate and assemble solutions.

    F(x1, x2) = A*x1² + B*x1*x2 + C*x2² + D*x1 + E*x2 + G with
    coeffs = (A, B, C, D, E, G) and A = -|u1|² < 0.
    """

    n: int
    modulus: int
    r1: int
    r2: int
    u0: Vec2
    u1: Vec2
    u2: Vec2
    coeffs: tuple[int, int, int, int, int, int]

    def point(self, x1: int, x2: int) -> Vec2:
        return (
            self.u0[0] + x1 * self.u1[0] + x2 * self.u2[0],
            self.u0[1] + x1 * self.u1[1] + x2 * self.u2[1],
        )


@dataclass(frozen=True)
class SolveResult:
    """status: "found" (solution set), "absent" (certified), or "unknown" (budget)."""

    status: str
    solution: Optional[tuple[int, int, int, int]] = None
    tried: int = 0


def coset_form(
    n: int, m: int, r1: int, r2: int, basis: tuple[Vec2, Vec2], point: Vec2
) -> CandidateForm:
    """The candidate quadratic F of x ≡ r1, y ≡ r2 (mod m) on one coset.

    r1 and r2 are reduced mod m, `basis` spans the homogeneous solutions of
    2*r1*t1 + 2*r2*t2 ≡ k (mod m), k = (n - r1² - r2²)/m, and `point` solves
    it.  Raises RuntimeError when the point or a basis vector does not fit.
    """
    k = (n - r1 * r1 - r2 * r2) // m

    def scalar(v: Vec2, shift: int) -> int:
        num = shift - 2 * (r1 * v[0] + r2 * v[1])
        if num % m:
            raise RuntimeError(f"{v} does not solve 2*{r1}*t1 + 2*{r2}*t2 ≡ {shift} mod {m}")
        return num // m

    scalar(point, k)  # raises unless the point solves the congruence
    u1, u2 = basis
    u0 = shortest_coset_vector(basis, point)
    # F = (k - 2*(r1*t1 + r2*t2))/m - |t|² at t = u0 + x1*u1 + x2*u2.
    coeffs = (
        -norm_sq(u1),
        -2 * dot(u1, u2),
        -norm_sq(u2),
        scalar(u1, 0) - 2 * dot(u0, u1),
        scalar(u2, 0) - 2 * dot(u0, u2),
        scalar(u0, k) - norm_sq(u0),
    )
    return CandidateForm(n, m, r1, r2, u0, u1, u2, coeffs)


def build_form(inst: FourSquaresInstance) -> CandidateForm:
    """Reduce an instance to its candidate quadratic F.

    Raises InfeasibleCongruence when gcd(2*r1, 2*r2, M) does not divide k —
    then the congruence 2*r1*t1 + 2*r2*t2 ≡ k (mod M) has no solutions at all
    and the instance is certified unsolvable.
    """
    m = inst.modulus
    r1, r2 = inst.r1 % m, inst.r2 % m
    k = (inst.n - r1 * r1 - r2 * r2) // m
    c1, c2 = 2 * r1 % m, 2 * r2 % m
    (u1, u2), unit, g = solution_lattice(c1, c2, m)
    if k % g:
        raise InfeasibleCongruence(f"gcd({c1}, {c2}, {m}) = {g} does not divide {k}")
    # (m/g)·Z² lies in the lattice, so reducing mod m/g keeps the coset.
    mg = m // g
    if abs(u1[0] * u2[1] - u1[1] * u2[0]) != mg:
        raise RuntimeError(f"basis {u1}, {u2} has the wrong index for {inst}")
    s = k // g % mg
    return coset_form(inst.n, m, r1, r2, (u1, u2), (s * unit[0] % mg, s * unit[1] % mg))


def _quadratic_interval(a: int, b: int, c: int) -> Optional[tuple[int, int]]:
    """Integer interval {x : a*x² + b*x + c >= 0} for a < 0; None when empty.

    With A = -a and D = b² - 4ac the condition is (2A*x - b)² <= D, which for
    an integer x is |2A*x - b| <= isqrt(D): the bounds are exact.
    """
    if a >= 0:
        raise RuntimeError(f"leading coefficient {a} is not negative")
    disc = b * b - 4 * a * c
    if disc < 0:
        return None
    s = math.isqrt(disc)
    lo, hi = -((s - b) // (-2 * a)), (b + s) // (-2 * a)
    return (lo, hi) if lo <= hi else None


def _row_points(lo: int, hi: int) -> Iterator[int]:
    """Integers of [lo, hi] ordered by (x², x): outward from 0, negative first."""
    anchor = min(max(0, lo), hi)
    yield anchor
    left, right = anchor - 1, anchor + 1
    while left >= lo or right <= hi:
        if left >= lo and (right > hi or (left * left, left) < (right * right, right)):
            yield left
            left -= 1
        else:
            yield right
            right += 1


def _row_range(form: CandidateForm) -> Optional[tuple[int, int]]:
    """Exact x2-projection of the ellipse {F >= 0}: integers with max_x1 F(x1, x2) >= 0."""
    a, b, c, d, e, g = form.coeffs
    # Discriminant of F in x1, as a quadratic in x2; leading coefficient is
    # -4*(det u1,u2)² < 0, so the row range is a bounded interval.
    return _quadratic_interval(b * b - 4 * a * c, 2 * b * d - 4 * a * e, d * d - 4 * a * g)


def enumerate_candidates(form: CandidateForm) -> Iterator[tuple[tuple[int, int], int]]:
    """Stream ((x1, x2), F) with F >= 0, ordered by (x1² + x2², x1, x2).

    The stream scans the entire nonnegativity ellipse of F — computed exactly
    from integer quadratics, and a superset of the 5C box intersected with
    {F >= 0} — so exhausting it is a completeness certificate.
    """
    rows = _row_range(form)
    if rows is None:
        return
    a, b, c, d, e, g = form.coeffs
    # Rows are seeded lazily in (x2², x2) order: a row cannot yield a key
    # below x2², so one is pushed only once x2² reaches the heap top's norm.
    # On row x2, F = (a*x1 + bx)*x1 + cx; a heap entry is
    # (x1² + x2², x1, x2, row iterator, bx, cx), unique in its first three.
    unseeded = _row_points(*rows)
    x2_next = next(unseeded, None)
    heap: list[tuple[int, int, int, Iterator[int], int, int]] = []
    while True:
        while x2_next is not None and (not heap or x2_next * x2_next <= heap[0][0]):
            x2, x2_next = x2_next, next(unseeded, None)
            bx, cx = b * x2 + d, (c * x2 + e) * x2 + g
            iv = _quadratic_interval(a, bx, cx)
            if iv is None:
                continue
            it = _row_points(*iv)
            x1 = next(it)
            heapq.heappush(heap, (x1 * x1 + x2 * x2, x1, x2, it, bx, cx))
        if not heap:
            return
        _, x1, x2, it, bx, cx = heap[0]
        yield ((x1, x2), (a * x1 + bx) * x1 + cx)
        nxt = next(it, None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (nxt * nxt + x2 * x2, nxt, x2, it, bx, cx))


def solve_form(form: CandidateForm, mode: str, budget_rho: int) -> SolveResult:
    """Certify the candidates of `form` in `mode`, "exact" or "fast".

    Under "exact", verdict "absent" is a certificate and "unknown" means only
    factoring-budget exhaustion; under "fast", "unknown" may stand where
    "absent" is the truth.
    """
    n, m, r1, r2 = form.n, form.modulus, form.r1, form.r2
    tainted = False
    tried = 0
    for (x1, x2), fv in enumerate_candidates(form):
        tried += 1
        ts = two_squares(fv, budget_rho, mode)
        if ts.status == "found":
            t1, t2 = form.point(x1, x2)
            e, f = ts.pair
            if r1 == 0 and r2 == 0:
                # Classical presentation for the unconstrained case: the
                # two-squares part first, the scan pair last.
                sol = (m * e, m * f, m * t1, m * t2)
            else:
                sol = (m * t1 + r1, m * t2 + r2, m * e, m * f)
            if sum(v * v for v in sol) != n or any(
                (v - r) % m for v, r in zip(sol, (r1, r2, 0, 0))
            ):
                raise RuntimeError(f"solution {sol} does not solve {n}, {m}, {r1}, {r2}")
            return SolveResult("found", sol, tried)
        if ts.status == "unknown":
            tainted = True
    return SolveResult("unknown" if tainted else "absent", None, tried)


def solve(
    inst: FourSquaresInstance,
    mode: str = "auto",
    budget_rho: int = DEFAULT_RHO_BUDGET,
) -> SolveResult:
    """Find x² + y² + z² + w² = n with the instance congruences, or certify:
    `solve_form` of `build_form(inst)` in the mode `solve_mode(mode, n)`.

    Identical instance, mode and budget give identical output."""
    mode = solve_mode(mode, inst.n)
    try:
        form = build_form(inst)
    except InfeasibleCongruence:
        return SolveResult("absent")
    return solve_form(form, mode, budget_rho)
