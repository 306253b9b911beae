"""Shortest-path navigation on X_{p,q} through quaternion congruences.

A diagonal vertex diag(a+ib, a-ib) is reachable in h steps exactly when
x² + y² + z² + w² = p^h has a solution with (x, y) ≡ λ(a, b) (mod q),
z ≡ w ≡ 0 (mod q), x odd and y, z, w even — one four-squares instance with
modulus 2q per height.  Scanning h upward and certifying the first solvable
height therefore yields the graph distance (with a full-factoring certificate)
or a short path (with the cheap prime-power certificate).  General elements
are reduced to three diagonal-type factors via the (1+ix)(1+jy)(1+kz)
decomposition after a short correcting word.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional

from .errors import BudgetExhausted, HMaxExceeded, ParameterError
from .foursquares import CandidateForm, coset_form, solve_form, solve_mode
from .ntheory import DEFAULT_RHO_BUDGET, legendre, sqrt_mod
from .lattice2 import SolutionLattice, Vec2, norm_sq, solution_lattice
from .quaternion import (
    GraphParams,
    PslElement,
    Quat,
    evaluate_word,
    factor_into_generators,
    free_reduce,
    inverse_word,
    psl_to_quat_class,
    quat_to_psl,
)

__all__ = [
    "NavConfig",
    "DiagonalVertex",
    "NavResult",
    "BoundsReport",
    "GeneralNavResult",
    "diagonal_distance",
    "predicted_bounds",
    "typical_height_bound",
    "decompose_xyz",
    "general_navigate",
    "density_bound",
]


@dataclass(frozen=True)
class NavConfig:
    """Tunables shared by the navigation entry points.

    mode: "exact" certifies minimality, "fast" trades certificates for speed,
    "auto" switches on instance size (`foursquares.solve_mode`).
    gamma/c_gamma parametrize the lattice-balance predicate; h_max_slack pads
    the height cap; s_cap bounds the correcting words tried by
    general_navigate.
    """

    mode: str = "auto"
    gamma: float = 0.75
    c_gamma: float = 4.0
    h_max_slack: int = 4
    budget_rho: int = DEFAULT_RHO_BUDGET
    s_cap: int = 4096

    def __post_init__(self) -> None:
        if self.mode not in ("auto", "exact", "fast"):
            raise ParameterError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.gamma) and math.isfinite(self.c_gamma)):
            raise ParameterError("gamma and c_gamma must be finite")
        if self.c_gamma <= 0:
            raise ParameterError("c_gamma must be positive")
        for name in ("h_max_slack", "budget_rho", "s_cap"):
            if getattr(self, name) < 0:
                raise ParameterError(f"{name} must be nonnegative")


@dataclass(frozen=True)
class DiagonalVertex:
    """The class of diag(a + i*b, a - i*b) in PGL2(F_q), stored as raw (a, b)."""

    q: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if (self.a % self.q, self.b % self.q) == (0, 0):
            raise ParameterError("(a, b) must be nonzero mod q")

    def norm_sq(self) -> int:
        return (self.a * self.a + self.b * self.b) % self.q

    def on_graph(self) -> bool:
        """In PSL2 (and invertible): a² + b² a nonzero quadratic residue."""
        n = self.norm_sq()
        return n != 0 and legendre(n, self.q) == 1

    def psl(self, sqrt_m1: int) -> PslElement:
        i = sqrt_m1
        n = self.norm_sq()
        if n == 0:
            raise ParameterError("vertex matrix is singular (a² + b² ≡ 0)")
        return PslElement.canonical(
            self.q, ((self.a + i * self.b), 0, 0, (self.a - i * self.b))
        )


@dataclass(frozen=True)
class NavResult:
    h: int
    word: tuple[int, ...]
    solution: tuple[int, int, int, int]

    def names(self, params: GraphParams) -> list[str]:
        return [params.gens.names[i] for i in self.word]


@dataclass(frozen=True)
class BoundsReport:
    u1: Vec2
    u2: Vec2
    regime: str  # "hole" | "typical"
    hole_bound: int
    typical_bound: int
    h_max: int


@dataclass(frozen=True)
class GeneralNavResult:
    word: tuple[int, ...]
    s_index: int
    s_word: tuple[int, ...]
    xyz: tuple[int, int, int]
    factor_heights: tuple[int, int, int]


def _parity_lift(x: int, parity: int, q: int) -> int:
    """The residue mod 2q that is ≡ x (mod q) and ≡ parity (mod 2)."""
    v = x % q
    return v if v % 2 == parity else v + q


def _least_height(c: int, p: int, q: int) -> int:
    """Least h >= 0 with c·p^h >= 89 q⁴, in exact integer arithmetic."""
    target = 89 * q**4
    h = 0
    while c < target:
        c *= p
        h += 1
    return h


def _vertex_checked(vertex: DiagonalVertex, params: GraphParams) -> None:
    if vertex.q != params.q:
        raise ParameterError("vertex and graph moduli differ")
    n = vertex.norm_sq()
    if n == 0:
        raise ParameterError("a² + b² ≡ 0 (mod q): not an invertible class")
    if legendre(n, params.q) != 1:
        raise ParameterError(
            "a² + b² is a non-residue mod q: the vertex lies outside PSL2(F_q)"
        )


def _height_forms(
    params: GraphParams, a: int, b: int, lattice: SolutionLattice, h_cap: int
) -> Iterator[tuple[int, CandidateForm]]:
    """(h, the candidate form of the vertex congruence at h) for each height
    h = 0, ..., h_cap whose ellipse has rows; the other heights are skipped.

    With (r1, r2) ≡ λ(a, b) (mod q), height h's congruence
    2*r1*t1 + 2*r2*t2 ≡ k (mod 2q) says λ(a*t1 + b*t2) ≡ k/2 (mod q): k is
    even (p^h ≡ r1² ≡ 1, r2² ≡ 0 mod 4), the basis is that of `lattice`,
    `solution_lattice(a, b, q)`, at every height, and pt = (k/2)·λ⁻¹·e is on
    the coset.  λ, λ⁻¹ and p^h advance by one multiplication each per height.

    Rows: with m = 2q and (x, y) = m·pt + (r1, r2), row x2 of the form is the
    line (x, y) + m·(R·u1 + x2·u2), at distance |D + x2·m·q| / |u1| from the
    origin, D = u1[0]·y - u1[1]·x, since det(u1, u2) = ±q.  So some row meets
    the disk x² + y² <= p^h, and `_row_range` of the form is not None,
    exactly when d = min(D mod mq, mq - D mod mq) has d² <= p^h·|u1|².  The
    verdict is the same for every point of the coset, so it needs no
    `shortest_coset_vector`.  The congruence checks `coset_form` makes are
    made here at every height, skipped or not.
    """
    q, p = params.q, params.p
    m, mq = 2 * q, 2 * q * q
    m2 = m * m
    basis, e, _ = lattice
    u1, u2 = basis
    if abs(u1[0] * u2[1] - u1[1] * u2[0]) != q:
        raise RuntimeError(f"basis {u1}, {u2} has the wrong index for ({a}, {b}) mod {q}")
    for u in basis:
        if (a * u[0] + b * u[1]) % q:
            raise RuntimeError(f"basis vector {u} is off the lattice of ({a}, {b}) mod {q}")
    u1_sq = norm_sq(u1)
    nsq = (a * a + b * b) % q
    mu0 = sqrt_mod(pow(nsq, -1, q), q)
    sqrt_p_inv = pow(params.sqrt_p, -1, q)
    lam, lam_inv = mu0, mu0 * nsq % q  # λ and λ⁻¹ at h = 0; mu0² ≡ 1/nsq
    n = n_m2 = 1  # p^h, and p^h mod m²
    for h in range(h_cap + 1):
        r1 = _parity_lift(lam * a, 1, q)
        r2 = _parity_lift(lam * b, 0, q)
        s = (n_m2 - r1 * r1 - r2 * r2) // (4 * q) * lam_inv % q
        pt = (s * e[0] % q, s * e[1] % q)
        x, y = m * pt[0] + r1, m * pt[1] + r2
        if (x * x + y * y - n_m2) % m2:
            raise RuntimeError(f"coset point {pt} is off the coset of ({a}, {b}) at height {h}")
        d = (u1[0] * y - u1[1] * x) % mq
        d = min(d, mq - d)
        if d * d <= n * u1_sq:
            yield h, coset_form(n, m, r1, r2, basis, pt)
        n *= p
        n_m2 = n_m2 * p % m2
        lam = lam * params.sqrt_p % q
        lam_inv = lam_inv * sqrt_p_inv % q


def _solve_heights(
    params: GraphParams, a: int, b: int, lattice: SolutionLattice, cfg: NavConfig
) -> tuple[int, tuple[int, int, int, int], str]:
    """First height h with a certified solution of the vertex congruence.

    Returns (h, (x, y, z, w), the mode that height was solved in).  A height
    `_height_forms` skips has no candidates, so it is certified absent in
    every mode.  "unknown" at a height solved in "exact" mode voids the
    minimality certificate, so it raises BudgetExhausted.  One λ sign
    suffices: negating (x, y) swaps the two λ-lifts bijectively, so the
    solution sets at every height agree.
    """
    h_cap = _least_height(1, params.p, params.q) + cfg.h_max_slack
    for h, form in _height_forms(params, a, b, lattice, h_cap):
        mode = solve_mode(cfg.mode, form.n)
        res = solve_form(form, mode, cfg.budget_rho)
        if res.status == "found":
            if res.solution is None:
                raise RuntimeError(f"'found' without a solution at height {h}")
            return h, res.solution, mode
        if res.status == "unknown" and mode == "exact":
            raise BudgetExhausted(
                f"factoring budget exhausted at height {h}; "
                "minimality not certified"
            )
    raise HMaxExceeded(f"no path found up to the height cap for ({a}, {b})")


def _strip_p_content(alpha: Quat, p: int) -> tuple[Quat, int]:
    """Divide out p-powers from the coordinates; returns (primitive part, t)."""
    t = 0
    while all(x % p == 0 for x in alpha.coords()):
        alpha = alpha.divexact(p)
        t += 1
    return alpha, t


# Coordinate sources for rebuilding the solved congruence (x, y, z, w) as a
# quaternion congruent to λ(1 + i*v), λ(1 + j*v) or λ(1 + k*v) mod q: the
# y-slot (≡ λv) moves to the imaginary axis being navigated, the zero slots
# fill the rest.  The real slot stays odd and the rest even, as the
# factorization step requires.
_AXIS_SHUFFLE = {
    1: (0, 1, 2, 3),  # (x, y, z, w)
    2: (0, 2, 1, 3),  # (x, z, y, w)
    3: (0, 2, 3, 1),  # (x, z, w, y)
}


def _navigate_vertex(
    params: GraphParams,
    a: int,
    b: int,
    lattice: SolutionLattice,
    axis: int,
    cfg: NavConfig,
) -> tuple[int, list[int], tuple[int, int, int, int]]:
    """Solve the heights of the vertex (a, b) and peel the solution.

    The solution is rebuilt as a quaternion along `axis` (`_AXIS_SHUFFLE`).
    Returns (h, a non-backtracking word of length h, the solution).
    """
    h, sol, mode = _solve_heights(params, a, b, lattice, cfg)
    alpha, t = _strip_p_content(Quat(*(sol[j] for j in _AXIS_SHUFFLE[axis])), params.p)
    # Exact mode certified every lower height absent, height h - 2t included.
    if mode == "exact" and t:
        raise RuntimeError("minimal-height solution must be primitive")
    word = factor_into_generators(alpha, params.gens)
    h -= 2 * t
    if len(word) != h:
        raise RuntimeError(f"word has {len(word)} letters, expected {h}")
    return h, word, sol


def diagonal_distance(
    params: GraphParams, vertex: DiagonalVertex, cfg: Optional[NavConfig] = None
) -> NavResult:
    """Distance and a realizing word from the identity to a diagonal vertex.

    In exact mode the returned h is the graph distance: every smaller height
    was certified unsolvable, and a height-h solution exists.  In fast mode h
    is an upper bound (the first height the cheap certificate could decide).
    The word is non-backtracking, has length exactly h, and evaluates to the
    vertex.
    """
    cfg = cfg or NavConfig()
    _vertex_checked(vertex, params)
    q = params.q
    a, b = vertex.a % q, vertex.b % q
    h, word, sol = _navigate_vertex(params, a, b, solution_lattice(a, b, q), 1, cfg)
    got = evaluate_word(word, params.gens, q, params.sqrt_m1)
    if got != vertex.psl(params.sqrt_m1):
        raise RuntimeError("word does not evaluate to the vertex")
    return NavResult(h, tuple(word), tuple(sol))


def density_bound(params: GraphParams, h: int) -> Fraction:
    """89 q⁴ / p^(h-1): bound on diagonal vertices at distance >= h (h past the
    typical-regime threshold).  Exact, so callers can compare without rounding."""
    if h < 1:
        raise ParameterError("density bound is defined for h >= 1")
    return Fraction(89 * params.q**4, params.p ** (h - 1))


def typical_height_bound(params: GraphParams, cfg: Optional[NavConfig] = None) -> int:
    """ceil(3 log_p q + γ log_p log q + log_p C_γ + log_p 89): the height at
    which balanced vertex lattices are guaranteed a solution."""
    cfg = cfg or NavConfig()
    p, q = params.p, params.q
    t = 3 * math.log(q, p)
    t += cfg.gamma * math.log(math.log(q), p)
    t += math.log(cfg.c_gamma, p) + math.log(89, p)
    if not math.isfinite(t):
        raise ParameterError(f"typical height bound overflows at gamma = {cfg.gamma}")
    return math.ceil(t)


def _excess_skew(u1: Vec2, u2: Vec2, x: int, cfg: NavConfig) -> float:
    """log(|u2|² / |u1|²) - log((C_γ log(x)^γ)²), formed in logs: the limit
    itself overflows a float for large γ or C_γ, and |u1|², |u2|² for large q."""
    limit = 2 * (math.log(cfg.c_gamma) + cfg.gamma * math.log(math.log(x)))
    return math.log(norm_sq(u2)) - math.log(norm_sq(u1)) - limit


def predicted_bounds(
    params: GraphParams, vertex: DiagonalVertex, cfg: Optional[NavConfig] = None
) -> BoundsReport:
    """Height bounds from the geometry of the vertex lattice.

    The hole bound is the least h with |u1|² p^h >= 89 q⁴ (exact integers);
    the typical bound is ceil(3 log_p q + γ log_p log q + log_p C_γ + log_p 89).
    The regime is "hole" when |u2| >= C_γ log(2q)^γ |u1|, else "typical".
    """
    cfg = cfg or NavConfig()
    _vertex_checked(vertex, params)
    p, q = params.p, params.q
    # {b*x - a*y ≡ 0}, not the scan's 90°-rotated {a*x + b*y ≡ 0}: the two
    # reduced bases can differ on ties, and the report prints this one.
    u1, u2 = solution_lattice(vertex.b, -vertex.a, q).basis

    hole_bound = _least_height(norm_sq(u1), p, q)
    typical_bound = typical_height_bound(params, cfg)

    regime = "hole" if _excess_skew(u1, u2, 2 * q, cfg) >= 0 else "typical"
    return BoundsReport(
        u1=u1,
        u2=u2,
        regime=regime,
        hole_bound=hole_bound,
        typical_bound=typical_bound,
        h_max=_least_height(1, p, q) + cfg.h_max_slack,
    )


def decompose_xyz(g: PslElement, sqrt_m1: int) -> list[tuple[int, int, int]]:
    """Solve class(g) = (1 + ix)(1 + jy)(1 + kz) over F_q; all valid triples.

    The k-consistency condition is a quadratic in z whose discriminant must be
    a square; each usable root (A + Dz invertible, 1 + z² nonzero) gives one
    triple.  Returns [] when the element is not decomposable.
    """
    q = g.q
    A, B, C, D = psl_to_quat_class(g, sqrt_m1)
    lead = (A * D - B * C) % q
    lin = (A * A + B * B - C * C - D * D) % q
    if lead != 0:
        disc = (lin * lin + 4 * lead * lead) % q
        if legendre(disc, q) == -1:
            return []
        s = sqrt_mod(disc, q)
        inv = pow(2 * lead, -1, q)
        roots = sorted({(-lin + s) * inv % q, (-lin - s) * inv % q})
    elif lin != 0:
        roots = [0]
    else:
        # Every z satisfies the consistency equation; a handful of candidates
        # is plenty since only A + Dz ≡ 0 or 1 + z² ≡ 0 can disqualify one.
        roots = list(range(min(q, 8)))
    out: list[tuple[int, int, int]] = []
    for z in roots:
        den = (A + D * z) % q
        if den == 0 or (1 + z * z) % q == 0:
            continue
        inv_den = pow(den, -1, q)
        x = (B - C * z) * inv_den % q
        y = (C + B * z) * inv_den % q
        if (D - A * z) % q != x * y * den % q:
            raise RuntimeError(f"k-coefficient mismatch at z = {z}")
        out.append((x, y, z))
    return out


def _correcting_words(params: GraphParams) -> Iterator[list[int]]:
    """Non-backtracking words ordered by length then lexicographically."""
    gens = params.gens
    frontier: list[list[int]] = [[]]
    while True:
        yield from frontier
        nxt = []
        for w in frontier:
            for j in range(len(gens)):
                if not w or j != gens.conj[w[-1]]:
                    nxt.append(w + [j])
        frontier = nxt


def _axis_lattices(
    q: int, values: tuple[int, int, int], cfg: NavConfig
) -> Optional[list[SolutionLattice]]:
    """The scan lattice of each (1, v), or None when one is too skew.

    Step-3 predicate: |u2|² <= (C_γ log(q)^γ)² |u1|², which reads only the
    successive minima, so the 90° rotation {v·x - y ≡ 0} would give the same
    verdict.  v ≡ 0 is the identity factor and always passes.
    """
    lattices = []
    for v in values:
        lattice = solution_lattice(1, v, q)
        if v % q and _excess_skew(*lattice.basis, q, cfg) > 0:
            return None
        lattices.append(lattice)
    return lattices


def general_navigate(
    params: GraphParams, g: PslElement, cfg: Optional[NavConfig] = None
) -> GeneralNavResult:
    """Navigate to an arbitrary element of PSL2(F_q).

    Tries correcting words s in length-lex order until s·g decomposes as
    (1+ix)(1+jy)(1+kz) with all three factors on the graph and all three
    vertex lattices balanced, then navigates each factor and concatenates
    word(s⁻¹) with the three factor words.
    """
    cfg = cfg or NavConfig()
    if g.q != params.q:
        raise ParameterError("element and graph moduli differ")
    if not g.in_psl():
        raise ParameterError("element lies outside PSL2(F_q)")
    q = params.q
    g_quat = Quat(*psl_to_quat_class(g, params.sqrt_m1))
    target = PslElement.canonical(q, g.m)
    for s_index, s_word in enumerate(_correcting_words(params)):
        if s_index >= cfg.s_cap:
            raise BudgetExhausted("correcting-word budget exhausted")
        acc = Quat(1, 0, 0, 0)
        for i in s_word:
            acc = (acc * params.gens.quats[i]).reduced(q)
        shifted = (acc * g_quat).reduced(q)
        shifted_psl = quat_to_psl(shifted, q, params.sqrt_m1)
        for x, y, z in decompose_xyz(shifted_psl, params.sqrt_m1):
            values = (x, y, z)
            if not all(
                (n := (1 + v * v) % q) != 0 and legendre(n, q) == 1 for v in values
            ):
                continue
            lattices = _axis_lattices(q, values, cfg)
            if lattices is None:
                continue
            parts = [
                _navigate_vertex(params, 1, v, lattice, axis, cfg)
                for axis, v, lattice in zip((1, 2, 3), values, lattices)
            ]
            word = inverse_word(s_word, params.gens)
            for _h, w, _sol in parts:
                word += w
            word = free_reduce(word, params.gens)
            got = evaluate_word(word, params.gens, q, params.sqrt_m1)
            if got != target:
                raise RuntimeError("navigation word does not evaluate to the target")
            return GeneralNavResult(
                word=tuple(word),
                s_index=s_index,
                s_word=tuple(s_word),
                xyz=values,
                factor_heights=tuple(h for h, _w, _sol in parts),
            )
    raise BudgetExhausted("correcting-word budget exhausted")
