"""Constrained four-squares solver: form identity, enumeration, verdicts."""

import math
import random
import signal

import pytest

from lpsnav.errors import ParameterError
from lpsnav.foursquares import (
    FourSquaresInstance,
    _quadratic_interval,
    build_form,
    enumerate_candidates,
    solve,
)
from lpsnav.errors import InfeasibleCongruence


def brute_solutions(n, m, r1, r2):
    """Every (x, y, z, w) solving the constrained instance, by exhaustion."""
    out = []
    root = math.isqrt(n)
    for z in range(-root, root + 1):
        if z % m:
            continue
        for w in range(-root, root + 1):
            if w % m or z * z + w * w > n:
                continue
            rem = n - z * z - w * w
            for x in range(-root, root + 1):
                if (x - r1) % m:
                    continue
                y2 = rem - x * x
                if y2 < 0:
                    continue
                y = math.isqrt(y2)
                if y * y != y2:
                    continue
                for yy in {y, -y}:
                    if (yy - r2) % m == 0:
                        out.append((x, yy, z, w))
    return out


def check_solution(sol, n, m, r1, r2):
    x, y, z, w = sol
    assert x * x + y * y + z * z + w * w == n
    assert (x - r1) % m == 0 and (y - r2) % m == 0
    assert z % m == 0 and w % m == 0


def test_instance_validation():
    with pytest.raises(ParameterError):
        FourSquaresInstance(50, 5, 1, 0)  # 1 ≢ 50 (mod 5)
    with pytest.raises(ParameterError):
        FourSquaresInstance(-1, 5, 1, 0)
    with pytest.raises(ParameterError):
        FourSquaresInstance(10, 0, 0, 0)


def test_zero_residue_examples():
    res = solve(FourSquaresInstance(50, 5, 0, 0))
    assert res.status == "found"
    assert res.solution == (5, 5, 0, 0)
    res = solve(FourSquaresInstance(5, 5, 1, 2))
    assert res.status == "found"
    assert res.solution == (1, 2, 0, 0)


def test_infeasible_congruence_is_absent():
    # modulus² does not divide n with zero residues: no solutions exist
    res = solve(FourSquaresInstance(10, 5, 0, 0))
    assert res.status == "absent"
    with pytest.raises(InfeasibleCongruence):
        build_form(FourSquaresInstance(10, 5, 0, 0))


def f_from_definition(form, x1, x2):
    """F = (n - x² - y²)/M² at x = M*t1 + r1, y = M*t2 + r2, (t1, t2) =
    `form.point(x1, x2)`: an oracle independent of `form.coeffs`."""
    m = form.modulus
    t1, t2 = form.point(x1, x2)
    x, y = m * t1 + form.r1, m * t2 + form.r2
    f, rem = divmod(form.n - x * x - y * y, m * m)
    assert rem == 0, (form, x1, x2)
    return f


def test_form_identity():
    """The quadratic given by `coeffs` is F's definition at every lattice point."""
    rng = random.Random(41)
    for _ in range(200):
        m = rng.randrange(2, 40)
        r1 = rng.randrange(m)
        r2 = rng.randrange(m)
        n = r1 * r1 + r2 * r2 + m * rng.randrange(0, 400)
        try:
            form = build_form(FourSquaresInstance(n, m, r1, r2))
        except InfeasibleCongruence:
            continue
        for _ in range(20):
            x1 = rng.randrange(-6, 7)
            x2 = rng.randrange(-6, 7)
            a, b, c, d, e, g = form.coeffs
            f = a * x1 * x1 + b * x1 * x2 + c * x2 * x2 + d * x1 + e * x2 + g
            assert f == f_from_definition(form, x1, x2), (n, m, r1, r2, x1, x2)


def test_enumeration_order_and_completeness():
    rng = random.Random(42)
    for _ in range(150):
        m = rng.randrange(2, 25)
        r1 = rng.randrange(m)
        r2 = rng.randrange(m)
        n = r1 * r1 + r2 * r2 + m * rng.randrange(0, 300)
        try:
            form = build_form(FourSquaresInstance(n, m, r1, r2))
        except InfeasibleCongruence:
            continue
        seen = list(enumerate_candidates(form))
        # order: nondecreasing parameter norm with (x1, x2) tie-break
        keys = [(x1 * x1 + x2 * x2, x1, x2) for (x1, x2), _f in seen]
        assert keys == sorted(keys)
        # f nonnegative on every emitted candidate, by construction of the region
        assert all(f >= 0 for _pt, f in seen)
        # the yielded F solves M²·F + x² + y² = n at the candidate's point
        for (x1, x2), f in seen:
            assert f == f_from_definition(form, x1, x2), (n, m, r1, r2, x1, x2)
        # completeness: brute-force the window and compare the F >= 0 set
        pts = {pt for pt, _f in seen}
        for x1 in range(-12, 13):
            for x2 in range(-12, 13):
                if f_from_definition(form, x1, x2) >= 0:
                    assert (x1, x2) in pts, (n, m, r1, r2, x1, x2)


def test_solver_against_brute_force():
    rng = random.Random(44)
    for _ in range(250):
        m = rng.randrange(1, 14)
        r1 = rng.randrange(m)
        r2 = rng.randrange(m)
        n = r1 * r1 + r2 * r2 + m * rng.randrange(0, 160)
        res = solve(FourSquaresInstance(n, m, r1, r2), mode="exact")
        brute = brute_solutions(n, m, r1, r2)
        assert res.status in ("found", "absent")
        if brute:
            assert res.status == "found", (n, m, r1, r2)
            check_solution(res.solution, n, m, r1, r2)
        else:
            assert res.status == "absent", (n, m, r1, r2)


def test_solver_determinism():
    rng = random.Random(45)
    for _ in range(50):
        m = rng.randrange(1, 12)
        r1, r2 = rng.randrange(m), rng.randrange(m)
        n = r1 * r1 + r2 * r2 + m * rng.randrange(0, 120)
        a = solve(FourSquaresInstance(n, m, r1, r2))
        b = solve(FourSquaresInstance(n, m, r1, r2))
        assert a == b


def test_fast_mode_consistency():
    """Fast-mode 'found' must be valid; fast 'absent' must agree with exact."""
    rng = random.Random(46)
    for _ in range(200):
        m = rng.randrange(1, 12)
        r1, r2 = rng.randrange(m), rng.randrange(m)
        n = r1 * r1 + r2 * r2 + m * rng.randrange(0, 120)
        inst = FourSquaresInstance(n, m, r1, r2)
        fast = solve(inst, mode="fast")
        exact = solve(inst, mode="exact")
        if fast.status == "found":
            check_solution(fast.solution, n, m, r1, r2)
        if fast.status == "absent":
            assert exact.status == "absent"
        if exact.status == "absent":
            assert fast.status in ("absent", "unknown")


def test_big_instance_fast_mode():
    # a congruence around a 40-digit modulus: fast mode must still terminate
    q = 10**20 + 39  # prime
    m = 2 * q
    x = 3 * q + 1
    y = 4 * q + 2
    n = x * x + y * y  # k = 0 instance with an obvious planted solution
    res = solve(FourSquaresInstance(n, m, x % m, y % m), mode="fast")
    assert res.status == "found"
    check_solution(res.solution, n, m, x % m, y % m)


def test_huge_instance_returns():
    """Rows are seeded lazily, so a first-candidate hit returns at once even
    when the ellipse has ~10^31 rows."""

    def timeout(_signum, _frame):
        raise TimeoutError("solve did not return within 10 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        res = solve(FourSquaresInstance(10**66 + 1, 10, 1, 0))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert res.status == "found"
    check_solution(res.solution, 10**66 + 1, 10, 1, 0)


def _check_interval(a, b, c):
    """_quadratic_interval(a, b, c) against direct evaluation of the quadratic."""
    f = lambda x: (a * x + b) * x + c  # noqa: E731
    iv = _quadratic_interval(a, b, c)
    if iv is None:
        peak = b // (-2 * a)  # the maximum over Z is at peak or peak + 1
        assert f(peak) < 0 and f(peak + 1) < 0, (a, b, c)
    else:
        lo, hi = iv
        assert f(lo) >= 0 and f(hi) >= 0, (a, b, c)
        assert f(lo - 1) < 0 and f(hi + 1) < 0, (a, b, c)


def test_quadratic_interval_is_exact():
    """Row bounds from the closed form: F >= 0 at lo and hi and F < 0 just
    outside, on random small and 1000-bit triples and on triples with integer
    or rational roots; a full scan agrees on small ranges."""
    for a in range(-6, 0):
        for b in range(-12, 13):
            for c in range(-30, 31):
                xs = [x for x in range(-20, 21) if (a * x + b) * x + c >= 0]
                assert _quadratic_interval(a, b, c) == ((xs[0], xs[-1]) if xs else None)
    rng = random.Random(0x1A7)
    for bits in (8, 64, 1000):
        top = 1 << bits
        for _ in range(2000):
            a = -rng.randrange(1, top)
            _check_interval(a, rng.randrange(-top, top), rng.randrange(-top * top, top * top))
            # -(d*x - n1)(d*x - n2): the roots n1/d and n2/d are on the boundary.
            d, n1, n2 = rng.randrange(1, top), rng.randrange(-top, top), rng.randrange(-top, top)
            _check_interval(-d * d, d * (n1 + n2), -n1 * n2)


def test_quadratic_interval_check_survives_optimization():
    """A quadratic that does not open downward is a RuntimeError, not an
    assert that python -O strips."""
    for a, b, c in ((0, 1, 1), (1, 0, -1)):
        with pytest.raises(RuntimeError):
            _quadratic_interval(a, b, c)
