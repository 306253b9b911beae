"""Subset-sum reduction: instance structure, decoding, dimension lifting."""

import itertools
import random

import pytest

from lpsnav import npreduction
from lpsnav.errors import BudgetExhausted, ParameterError
from lpsnav.npreduction import (
    NpInstance,
    decode,
    lift_dimension,
    reduce_subset_sum,
)
from lpsnav.ntheory import Factorization, is_prime


def gaussian_mul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def all_representations(inst):
    """Every Gaussian integer of norm N, via the conjugate choices and units."""
    reps = []
    for eps in itertools.product((0, 1), repeat=len(inst.pi)):
        z = (1, 0)
        for e, (re, im) in zip(eps, inst.pi):
            z = gaussian_mul(z, (re, -im) if e else (re, im))
        for _ in range(4):
            z = (-z[1], z[0])  # multiply by i
            reps.append((z[0], z[1], eps))
    return reps


def matching_representations(inst):
    """Representations whose direction mod q matches the instance residue."""
    a, b = inst.residue
    q = inst.q
    return [
        (x, y, eps)
        for x, y, eps in all_representations(inst)
        if (x * b - y * a) % q == 0 and (x % q, y % q) != (0, 0)
    ]


def test_instance_structure():
    rng = random.Random(61)
    inst = reduce_subset_sum((3, 5, 8), 8, rng=rng)
    # q: least prime ≡ 3 (mod 4) above 4·k·max = 96
    assert inst.q == 103
    assert inst.s == (inst.q - 1) * 8 + 16
    assert is_prime(inst.q)
    k = len(inst.targets)
    assert len(inst.pi) == k == len(inst.primes)
    # norms: prime, distinct, ≡ 1 (mod 4)
    assert len(set(inst.primes)) == k
    n = 1
    for (re, im), p in zip(inst.pi, inst.primes):
        assert re * re + im * im == p
        assert is_prime(p) and p % 4 == 1
        n *= p
    assert n == inst.n
    # each π_j reduces to g^{t_j} in F_q[i]
    q = inst.q
    for (re, im), tj in zip(inst.pi, inst.targets):
        gt = (1, 0)
        for _ in range(tj):
            gt = ((gt[0] * inst.g[0] - gt[1] * inst.g[1]) % q,
                  (gt[0] * inst.g[1] + gt[1] * inst.g[0]) % q)
        assert (re % q, im % q) == gt


def test_generator_has_full_order():
    rng = random.Random(62)
    inst = reduce_subset_sum((2, 3), 5, rng=rng)
    q = inst.q
    n2 = q * q - 1
    # brute-force the order of g in F_q[i]*
    z = (1, 0)
    order = 0
    for step in range(1, n2 + 1):
        z = ((z[0] * inst.g[0] - z[1] * inst.g[1]) % q,
             (z[0] * inst.g[1] + z[1] * inst.g[0]) % q)
        if z == (1, 0):
            order = step
            break
    assert order == n2


def test_reduction_validation():
    with pytest.raises(ParameterError):
        reduce_subset_sum((), 3)
    with pytest.raises(ParameterError):
        reduce_subset_sum((1, -2), 3)
    with pytest.raises(ParameterError):
        reduce_subset_sum((1, 2), 0)


def test_decode_requires_norm_match():
    inst = reduce_subset_sum((2, 3), 5, rng=random.Random(63))
    with pytest.raises(ParameterError):
        decode(inst, 1, 1)


def test_round_trip_solvable_and_not():
    rng = random.Random(64)
    cases = [
        ((3, 5, 8), 8, True),
        ((3, 5, 8), 13, True),
        ((3, 5, 8), 7, False),
        ((2, 2, 3), 4, True),
        ((2, 4, 6), 5, False),
        ((1, 9, 10), 19, True),
    ]
    for targets, t, solvable in cases:
        inst = reduce_subset_sum(targets, t, rng=rng)
        matches = matching_representations(inst)
        if solvable:
            assert matches
            decoded_ok = False
            for x, y, _eps in matches:
                res = decode(inst, x, y)
                if res.valid:
                    assert res.subset_sum == t
                    chosen = [ts for e, ts in zip(res.epsilon, targets) if e]
                    assert sum(chosen) == t
                    decoded_ok = True
            assert decoded_ok, (targets, t)
        else:
            for x, y, _eps in matches:
                assert not decode(inst, x, y).valid, (targets, t, x, y)


def test_randomized_q_mode():
    inst = reduce_subset_sum((2, 3), 5, rng=random.Random(65), q_mode="randomized")
    assert inst.q % 4 == 3
    assert inst.q > 4 * 2 * 5
    assert is_prime(inst.q)


def test_json_round_trip():
    inst = reduce_subset_sum((4, 7), 7, rng=random.Random(66))
    d = inst.to_json_dict()
    assert NpInstance.from_json_dict(d) == inst
    # all potentially-big numbers travel as strings
    assert isinstance(d["q"], str) and isinstance(d["n"], str)
    assert all(isinstance(x, str) for pair in d["pi"] for x in pair)


def test_lift_dimension_worked_example():
    assert lift_dimension(5, 3, 1, (1, 2), 2) == (49, 9, (3, 6, 2))


def test_lift_dimension_scales_solutions():
    """(3,6,2) at modulus 9 with N'=49: lifted from x²+y²=5, x≡1, y≡2 (mod 3)."""
    new_n, mod, res = lift_dimension(5, 3, 1, (1, 2), 2)
    found = []
    import math

    for x in range(-7, 8):
        for y in range(-7, 8):
            z2 = new_n - x * x - y * y
            if z2 < 0:
                continue
            z = math.isqrt(z2)
            if z * z != z2:
                continue
            for zz in {z, -z}:
                if (
                    (x - res[0]) % mod == 0
                    and (y - res[1]) % mod == 0
                    and (zz - res[2]) % mod == 0
                ):
                    found.append((x, y, zz))
    assert found
    for x, y, zz in found:
        assert abs(zz) == 2  # the appended coordinate is pinned to ±m
        assert (x // 3) ** 2 + (y // 3) ** 2 == 5  # the rest scales down


def test_lift_dimension_preconditions():
    with pytest.raises(ParameterError):
        lift_dimension(9, 3, 1, (1, 2), 2)  # n not below q^(2t)
    with pytest.raises(ParameterError):
        lift_dimension(5, 3, 1, (1, 2), 10)  # m too large
    with pytest.raises(ParameterError):
        lift_dimension(5, 3, 1, (1, 2), 3)  # gcd(m, q) > 1


def test_factoring_check_survives_optimization(monkeypatch):
    """q² - 1 left unfactored by the budget stops the reduction with
    BudgetExhausted, not an assert that python -O strips."""
    monkeypatch.setattr(npreduction, "factor", lambda n: Factorization((), n))
    with pytest.raises(BudgetExhausted):
        reduce_subset_sum([1, 2, 3], 3)
