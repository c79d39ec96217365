"""Polynomial layer: arithmetic, division, cyclotomic tables.

Cyclotomic polynomials and totients are checked against the standard
closed forms for small indices.
"""
import random
from fractions import Fraction

import pytest

from quiverlab.intpoly import (
    IntPolynomial,
    cyclotomic_factorization,
    cyclotomic_poly,
    euler_phi,
)

from conftest import (
    companion_matrix,
    eval_matrix,
    recursive_cyclotomic,
    trial_division_factorization,
)

X = IntPolynomial.x()
ONE = IntPolynomial.one()


def poly(*coeffs):
    """Constant-first coefficients."""
    return IntPolynomial(coeffs)


def test_normalization_drops_leading_zeros():
    assert poly(1, 2, 0, 0) == poly(1, 2)
    assert poly(0, 0).is_zero
    assert IntPolynomial.zero().degree == -1


def test_degree_leading_constant():
    p = poly(1, -7, 1)
    assert p.degree == 2
    assert p.leading == 1
    assert p.constant == 1
    assert p.is_monic
    assert p.is_integral


def test_str_rendering():
    assert str(poly(1, -7, 1)) == "x^2 - 7x + 1"
    assert str(poly(-1, 0, 1)) == "x^2 - 1"
    assert str(poly(3)) == "3"
    assert str(IntPolynomial.zero()) == "0"


def test_arithmetic():
    p = poly(1, 1)
    q = poly(-1, 1)
    assert p + q == poly(0, 2)
    assert p - q == poly(2)
    assert p * q == poly(-1, 0, 1)
    assert (X ** 3).degree == 3


def test_negative_power_raises():
    assert X ** 0 == ONE
    with pytest.raises(ValueError):
        X ** -1


def test_divmod_exact_and_remainder():
    p = poly(-1, 0, 0, 1)  # x^3 - 1
    d = poly(-1, 1)
    q, r = divmod(p, d)
    assert r.is_zero
    assert q == poly(1, 1, 1)
    q, r = divmod(poly(1, 0, 1), poly(0, 1))
    assert q == poly(0, 1)
    assert r == poly(1)
    # x^2 + 1 = (3x + 1)(x/3 - 1/9) + 10/9: a true division makes exact ninths
    q, r = divmod(poly(1, 0, 1), poly(1, 3))
    assert q.coeffs == (Fraction(-1, 9), Fraction(1, 3))
    assert r.coeffs == (Fraction(10, 9),)


def test_gcd_and_lcm():
    a = poly(-1, 1) * poly(1, 1)
    b = poly(-1, 1) * poly(2, 1)
    g = a.gcd(b)
    assert g == poly(-1, 1)
    l = a.lcm(b)
    assert l == poly(-1, 1) * poly(1, 1) * poly(2, 1)


def test_derivative_and_evaluate():
    p = poly(1, -7, 1)
    assert p.derivative() == poly(-7, 2)
    assert p.evaluate(Fraction(0)) == 1
    assert p.evaluate(Fraction(7)) == 1


def test_monic_rescales():
    p = poly(2, 0, 2)
    assert p.monic() == poly(1, 0, 1)
    # leading 3 needs exact thirds; a float would miss 1/3 and 2/3
    assert poly(1, 2, 3).monic().coeffs == (Fraction(1, 3), Fraction(2, 3), 1)


def test_euler_phi_first_twelve():
    assert [euler_phi(n) for n in range(1, 13)] == [1, 1, 2, 2, 4, 2, 6, 4, 6, 4, 10, 4]


def test_cyclotomic_poly_small_indices():
    assert cyclotomic_poly(1) == poly(-1, 1)
    assert cyclotomic_poly(2) == poly(1, 1)
    assert cyclotomic_poly(3) == poly(1, 1, 1)
    assert cyclotomic_poly(4) == poly(1, 0, 1)
    assert cyclotomic_poly(6) == poly(1, -1, 1)
    assert cyclotomic_poly(12) == poly(1, 0, -1, 0, 1)
    assert cyclotomic_poly(105).degree == euler_phi(105)
    # the least index whose cyclotomic polynomial has a coefficient off {-1, 0, 1}
    coeffs = cyclotomic_poly(105).coeffs
    assert [k for k, c in enumerate(coeffs) if c == -2] == [7, 41]
    assert all(abs(c) <= 1 for k, c in enumerate(coeffs) if k not in (7, 41))


def test_product_over_divisors_recovers_power_minus_one():
    for n in (1, 2, 6, 12):
        prod = ONE
        for d in range(1, n + 1):
            if n % d == 0:
                prod = prod * cyclotomic_poly(d)
        expect = IntPolynomial([-1] + [0] * (n - 1) + [1])
        assert prod == expect


def test_cyclotomic_factorization_tables():
    assert cyclotomic_factorization(poly(1, -1, 1)) == ((6, 1),)
    assert cyclotomic_factorization(poly(1, -2, 1)) == ((1, 2),)
    assert cyclotomic_factorization(poly(1, 1, 1) * poly(-1, 1)) == ((1, 1), (3, 1))
    assert cyclotomic_factorization(poly(1, -7, 1)) is None
    assert cyclotomic_factorization(poly(2, 1)) is None
    phi1, phi2, phi6 = poly(-1, 1), poly(1, 1), poly(1, -1, 1)
    assert cyclotomic_factorization(phi1 ** 2 * phi2 * phi6 ** 3) == ((1, 2), (2, 1), (6, 3))
    # Coxeter polynomial of A60: 1 + x + ... + x^60 = Phi_61
    assert cyclotomic_factorization(poly(*[1] * 61)) == ((61, 1),)
    lehmer = poly(1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)
    assert cyclotomic_factorization(lehmer) is None
    with pytest.raises(ValueError):
        cyclotomic_factorization(poly(1, 2))


def test_binomial_cyclotomic_is_the_recursive_definition():
    for d in range(1, 1001):
        assert cyclotomic_poly(d) == recursive_cyclotomic(d), d


def test_factorization_is_trial_division_on_seeded_products():
    # monic products of cyclotomic polynomials, half of them times a monic
    # factor of degree 1 to 4 that is mostly not cyclotomic
    rng = random.Random(4848)
    orders = [d for d in range(1, 61) if euler_phi(d) <= 16]
    outcomes = {True: 0, False: 0}
    for trial in range(600):
        p = ONE
        for _ in range(rng.randint(1, 5)):
            p = p * cyclotomic_poly(rng.choice(orders)) ** rng.randint(1, 3)
        if trial % 2:
            p = p * poly(*(rng.randint(-3, 3) for _ in range(rng.randint(1, 4))), 1)
        found = cyclotomic_factorization(p)
        assert found == trial_division_factorization(p), p
        outcomes[found is not None] += 1
    assert outcomes[True] >= 300 and outcomes[False] >= 150


def test_factorization_is_trial_division_on_binomials_plus_three():
    # x^n + 3 has every root of modulus 3^(1/n) > 1
    for n in range(1, 101):
        p = poly(3, *[0] * (n - 1), 1)
        assert cyclotomic_factorization(p) is None
        assert trial_division_factorization(p) is None


def test_gcd_of_monic_integral_polynomials_stays_in_ints():
    phi1, phi2, phi3 = cyclotomic_poly(1), cyclotomic_poly(2), cyclotomic_poly(3)
    a, b = phi1 ** 2 * phi3 * poly(5, 0, 1), phi1 * phi2 * phi3 ** 2
    assert a.gcd(b) == phi1 * phi3 and a.gcd(b).is_integral
    assert a.lcm(b) == phi1 ** 2 * phi2 * phi3 ** 2 * poly(5, 0, 1)
    assert a.lcm(b).is_integral
    # between integral polynomials that are not monic, the gcd is still monic
    assert poly(2, 4, 2).gcd(poly(3, 3)) == poly(1, 1)
    assert poly(2, 3).gcd(poly(4, 6)) == poly(Fraction(2, 3), 1)
    # halving one side sends the gcd down the Euclidean route over Fraction
    rng = random.Random(2718)
    for _ in range(200):
        common = poly(*(rng.randint(-4, 4) for _ in range(rng.randint(0, 3))), rng.randint(1, 3))
        a, b = (common * poly(*(rng.randint(-4, 4) for _ in range(rng.randint(1, 4))))
                for _ in range(2))
        if a.is_zero or b.is_zero:
            continue
        assert a.gcd(b) == (a * Fraction(1, 2)).gcd(b), (a, b)


def test_eval_matrix_on_companion_block():
    from quiverlab.ratmat import RatMatrix

    p = poly(1, -7, 1)
    m = companion_matrix(p)
    assert eval_matrix(p, m) == RatMatrix.zeros(2, 2)
