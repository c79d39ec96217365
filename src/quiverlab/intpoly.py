"""Univariate polynomials with exact coefficients, plus cyclotomic machinery.

Coefficients are stored constant term first. They are rational in general;
polynomials on the cyclotomic decision paths are monic with integer entries
and `is_integral` distinguishes the two situations.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

from .ratmat import RatMatrix, as_fraction


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        data = [as_fraction(c) for c in coeffs]
        while data and not data[-1]:
            data.pop()
        self.coeffs = tuple(data)

    @staticmethod
    def zero() -> "IntPolynomial":
        return IntPolynomial(())

    @staticmethod
    def one() -> "IntPolynomial":
        return IntPolynomial((1,))

    @staticmethod
    def x() -> "IntPolynomial":
        return IntPolynomial((0, 1))

    @staticmethod
    def monomial(coeff, power: int) -> "IntPolynomial":
        return IntPolynomial((0,) * power + (coeff,))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> Fraction:
        if self.is_zero:
            return Fraction(0)
        return self.coeffs[-1]

    @property
    def constant(self) -> Fraction:
        return self.coeffs[0] if self.coeffs else Fraction(0)

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    @property
    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, IntPolynomial):
            if self.is_zero or other.is_zero:
                return IntPolynomial.zero()
            out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return IntPolynomial(out)
        return IntPolynomial(as_fraction(other) * c for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        result = IntPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        divisor = other.coeffs
        dd = len(divisor) - 1
        lead_inv = 1 / divisor[-1]
        quotient = [Fraction(0)] * max(len(remainder) - dd, 0)
        for i in range(len(remainder) - dd - 1, -1, -1):
            coeff = remainder[i + dd] * lead_inv
            if coeff:
                quotient[i] = coeff
                for j, d in enumerate(divisor):
                    remainder[i + j] -= coeff * d
        return IntPolynomial(quotient), IntPolynomial(remainder)

    def __floordiv__(self, other: "IntPolynomial") -> "IntPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "IntPolynomial") -> "IntPolynomial":
        return divmod(self, other)[1]

    def divides(self, other: "IntPolynomial") -> bool:
        return (other % self).is_zero

    def monic(self) -> "IntPolynomial":
        if self.is_zero or self.is_monic:
            return self
        return (1 / self.leading) * self

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        a, b = self, other
        while not b.is_zero:
            a, b = b, a % b
        return a.monic()

    def lcm(self, other: "IntPolynomial") -> "IntPolynomial":
        if self.is_zero or other.is_zero:
            return IntPolynomial.zero()
        return ((self * other) // self.gcd(other)).monic()

    def derivative(self) -> "IntPolynomial":
        return IntPolynomial(i * c for i, c in enumerate(self.coeffs) if i)

    def reflect(self) -> "IntPolynomial":
        """p(-x)."""
        return IntPolynomial(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def eval_matrix(self, m: RatMatrix) -> RatMatrix:
        if not m.is_square:
            raise ValueError("polynomial evaluation needs a square matrix")
        n = m.rows
        acc = RatMatrix.zeros(n, n)
        for c in reversed(self.coeffs):
            acc = acc * m
            if c:
                acc = acc + RatMatrix.identity(n).scale(c)
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for power in range(self.degree, -1, -1):
            c = self.coeffs[power]
            if not c:
                continue
            sign = "-" if c < 0 else "+"
            mag = -c if c < 0 else c
            if power == 0:
                body = str(mag)
            else:
                xs = "x" if power == 1 else f"x^{power}"
                body = xs if mag == 1 else f"{mag}{xs}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self) -> str:
        return f"IntPolynomial({self})"


def euler_phi(n: int) -> int:
    if n < 1:
        raise ValueError("totient needs n >= 1")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
    return result


def _exact_quotient(num: list[int], den: tuple[int, ...]) -> list[int] | None:
    """num / den in integers for a monic den, or None if it leaves a remainder."""
    dd = len(den) - 1
    rem = list(num)
    quotient = [0] * max(len(rem) - dd, 0)
    for i in range(len(rem) - dd - 1, -1, -1):
        coeff = rem[i + dd]
        if coeff:
            quotient[i] = coeff
            for j in range(dd):
                if den[j]:
                    rem[i + j] -= coeff * den[j]
    if any(rem[:dd]):
        return None
    return quotient


@functools.lru_cache(maxsize=None)
def _cyclotomic_coeffs(d: int) -> tuple[int, ...]:
    """Integer coefficients of Phi_d, by exact division of x^d - 1."""
    numerator = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            numerator = _exact_quotient(numerator, _cyclotomic_coeffs(e))
            assert numerator is not None
    return tuple(numerator)


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> IntPolynomial:
    """d-th cyclotomic polynomial, by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    return IntPolynomial(_cyclotomic_coeffs(d))


def cyclotomic_factorization(p: IntPolynomial) -> tuple[tuple[int, int], ...] | None:
    """Factor p as a product of cyclotomic polynomials, or None.

    Returns ((d, multiplicity), ...) sorted by d when p is exactly such a
    product. Trial-divides by Phi_d for every d whose totient can still fit.
    p is monic and integral and so is every Phi_d, so the division runs in
    Python integers.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("cyclotomic factorization expects a monic polynomial")
    if not p.is_integral:
        return None
    remaining = [int(c) for c in p.coeffs]
    found: list[tuple[int, int]] = []
    d = 0
    while len(remaining) > 1:
        d += 1
        degree = len(remaining) - 1
        # phi(d) >= sqrt(d/2), so phi(d) <= degree forces d <= 2 degree^2
        if d > 2 * degree * degree:
            return None
        if euler_phi(d) > degree:
            continue
        phi_d = _cyclotomic_coeffs(d)
        mult = 0
        while True:
            quotient = _exact_quotient(remaining, phi_d)
            if quotient is None:
                break
            remaining = quotient
            mult += 1
        if mult:
            found.append((d, mult))
    return tuple(found)
