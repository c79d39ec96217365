"""Univariate polynomials with exact coefficients, plus cyclotomic machinery.

Coefficients are stored constant term first, each in the package's plain
exact form: an int when integral, a Fraction otherwise.  Polynomials on the
cyclotomic decision paths are monic with integer entries, so their products
and divisions run in Python ints; `is_integral` tells the two cases apart.
"""
from __future__ import annotations

import functools
from fractions import Fraction
from typing import Iterable

from .ratmat import plain


class IntPolynomial:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        data = [plain(c) for c in coeffs]
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

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int | Fraction:
        return self.coeffs[-1] if self.coeffs else 0

    @property
    def constant(self) -> int | Fraction:
        return self.coeffs[0] if self.coeffs else 0

    @property
    def is_monic(self) -> bool:
        return self.leading == 1

    @property
    def is_integral(self) -> bool:
        return all(type(c) is int for c in self.coeffs)

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
            out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
            for i, a in enumerate(self.coeffs):
                if a:
                    for j, b in enumerate(other.coeffs):
                        if b:
                            out[i + j] += a * b
            return IntPolynomial(out)
        other = plain(other)
        return IntPolynomial(other * c for c in self.coeffs)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "IntPolynomial":
        if n < 0:
            raise ValueError("polynomial power needs a nonnegative exponent")
        result = IntPolynomial.one()
        for _ in range(n):
            result = result * self
        return result

    def __divmod__(self, other: "IntPolynomial") -> tuple["IntPolynomial", "IntPolynomial"]:
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        remainder = list(self.coeffs)
        dd = other.degree
        # a monic integral divisor keeps an integral dividend in ints
        lead_inv = plain(Fraction(1) / other.leading)
        # each step cancels remainder[i + dd] without writing it back;
        # del below drops those cancelled places
        lower = [(j, c) for j, c in enumerate(other.coeffs[:-1]) if c]
        quotient = [0] * max(len(remainder) - dd, 0)
        for i in range(len(remainder) - dd - 1, -1, -1):
            coeff = remainder[i + dd] * lead_inv
            if coeff:
                quotient[i] = coeff
                for j, c in lower:
                    remainder[i + j] -= coeff * c
        del remainder[dd:]
        return IntPolynomial(quotient), IntPolynomial(remainder)

    def __floordiv__(self, other: "IntPolynomial") -> "IntPolynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "IntPolynomial") -> "IntPolynomial":
        return divmod(self, other)[1]

    def monic(self) -> "IntPolynomial":
        if self.is_zero or self.is_monic:
            return self
        return (Fraction(1) / self.leading) * self

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

    def evaluate(self, x):
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
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


@functools.lru_cache(maxsize=None)
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


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> IntPolynomial:
    """d-th cyclotomic polynomial, by exact division of x^d - 1."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    p = IntPolynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = p // cyclotomic_poly(e)
    return p


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
    # such a product has every root on the unit circle; p(1) < 0 or
    # (-1)^n p(-1) < 0 puts a real root beyond 1 or -1, before any division
    if p.evaluate(1) < 0 or (-1) ** p.degree * p.evaluate(-1) < 0:
        return None
    found: list[tuple[int, int]] = []
    d = 0
    while p.degree > 0:
        d += 1
        degree = p.degree
        # phi(d) >= sqrt(d/2), so phi(d) <= degree forces d <= 2 degree^2
        if d > 2 * degree * degree:
            return None
        if euler_phi(d) > degree:
            continue
        phi_d = cyclotomic_poly(d)
        mult = 0
        while True:
            quotient, remainder = divmod(p, phi_d)
            if not remainder.is_zero:
                break
            p = quotient
            mult += 1
        if mult:
            found.append((d, mult))
    return tuple(found)
