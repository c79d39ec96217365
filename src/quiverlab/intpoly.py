"""Univariate polynomials with exact coefficients, plus cyclotomic machinery.

Coefficients are stored constant term first, each in the package's plain
exact form: an int when integral, a Fraction otherwise.  Polynomials on the
cyclotomic decision paths are monic with integer entries, so their products,
divisions and gcds run in Python ints; `is_integral` tells the two cases
apart, and `fractions` is imported only to divide by a leading coefficient
other than 1 or -1.  The cyclotomic polynomials are never built by
recursion: Phi_d is the product of the binomials (x^e - 1)^mu(d/e) over the
divisors e of d, and each factor is one shift-and-subtract pass on an int
coefficient list, so cyclotomic_factorization tests a candidate Phi_d
without building it.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import TYPE_CHECKING, Iterable

from .echelon import plain

if TYPE_CHECKING:
    from fractions import Fraction


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
        lead_inv = _unit_inverse(other.leading)
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
        return _unit_inverse(self.leading) * self

    def gcd(self, other: "IntPolynomial") -> "IntPolynomial":
        """The monic gcd.  Between integral polynomials it is taken by
        primitive pseudo-remainders in ints; its primitive part then has
        leading coefficient 1 whenever either input is monic (Gauss's
        lemma), so the gcd of monic integral polynomials stays in ints."""
        if self.is_integral and other.is_integral:
            a, b = list(self.coeffs), list(other.coeffs)
            if len(a) < len(b):
                a, b = b, a
            while b:
                a, b = b, _primitive(_pseudo_remainder(a, b))
            return IntPolynomial(_primitive(a)).monic()
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


def _unit_inverse(lead) -> int | Fraction:
    """1 / lead, an int for a unit lead."""
    if lead == 1 or lead == -1:
        return int(lead)
    from fractions import Fraction

    return plain(Fraction(1) / lead)


def _primitive(a: list[int]) -> list[int]:
    """a over its content, with a positive leading coefficient."""
    content = math.gcd(*a)
    if a and a[-1] < 0:
        content = -content
    return a if content == 1 or not a else [c // content for c in a]


def _pseudo_remainder(a: list[int], b: list[int]) -> list[int]:
    """A nonzero multiple of a mod b in ints, len(a) >= len(b): each step
    cancels a's top term by a multiple of b, scaling a by b's lead first
    when the lead does not divide that term."""
    a = list(a)
    db, lead = len(b) - 1, b[-1]
    lower = [(j, c) for j, c in enumerate(b[:-1]) if c]
    for top in range(len(a) - 1, db - 1, -1):
        coeff = a.pop()
        if not coeff:
            continue
        if coeff % lead:
            a = [lead * c for c in a]
        else:
            coeff //= lead
        shift = top - db
        for j, c in lower:
            a[shift + j] -= coeff * c
    while a and not a[-1]:
        a.pop()
    return a


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


def _times_binomial(a: list[int], e: int) -> list[int]:
    """a (x^e - 1): a shifted up by e, minus a."""
    out = [0] * e + a
    for i, c in enumerate(a):
        out[i] -= c
    return out


def _over_binomial(a: list[int], e: int) -> list[int] | None:
    """a / (x^e - 1) when x^e - 1 divides a, else None.

    a mod (x^e - 1) sums each class of exponents mod e, so the division is
    exact when every class sums to 0; the quotient's coefficient at i is
    then minus the sum of a's at i, i - e, i - 2e, ...
    """
    if any(sum(a[r::e]) for r in range(e)):
        return None
    m = len(a) - e
    q = [0] * m
    for r in range(min(e, m)):
        q[r::e] = [-c for c in itertools.accumulate(a[r:m:e])]
    return q


def _prime_factors(d: int) -> tuple[int, ...]:
    primes, p = [], 2
    while p * p <= d:
        if d % p == 0:
            primes.append(p)
            while d % p == 0:
                d //= p
        p += 1
    return (*primes, d) if d > 1 else tuple(primes)


def _binomials(d: int, primes: tuple[int, ...]) -> tuple[list[int], list[int]]:
    """The exponents e of Phi_d = prod (x^e - 1)^mu(d/e): e = d/s for each
    square-free s | d, those with mu(s) = 1 first, then those with -1."""
    up, down = [], []
    for k in range(len(primes) + 1):
        for s in itertools.combinations(primes, k):
            (down if k % 2 else up).append(d // math.prod(s))
    return up, down


def _passes(a: list[int], times: list[int], over: list[int]) -> list[int] | None:
    """a times x^e - 1 for each e in times, then over x^e - 1 for each e in
    over; None as soon as a division is not exact."""
    for e in times:
        a = _times_binomial(a, e)
    for e in over:
        a = _over_binomial(a, e)
        if a is None:
            return None
    return a


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> IntPolynomial:
    """d-th cyclotomic polynomial, from the binomials of _binomials: the
    product of those with mu = 1, divided exactly by those with mu = -1."""
    if d < 1:
        raise ValueError("cyclotomic index must be >= 1")
    up, down = _binomials(d, _prime_factors(d))
    return IntPolynomial(_passes([1], up, down))


def _over_cyclotomic(a: list[int], d: int, primes: tuple[int, ...]) -> list[int] | None:
    """a / Phi_d when Phi_d divides a, else None, in binomial passes: a
    times the binomials of Phi_d with mu = -1 is divided by those with
    mu = 1.  Phi_d divides a exactly when it divides a mod (x^d - 1), which
    is shorter when d is below a's degree, so that is tested first."""
    up, down = _binomials(d, primes)
    if len(a) > d + 1:
        folded = [sum(a[r::d]) for r in range(d)]
        while folded and not folded[-1]:
            folded.pop()
        if folded and _passes(folded, down, up) is None:
            return None
    return _passes(a, down, up)


def _orders(bound: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """(d, phi(d), the primes of d) for every d with phi(d) <= bound, by d.

    phi(prod p^k) = prod p^(k-1) (p - 1), so each such d is built up from
    primes p with p - 1 <= bound, a prime at a time, while phi fits.
    """
    primes = [p for p in range(2, bound + 2)
              if all(p % q for q in range(2, math.isqrt(p) + 1))]
    found = []

    def grow(start: int, d: int, phi: int, factors: tuple[int, ...]) -> None:
        found.append((d, phi, factors))
        for i in range(start, len(primes)):
            p = primes[i]
            step_d, step_phi = d * p, phi * (p - 1)
            if step_phi > bound:
                break
            while step_phi <= bound:
                grow(i + 1, step_d, step_phi, (*factors, p))
                step_d, step_phi = step_d * p, step_phi * p

    grow(0, 1, 1, ())
    return sorted(found)


def cyclotomic_factorization(p: IntPolynomial) -> tuple[tuple[int, int], ...] | None:
    """Factor p as a product of cyclotomic polynomials, or None.

    Returns ((d, multiplicity), ...) sorted by d when p is exactly such a
    product.  Each d whose totient still fits the degree left is tried, as
    often as Phi_d divides, by _over_cyclotomic's binomial passes on int
    coefficient lists; Phi_d itself is never built.
    """
    if p.is_zero or not p.is_monic:
        raise ValueError("cyclotomic factorization expects a monic polynomial")
    if not p.is_integral:
        return None
    # such a product has every root on the unit circle; p(1) < 0 or
    # (-1)^n p(-1) < 0 puts a real root beyond 1 or -1, before any division
    if p.evaluate(1) < 0 or (-1) ** p.degree * p.evaluate(-1) < 0:
        return None
    a = list(p.coeffs)
    found: list[tuple[int, int]] = []
    for d, phi, primes in _orders(p.degree):
        mult = 0
        while phi < len(a):
            quotient = _over_cyclotomic(a, d, primes)
            if quotient is None:
                break
            a, mult = quotient, mult + 1
        if mult:
            found.append((d, mult))
        if len(a) == 1:
            return tuple(found)
    return None
