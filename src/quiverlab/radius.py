"""Certified spectral radius of a polynomial, read off its coefficients.

The largest root modulus of an integer polynomial is enclosed in int
arithmetic: a real root by bisection and Descartes' rule, shown dominant by
Pellet's test after root squaring (Graeffe); no float enters before the
enclosure is converted.  The enclosure's bounds are dyadic Fractions, so
this module, which cyclo.spectral_radius imports only for a characteristic
polynomial that is not cyclotomic, is where the spectral layer loads
`fractions`.
"""
from __future__ import annotations

import math
from fractions import Fraction

from .intpoly import IntPolynomial


def root_radius(p: IntPolynomial) -> float:
    """Largest root modulus of p, p(0) != 0 and deg p >= 1.

    p, cleared of denominators, goes to _modulus_enclosure in ints, and the
    midpoint of an enclosure at most 2^-60 of the radius wide is returned,
    as close as a float can resolve.  The enclosure is taken in one stage,
    of the square-free part with up to _SQUARINGS root squarings, so a
    multiple top root cannot stall Pellet's test.  ArithmeticError when it
    finds no certificate, as for two conjugate pairs on the top circle.
    """
    # a(x) = b(x^step): b's radius is the step-th power of a's
    a = _integral(p)
    step = math.gcd(*(i for i, c in enumerate(a) if c))
    a = a[::step]
    core = IntPolynomial(a)
    enclosure = _modulus_enclosure(_integral(core // core.gcd(core.derivative())))
    if enclosure is None:
        raise ArithmeticError(f"no certified spectral radius for {p}")
    lo, hi = enclosure
    return float((lo + hi) / 2) ** (1 / step)


def _integral(p: IntPolynomial) -> list[int]:
    """p's coefficients times the lcm of their denominators."""
    if p.is_integral:
        return list(p.coeffs)
    scale = math.lcm(*(Fraction(c).denominator for c in p.coeffs))
    return [int(c * scale) for c in p.coeffs]


def _cauchy_bound(p: IntPolynomial) -> Fraction:
    lead = p.leading
    top = max((abs(Fraction(c, lead)) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + top


# The root finder below works on integer coefficient lists, constant term
# first, and on dyadic numbers num / 2^d kept as int pairs.

# an enclosure is refined until it is at most 2^-_PRECISION of its upper end
# wide, well below a float's half ulp, so its midpoint rounds to the float
# nearest the radius but in rare near-ties
_PRECISION = 60
# root squarings tried on the square-free part of the polynomial; T(2,3,q)'s
# radius is set apart after 3 and Lehmer's number, E10's, after 5
_SQUARINGS = 16


def _dyadic(num: int, d: int) -> Fraction:
    return Fraction(num, 1 << d) if d >= 0 else Fraction(num << -d)


def _sign_at(a: list[int], num: int, d: int) -> int:
    """Sign of a(num / 2^d), from Horner's rule on 2^(dn) a(x) in ints."""
    acc = a[-1]
    scale = 1
    for c in reversed(a[:-1]):
        scale <<= d
        acc = acc * num + c * scale
    return (acc > 0) - (acc < 0)


def _variations(b: list[int]) -> int:
    signs = [c > 0 for c in b if c]
    return sum(x != y for x, y in zip(signs, signs[1:]))


def _shifted(a: list[int], num: int, d: int) -> list[int]:
    """Coefficients of 2^(dn) a(y / 2^d + num / 2^d), by Taylor shift in
    ints; they have the signs of a(x + num / 2^d)'s."""
    n = len(a) - 1
    b = [c << (d * (n - i)) for i, c in enumerate(a)]
    for i in range(n):
        for k in range(n - 1, i - 1, -1):
            b[k] += num * b[k + 1]
    return b


def _refine(a: list[int], lo: int, hi: int, d: int) -> tuple[int, int, int]:
    """Bisect a sign change of a on [lo, hi] / 2^d until the bracket is at
    most 2^-_PRECISION of hi wide, or a vanishes at its midpoint."""
    sign_hi = _sign_at(a, hi, d)
    while (hi - lo) << _PRECISION > hi:
        lo, hi, d = 2 * lo, 2 * hi, d + 1
        mid = (lo + hi) >> 1
        sign = _sign_at(a, mid, d)
        if sign == 0:
            return mid, mid, d
        if sign == sign_hi:
            hi = mid
        else:
            lo = mid
    return lo, hi, d


def _roots_above(a: list[int], num: int, d: int):
    """Enclosures of a's real roots above r = num / 2^d, when Descartes'
    rule counts them: [] with no sign variation in a(x + r), the one root
    bisected between r and the Cauchy bound with one, None with more."""
    variations = _variations(_shifted(a, num, d))
    if variations > 1:
        return None
    if not variations:
        return []
    bound = _cauchy_bound(IntPolynomial(a))
    top = (bound.numerator // bound.denominator).bit_length()
    return [_refine(a, num, 1 << (top + d), d)]


def _graeffe(a: list[int]) -> list[int]:
    """Coefficients of a polynomial whose roots are the squares of a's:
    with a(x) = e(x^2) + x o(x^2), it is e(y)^2 - y o(y)^2."""
    out = [0] * len(a)
    for shift, sign, half in ((0, 1, a[0::2]), (1, -1, a[1::2])):
        for i, x in enumerate(half):
            if x:
                out[2 * i + shift] += sign * x * x
                x *= 2 * sign
                for j in range(i + 1, len(half)):
                    out[i + j + shift] += x * half[j]
    return out


def _pellet(a: list[int], m: int, e: int) -> bool:
    """Pellet's test at radius t = 2^e: |a_m| t^m exceeds the sum of the
    other |a_i| t^i, so exactly m roots lie in |z| < t and none on |z| = t."""
    n = len(a) - 1
    if e >= 0:
        terms = [abs(c) << (e * i) for i, c in enumerate(a)]
    else:
        terms = [abs(c) << (-e * (n - i)) for i, c in enumerate(a)]
    return 2 * terms[m] > sum(terms)


def _last_passing(a: list[int], m: int, good: int, bad: int) -> int:
    """The exponent nearest bad at which Pellet's test for m passes, from a
    passing exponent good; the passing radii form an interval, since
    |a_m| t^m minus the other terms has at most two positive roots."""
    if _pellet(a, m, bad):
        return bad
    while abs(bad - good) > 1:
        mid = (good + bad) // 2
        if _pellet(a, m, mid):
            good = mid
        else:
            bad = mid
    return good


def _top_cluster(a: list[int]) -> tuple[int, int | None, int]:
    """(j, e1, e2): the fewest j >= 1 roots of largest modulus that Pellet's
    test sets apart, with the other roots in |z| < 2^e1 and these j in
    |z| > 2^e2 (e1 is None when j is the degree).

    Only a vertex m of the Newton polygon, the upper hull of the points
    (i, log2 |a_i|), can pass the test for m; it is tried at the middle of
    the exponents where its term leads, then widened to a root-free annulus.
    a(0) must be nonzero.
    """
    n = len(a) - 1
    hull: list[tuple[int, float]] = []
    for i, c in enumerate(a):
        if c:
            point = (i, math.log2(abs(c)))
            while len(hull) > 1 and (
                (hull[-1][0] - hull[-2][0]) * (point[1] - hull[-2][1])
                >= (hull[-1][1] - hull[-2][1]) * (point[0] - hull[-2][0])
            ):
                hull.pop()
            hull.append(point)
    for h in range(len(hull) - 2, -1, -1):
        m, b = hull[h]
        right, b_right = hull[h + 1]
        e_hi = (b - b_right) / (right - m)
        if h:
            left, b_left = hull[h - 1]
            e = math.floor(((b_left - b) / (m - left) + e_hi) / 2)
        else:
            # m = 0: below e_hi the hull bounds the other terms by a geometric sum
            e = math.floor(e_hi) - n.bit_length() - 1
        if _pellet(a, m, e):
            e1 = _last_passing(a, m, e, e - 2 * n.bit_length() - 2) if m else None
            return n - m, e1, _last_passing(a, m, e, math.ceil(e_hi) + 1)
    raise AssertionError("Pellet's test fails for m = 0 below the Newton polygon")


def _root_bound(x: Fraction, levels: int, up: bool) -> Fraction:
    """A dyadic bound below x^(1/N), or above it when up, N = 2^levels.

    Nested integer square roots, each on a mantissa of at least 128 bits;
    rounding down (up) at every step keeps the bound on its side.
    """
    e = x.numerator.bit_length() - x.denominator.bit_length() - 128
    scaled = x * _dyadic(1, e)
    m = math.ceil(scaled) if up else math.floor(scaled)
    for _ in range(levels):
        # m 2^e with an even e and a long m, then its square root
        t = max(0, 128 - m.bit_length())
        t += (e - t) % 2
        m, e = m << t, e - t
        root = math.isqrt(m)
        m, e = root + (up and root * root != m), e // 2
    return _dyadic(m, -e)


def _pair_enclosure(g: list[int], k: int, cluster, reals):
    """Bounds on the modulus of the one conjugate pair among the top roots
    of g = a Graeffe iterate k times over, beside the real roots in reals.

    The product of the j top roots is the coefficient ratio
    |g_(n-j) / g_n| up to a factor in [1 - eps, 1 + eps], where eps sums
    C(j, i) C(n - j, i) (2^e1 / 2^e2)^i over the terms with i roots from
    inside the annulus.  The pair's two roots share their modulus, and
    the real roots' moduli are known, so the pair's 2^(k+1)-th power of
    the modulus is that product over the real ones.
    """
    j, e1, e2 = cluster
    n = len(g) - 1
    ratio = _dyadic(1, e2 - e1) if e1 is not None else 0
    eps = sum(math.comb(j, i) * math.comb(n - j, i) * ratio ** i
              for i in range(1, min(j, n - j) + 1))
    if eps >= 1:
        return None
    top = Fraction(abs(g[n - j]), abs(g[n]))
    real_low = math.prod(_dyadic(lo, d) ** (1 << k) for lo, _, d in reals)
    real_high = math.prod(_dyadic(hi, d) ** (1 << k) for _, hi, d in reals)
    return (_root_bound(top / ((1 + eps) * real_high), k + 1, False),
            _root_bound(top / ((1 - eps) * real_low), k + 1, True))


def _reflect(a: list[int]) -> list[int]:
    """a(-x), whose positive roots are the moduli of a's negative ones."""
    return [-c if i % 2 else c for i, c in enumerate(a)]


def _modulus_enclosure(a: list[int]):
    """Bounds (lo, hi) on the largest root modulus of a, a(0) != 0, at most
    2^-_PRECISION of hi apart; None when no certificate is found.

    After k root squarings (Graeffe), k up to _SQUARINGS, Pellet's test
    sets apart the j roots of largest modulus by a root-free annulus, with
    a dyadic r inside it.
    A lone top root is real, as roots off the real line come in conjugate
    pairs: m = n - 1 is the usual certificate (Becker, Sagraloff, Sharma
    and Yap, arXiv:1509.06231).  Descartes' rule counts the real roots
    above r and -r.  When they are all j top roots, the largest is the
    radius; when they are j - 2 and every root above r or below -r is
    counted, the other two are a conjugate pair, and _pair_enclosure
    bounds its modulus.
    """
    sides = (a, _reflect(a))
    g = a
    for k in range(_SQUARINGS + 1):
        if k:
            g = _graeffe(g)
        cluster = _top_cluster(g)
        j, e1, e2 = cluster
        if j > 4 or e1 == e2:
            continue
        r = _root_bound(_dyadic(1, -e2), k, False)
        reals = [_roots_above(side, r.numerator, r.denominator.bit_length() - 1) for side in sides]
        if None in reals:
            continue
        reals = reals[0] + reals[1]
        bounds = [(_dyadic(lo, d), _dyadic(hi, d)) for lo, hi, d in reals]
        if j == len(reals) + 2:
            pair = _pair_enclosure(g, k, cluster, reals)
            if pair is None:
                continue
            bounds.append(pair)
        elif j != len(reals):
            continue
        lo, hi = max(b[0] for b in bounds), max(b[1] for b in bounds)
        if (hi - lo) * (1 << _PRECISION) <= hi:
            return lo, hi
    return None
