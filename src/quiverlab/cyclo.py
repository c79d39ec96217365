"""Characteristic/minimal polynomials and cyclotomicity profiles.

A matrix is called cyclotomic here when its characteristic polynomial is a
product of cyclotomic polynomials; all eigenvalues are then roots of unity
and powers of the matrix are unipotent up to a bounded nilpotency degree.
Both polynomials come from one walk of Krylov blocks on a TrackedEchelon,
without division for integral matrices: the characteristic polynomial is
the product of the blocks' polynomials, the minimal polynomial the lcm of
their start vectors' local ones.
"""
from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Sequence

from .intpoly import IntPolynomial, cyclotomic_factorization
from .ratmat import RatMatrix, TrackedEchelon
from .record import Record


def _krylov_block(span: TrackedEchelon, m: RatMatrix, given: Sequence, offset: int):
    """Insert v, Mv, ... into span under the keys offset, offset + 1, ...

    given holds v and any iterates already computed; M is applied only past
    the last one.  The first relation gives the monic q of least degree
    with q(M) v in the span before v; returns (v, ..., M^(deg q) v), q.
    """
    block = list(given)
    for power in itertools.count():
        if power == len(block):
            block.append(m.apply(block[-1]))
        relation = span.insert({k: x for k, x in enumerate(block[power]) if x}, {offset + power: 1})
        if relation is not None:
            return block[:power + 1], IntPolynomial(
                relation.get(offset + k, 0) for k in range(power + 1))


def krylov_chain(m: RatMatrix, orbit: Sequence) -> tuple[IntPolynomial, TrackedEchelon]:
    """Local minimal polynomial of v under M, with the echelon of its chain.

    orbit holds the exact vectors v, Mv, ..., M^j v for some j >= 0; M is
    applied only past the last one.  The chain inserts M^k v as {k: 1}; the
    first relation that comes back is the monic polynomial of least degree
    that annihilates v.  The echelon's rows span v, Mv, ... up to the power
    before that relation.
    """
    chain = TrackedEchelon()
    return _krylov_block(chain, m, orbit, 0)[1], chain


def _krylov_blocks(m: RatMatrix, orbit: Sequence = ()):
    """Yield (block, q) for a Krylov decomposition of the space under M.

    One echelon grows the span W of the blocks so far.  Each start vector v,
    orbit[0] first and then the unit vectors, that lies outside W opens a
    block v, ..., M^(deg q) v, where q is the monic polynomial of least
    degree with q(M) v in W.  W + block is M-invariant, M is block
    triangular on the Krylov basis, and the q multiply to the
    characteristic polynomial (Keller-Gehrig 1985).
    """
    n = m.rows
    span = TrackedEchelon()
    units = ([[1 if k == s else 0 for k in range(n)]] for s in range(n))
    for given in itertools.chain([orbit] if orbit else [], units):
        offset = len(span.pivots)
        if offset == n:
            return
        block, q = _krylov_block(span, m, given, offset)
        if q.degree:
            yield block, q


def char_poly(m: RatMatrix, orbit: Sequence = ()) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), the product of the
    polynomials of the Krylov blocks; orbit optionally holds v, Mv, ... for
    the first block to reuse."""
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    return math.prod((q for _, q in _krylov_blocks(m, orbit)), start=IntPolynomial.one())


def min_poly(m: RatMatrix) -> IntPolynomial:
    """Minimal polynomial as the lcm of the local ones of the Krylov blocks.

    The blocks' Krylov spaces sum to the whole space, so the lcm of the
    local minimal polynomials of their start vectors annihilates M; it
    divides the characteristic polynomial, so degree n ends the search.
    """
    if not m.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    n = m.rows
    result = IntPolynomial.one()
    for index, (block, q) in enumerate(_krylov_blocks(m)):
        # the first block starts from W = 0, so its q is already local
        result = result.lcm(krylov_chain(m, block)[0] if index else q)
        if result.degree == n:
            break
    return result


def companion_matrix(p: IntPolynomial) -> RatMatrix:
    """Companion matrix of a monic polynomial (characteristic polynomial p)."""
    if p.is_zero or not p.is_monic or p.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coeffs[i]
    return RatMatrix(rows)


class CycloProfile(Record):
    """Cyclotomicity report for a square invertible matrix.

    orders lists (d, multiplicity in the minimal polynomial); witness is the
    minimal pair (n, l) with (M^(2n) - I)^l = 0, checked by exact arithmetic;
    char_poly is the characteristic polynomial the profile was decided from.
    Both polynomials come from the Krylov blocks of the matrix: char_poly
    as their product, the minimal polynomial behind orders as an lcm.
    """

    is_cyclotomic: bool
    orders: tuple[tuple[int, int], ...]
    periodic: bool
    period: int | None
    witness: tuple[int, int] | None
    char_poly: IntPolynomial


def cyclotomic_profile(m: RatMatrix) -> CycloProfile:
    if not m.is_square:
        raise ValueError("cyclotomic profile requires a square matrix")
    cp = char_poly(m)
    if not cp.constant:
        raise ValueError("cyclotomic profile requires an invertible matrix")
    not_cyclotomic = CycloProfile(False, (), False, None, None, cp)
    if cyclotomic_factorization(cp) is None:
        return not_cyclotomic
    orders = cyclotomic_factorization(min_poly(m))
    assert orders is not None
    periodic = all(mult == 1 for _, mult in orders)
    big_l = math.lcm(*(d for d, _ in orders))
    n_wit = big_l // math.gcd(big_l, 2)
    l_wit = max(mult for _, mult in orders)
    # 2 n_wit is L for even L and 2L for odd L, so one power of M serves both
    power_l = m ** big_l
    power = power_l if big_l % 2 == 0 else power_l * power_l
    shifted = power - RatMatrix.identity(m.rows)
    if not (shifted ** l_wit).is_zero():
        raise RuntimeError("witness verification failed; inconsistent exact arithmetic")
    period = big_l if periodic else None
    if periodic and not power_l.is_identity():
        raise RuntimeError("period verification failed; inconsistent exact arithmetic")
    return CycloProfile(True, orders, periodic, period, (n_wit, l_wit), cp)


def _cauchy_bound(p: IntPolynomial) -> Fraction:
    lead = p.leading
    top = max((abs(Fraction(c, lead)) for c in p.coeffs[:-1]), default=Fraction(0))
    return 1 + top


def _largest_real_root(p: IntPolynomial, tol: float) -> float:
    """Largest nonnegative real root found by sign bisection, else 0."""
    if p.leading < 0:
        # the scan below expects p > 0 beyond its largest root
        p = -p
    bound = _cauchy_bound(p)
    # grid scan for a sign change; even-multiplicity roots are left to the
    # power-iteration fallback
    lo = None
    grid = 128
    prev = bound
    for k in range(grid - 1, -1, -1):
        x = bound * k / grid
        if p.evaluate(x) <= 0:
            lo, hi = x, prev
            break
        prev = x
    if lo is None:
        return 0.0
    while float(hi - lo) > tol / 4:
        mid = (lo + hi) / 2
        if p.evaluate(mid) <= 0:
            lo = mid
        else:
            hi = mid
    return float((lo + hi) / 2)


def _power_radius(p: IntPolynomial) -> float:
    """Spectral radius of the companion matrix by normalized squaring."""
    comp = [[float(x) for x in row] for row in companion_matrix(p).entries()]
    log_scale = 0.0
    for _ in range(60):
        norm = max(abs(x) for row in comp for x in row)
        if norm == 0.0:
            return 0.0
        inv = 1.0 / norm
        comp = [[x * inv for x in row] for row in comp]
        log_scale = 2.0 * (log_scale + math.log(norm))
        cols = list(zip(*comp))
        comp = [[sum(map(operator.mul, row, col)) for col in cols] for row in comp]
    norm = max(abs(x) for row in comp for x in row)
    if norm == 0.0:
        return 0.0
    exponent = (log_scale + math.log(norm)) / (2.0 ** 60)
    return math.exp(exponent)


def spectral_radius(m: RatMatrix, tol: float = 1e-6, orbit: Sequence = ()) -> float:
    """Largest eigenvalue modulus, within tol.

    Exactly 1.0 whenever the characteristic polynomial is a product of
    cyclotomic polynomials; otherwise bisection on the real roots of the
    characteristic polynomial with a companion-matrix power fallback for
    dominant complex pairs.  orbit is passed on to char_poly.
    """
    if not m.is_square:
        raise ValueError("spectral radius requires a square matrix")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    p = char_poly(m, orbit)
    # strip zero eigenvalues; they never carry the radius unless all are zero
    coeffs = list(p.coeffs)
    shift = 0
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
        shift += 1
    if not coeffs or len(coeffs) == 1:
        return 0.0
    p = IntPolynomial(coeffs)
    if cyclotomic_factorization(p) is not None:
        return 1.0
    best = max(_largest_real_root(p, tol), _largest_real_root(p.reflect(), tol))
    return max(best, _power_radius(p))
