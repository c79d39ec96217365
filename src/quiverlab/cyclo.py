"""Characteristic/minimal polynomials, cyclotomicity profiles and
certified spectral radii of a linear map.

The map is anything with rows, is_square and apply: a RatMatrix, or the
Coxeter map of quiver.K0Arithmetic, applied by its integer passes, which
is what every command on a quiver or a weight sequence hands in.  A map is
called cyclotomic here when its characteristic polynomial is a product of
cyclotomic polynomials; all eigenvalues are then roots of unity and powers
of the map are unipotent up to a bounded nilpotency degree.  Both
polynomials come from one walk of Krylov blocks from the unit vectors on a
TrackedEchelon, without division for integral maps: the characteristic
polynomial is the product of the blocks' polynomials, the minimal
polynomial mu the lcm of their start vectors' local ones.  The profile's
witness and period are certified without a matrix power: mu(M) is applied
to each block's start vector, and the blocks span the space, so
mu(M) = 0; then mu's exact factorization divides the witness polynomial.
The spectral radius is 1 for a cyclotomic characteristic polynomial; any
other goes to radius, the certified root enclosure, loaded only then.
"""
from __future__ import annotations

import functools
import itertools
import math
from typing import Sequence

from .echelon import TrackedEchelon
from .intpoly import IntPolynomial, cyclotomic_factorization
from .record import Record


def _krylov_block(span: TrackedEchelon, m, given: Sequence, offset: int):
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


def krylov_chain(m, orbit: Sequence) -> tuple[IntPolynomial, TrackedEchelon]:
    """Local minimal polynomial of v under M, with the echelon of its chain.

    orbit holds the exact vectors v, Mv, ..., M^j v for some j >= 0; M is
    applied only past the last one.  The chain inserts M^k v as {k: 1}; the
    first relation that comes back is the monic polynomial of least degree
    that annihilates v.  The echelon's rows span v, Mv, ... up to the power
    before that relation.
    """
    chain = TrackedEchelon()
    return _krylov_block(chain, m, orbit, 0)[1], chain


def _krylov_blocks(m):
    """Yield (block, q) for a Krylov decomposition of the space under M.

    One echelon grows the span W of the blocks so far.  Each unit vector v
    that lies outside W opens a block v, ..., M^(deg q) v, where q is the
    monic polynomial of least degree with q(M) v in W.  W + block is
    M-invariant, M is block triangular on the Krylov basis, and the q
    multiply to the characteristic polynomial (Keller-Gehrig 1985).  Before
    each block the echelon drops its expressions, so a relation names the
    block's own vectors alone: q, in ints for an integral map.
    """
    n = m.rows
    span = TrackedEchelon()
    for s in range(n):
        offset = span.rank()
        if offset == n:
            return
        span.untrack()
        block, q = _krylov_block(span, m, [[1 if k == s else 0 for k in range(n)]], offset)
        if q.degree:
            yield block, q


@functools.lru_cache(maxsize=1)
def krylov_walk(m) -> tuple[tuple[tuple, IntPolynomial], ...]:
    """The blocks of _krylov_blocks(m), each an immutable tuple of vectors
    with its polynomial.  The last walk is kept, keyed by the map, so the
    characteristic and minimal polynomials of one map eliminate it once."""
    return tuple((tuple(block), q) for block, q in _krylov_blocks(m))


def char_poly(m) -> IntPolynomial:
    """Monic characteristic polynomial det(xI - M), the product of the
    polynomials of the Krylov blocks."""
    if not m.is_square:
        raise ValueError("characteristic polynomial requires a square matrix")
    return math.prod((q for _, q in krylov_walk(m)), start=IntPolynomial.one())


def min_poly(m) -> IntPolynomial:
    """Minimal polynomial as the lcm of the local ones of the Krylov blocks.

    The blocks' Krylov spaces sum to the whole space, so the lcm of the
    local minimal polynomials of their start vectors annihilates M; it
    divides the characteristic polynomial, so degree n ends the search.
    The blocks are char_poly's walk of M when that was the last one.
    """
    if not m.is_square:
        raise ValueError("minimal polynomial requires a square matrix")
    n = m.rows
    result = IntPolynomial.one()
    for index, (block, q) in enumerate(krylov_walk(m)):
        # the first block starts from W = 0, so its q is already local
        result = result.lcm(krylov_chain(m, block)[0] if index else q)
        if result.degree == n:
            break
    return result


class CycloProfile(Record):
    """Cyclotomicity report for a square invertible map.

    orders lists (d, multiplicity in the minimal polynomial); witness is the
    minimal pair (n, l) with (M^(2n) - I)^l = 0, and period the order L of
    M when M is periodic, both certified by exact arithmetic;
    char_poly is the characteristic polynomial the profile was decided from.
    Both polynomials come from the Krylov blocks of the map: char_poly
    as their product, the minimal polynomial behind orders as an lcm.
    """

    is_cyclotomic: bool
    orders: tuple[tuple[int, int], ...]
    periodic: bool
    period: int | None
    witness: tuple[int, int] | None
    char_poly: IntPolynomial


def _annihilates(m, mu: IntPolynomial, walk) -> bool:
    """mu(M) v = 0 for the start vector v of every Krylov block of the walk.

    The blocks span the space and mu(M) commutes with M, so this is
    mu(M) = 0.  M^k v is read off v's block while it lasts and applied past
    it: at most deg mu products per block, with no matrix power.
    """
    for block, _ in walk:
        iterates = list(block)
        while len(iterates) <= mu.degree:
            iterates.append(m.apply(iterates[-1]))
        total = [0] * m.rows
        for c, vec in zip(mu.coeffs, iterates):
            if c:
                for i, x in enumerate(vec):
                    if x:
                        total[i] += c * x
        if any(total):
            return False
    return True


def cyclotomic_profile(m) -> CycloProfile:
    if not m.is_square:
        raise ValueError("cyclotomic profile requires a square matrix")
    cp = char_poly(m)
    if not cp.constant:
        raise ValueError("cyclotomic profile requires an invertible matrix")
    not_cyclotomic = CycloProfile(False, (), False, None, None, cp)
    if cyclotomic_factorization(cp) is None:
        return not_cyclotomic
    mu = min_poly(m)
    orders = cyclotomic_factorization(mu)
    assert orders is not None
    periodic = all(mult == 1 for _, mult in orders)
    # mu(M) = 0 turns each power identity into the divisibility of a
    # polynomial by mu = prod Phi_d^mult, which holds by the choice of L, n
    # and l: every d divides L, and L divides 2n; no mult exceeds l; and a
    # periodic M has every mult 1, so mu divides x^L - 1
    if not _annihilates(m, mu, krylov_walk(m)):
        claim = "period" if periodic else "witness"
        raise RuntimeError(f"{claim} verification failed; inconsistent exact arithmetic")
    big_l = math.lcm(*(d for d, _ in orders))
    n_wit = big_l // math.gcd(big_l, 2)
    l_wit = max(mult for _, mult in orders)
    period = big_l if periodic else None
    return CycloProfile(True, orders, periodic, period, (n_wit, l_wit), cp)


def spectral_radius(m) -> float:
    """Largest eigenvalue modulus, from a certified enclosure.

    Exactly 1.0 whenever the characteristic polynomial is a product of
    cyclotomic polynomials.  Otherwise the polynomial, cleared of the
    factor x^t, goes to radius.root_radius, imported only then, which
    returns the midpoint of an enclosure at most 2^-60 of the radius wide,
    as close as a float can resolve.  ArithmeticError when it finds no
    certificate, as for two conjugate pairs on the top circle.
    """
    if not m.is_square:
        raise ValueError("spectral radius requires a square matrix")
    p = char_poly(m)
    # strip zero eigenvalues; they never carry the radius unless all are zero
    coeffs = list(p.coeffs)
    while coeffs and not coeffs[0]:
        coeffs.pop(0)
    if len(coeffs) <= 1:
        return 0.0
    p = IntPolynomial(coeffs)
    if cyclotomic_factorization(p) is not None:
        return 1.0
    from .radius import root_radius

    return root_radius(p)
