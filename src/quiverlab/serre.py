"""Serre-cyclotomicity classifiers and entropy computations.

Three independent routes to a verdict: the weight-based delta rule for
canonical algebras, read off a CanonicalSpec, the quiver-type rule for
graded path algebras, and an exact necessary condition on the Coxeter
matrix.  Entropy helpers turn a verdict into its predicted entropy line,
read a hereditary kQ's entropy and cogenerator growth off the kinds of Q's
components, and decide any orbit's growth exactly from a local minimal
polynomial (growth_degree, the kind rule's test oracle).  The Coxeter
transformation of a quiver is K0Arithmetic's CoxeterMap, so these routes
run in ints; cyclo and intpoly are imported only by the functions that
need them, `fractions` only for a slope m/n that is not an integer, and
ratmat only by verify_k_shadow.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .echelon import l1_norm, vector
from .quiver import (CoxeterMap, K0Arithmetic, Quiver, classify_components, classify_quiver,
                     has_oriented_cycle)
from .record import Record, read_json

if TYPE_CHECKING:
    from fractions import Fraction

    from .ratmat import RatMatrix

VERDICT_KINDS = (
    "serre-cyclotomic",
    "fractionally-calabi-yau",
    "not-serre-cyclotomic",
    "unknown",
)


class SerreVerdict(Record):
    """Cyclotomicity verdict with the exponents (l, m, n) when known.

    A fractionally Calabi-Yau verdict is the l = 1 case and stores that l;
    the exponents may be absent when a rule certifies existence without
    computing them.
    """

    kind: str
    l: int | None = None
    m: int | None = None
    n: int | None = None
    reason: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in VERDICT_KINDS:
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.l is not None and self.l < 1:
            raise ValueError("the nilpotency exponent l is at least 1")
        if self.n is not None and self.n == 0:
            raise ValueError("the power exponent n is nonzero")
        if self.kind == "fractionally-calabi-yau" and self.l not in (None, 1):
            raise ValueError("fractionally Calabi-Yau means l = 1")

    @staticmethod
    def serre_cyclotomic(l: int, m: int | None, n: int | None, reason: str | None = None) -> "SerreVerdict":
        return SerreVerdict("serre-cyclotomic", l=l, m=m, n=n, reason=reason)

    @staticmethod
    def fractionally_calabi_yau(m: int | None, n: int | None, reason: str | None = None) -> "SerreVerdict":
        return SerreVerdict("fractionally-calabi-yau", l=1, m=m, n=n, reason=reason)

    @staticmethod
    def not_serre_cyclotomic(reason: str) -> "SerreVerdict":
        return SerreVerdict("not-serre-cyclotomic", reason=reason)

    @staticmethod
    def unknown(reason: str) -> "SerreVerdict":
        return SerreVerdict("unknown", reason=reason)

    @property
    def has_exponents(self) -> bool:
        return self.m is not None and self.n is not None


class EntropyLine(Record):
    """Slope of the entropy line t -> (m/n)t plus the polynomial bound l-1;
    the slope is an int when n divides m."""

    slope: int | Fraction
    poly_entropy_bound: int


class CoxeterReport(Record):
    """Outcome of the exact necessary condition on a Coxeter matrix.

    passed is True when the minimal witness fits the bounds, False when the
    matrix is not cyclotomic, and None when the witness lies outside the
    bounds so nothing was verified.
    """

    cyclotomic: bool
    passed: bool | None
    n: int | None
    l: int | None
    note: str


class CanonicalSpec(Record):
    """Weight sequence p_1..p_t with scalars for the arms beyond the second.

    The first two arms carry the implicit normalization; lambdas[i] belongs
    to arm i+3 and must be nonzero, all pairwise distinct.  Bad input
    raises ValueError, a bool included: True is no weight or lambda.
    """

    weights: tuple[int, ...]
    lambdas: tuple[int | Fraction, ...] = ()

    def __post_init__(self) -> None:
        if not isinstance(self.weights, tuple) or not isinstance(self.lambdas, tuple):
            raise ValueError("weights and lambdas must be tuples")
        if len(self.weights) < 2:
            raise ValueError("at least two weights are required")
        if any(not isinstance(p, int) or isinstance(p, bool) or p < 1 for p in self.weights):
            raise ValueError("weights must be positive integers")
        if any(isinstance(x, bool) for x in self.lambdas):
            raise ValueError("lambdas must be rationals")
        try:
            object.__setattr__(self, "lambdas", vector(self.lambdas))
        except (TypeError, ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError("lambdas must be rationals") from exc
        if len(self.lambdas) != len(self.weights) - 2:
            raise ValueError("need exactly one lambda per arm beyond the second")
        if any(x == 0 for x in self.lambdas):
            raise ValueError("lambdas must be nonzero")
        if len(set(self.lambdas)) != len(self.lambdas):
            raise ValueError("lambdas must be pairwise distinct")


def default_lambdas(t: int) -> tuple[int, ...]:
    """The lambdas of a spec of t weights that gives none: 1, 2, ..., t-2."""
    return tuple(range(1, t - 1))


def parse_canonical_spec(document: str) -> CanonicalSpec:
    """The spec of a JSON object {"weights": [...], "lambdas": [...]}; without
    lambdas, the spec takes default_lambdas."""
    data = read_json(document, "canonical spec")
    if not isinstance(data, dict) or "weights" not in data:
        raise ValueError("canonical spec must be a JSON object with a 'weights' list")
    weights, lambdas = data["weights"], data.get("lambdas", [])
    if not isinstance(weights, list) or not isinstance(lambdas, list):
        raise ValueError("canonical spec 'weights' and 'lambdas' must be lists")
    if "lambdas" not in data:
        lambdas = default_lambdas(len(weights))
    return CanonicalSpec(tuple(weights), tuple(lambdas))


def canonical_verdict(spec: CanonicalSpec) -> tuple[int, int, SerreVerdict]:
    """Delta rule for a canonical algebra: (delta, p, verdict).

    p is the lcm of the weights and delta = (t-2)p - sum(p/p_i); negative
    delta gives (2, p, p), zero gives the fractionally Calabi-Yau (p, p)
    pair, positive gives (2, -p, -p).
    """
    weights = spec.weights
    p = math.lcm(*weights)
    t = len(weights)
    delta = (t - 2) * p - sum(p // w for w in weights)
    label = ",".join(str(w) for w in weights)
    if delta < 0:
        verdict = SerreVerdict.serre_cyclotomic(
            2, p, p, reason=f"weights ({label}): delta = {delta} < 0"
        )
    elif delta == 0:
        verdict = SerreVerdict.fractionally_calabi_yau(
            p, p, reason=f"weights ({label}): delta = 0"
        )
    else:
        verdict = SerreVerdict.serre_cyclotomic(
            2, -p, -p, reason=f"weights ({label}): delta = {delta} > 0"
        )
    return delta, p, verdict


def _affine_tree_weights(vertex_count: int, radical: tuple[int, ...]) -> tuple[int, ...]:
    """Canonical weights of an affine tree, recognized from its radical vector.

    The affine trees are D~n on n + 1 vertices, whose radical vector peaks
    at 2, and E~6, E~7 and E~8, where it peaks at 3, 4 and 6.
    """
    top = max(radical)
    if top == 2:
        return (2, 2, vertex_count - 3)
    return {3: (2, 3, 3), 4: (2, 3, 4), 6: (2, 3, 5)}[top]


def _cycle_walk(q: Quiver) -> list[tuple]:
    """Closed walk around a quiver whose underlying graph is a single cycle.

    Returns (arrow, direction) steps with direction +1 when the arrow is
    traversed from source to target.
    """
    incident: dict = {v: [] for v in q.vertices}
    for arrow in q.arrows:
        incident[arrow.source].append((arrow, 1))
        incident[arrow.target].append((arrow, -1))
    walk = []
    used: set[str] = set()
    current = q.vertices[0]
    while True:
        step = next(
            ((a, d) for a, d in incident[current] if a.id not in used), None
        )
        if step is None:
            break
        arrow, direction = step
        used.add(arrow.id)
        walk.append((arrow, direction))
        current = arrow.target if direction == 1 else arrow.source
    if len(walk) != len(q.arrows) or current != q.vertices[0]:
        raise RuntimeError("underlying graph is not a single cycle")
    return walk


def graded_path_verdict(q: Quiver) -> SerreVerdict:
    """Verdict for a graded path algebra read off the quiver type.

    Finite type is fractionally Calabi-Yau outright, affine trees reduce to
    canonical weights, affine cycles need their grading to wind to zero, and
    indefinite type is excluded by spectral growth.
    """
    quiver_type = classify_quiver(q)
    if quiver_type.kind == "finite":
        from .cyclo import cyclotomic_profile

        profile = cyclotomic_profile(CoxeterMap(K0Arithmetic(q)))
        return SerreVerdict.fractionally_calabi_yau(
            None,
            None,
            reason=(
                "finite type is fractionally Calabi-Yau; exponents not computed "
                f"(Coxeter matrix is periodic with period {profile.period})"
            ),
        )
    if quiver_type.kind == "indefinite":
        return SerreVerdict.not_serre_cyclotomic(
            "indefinite type: log rho(Phi) > 0 forces positive entropy"
        )
    edges = len(q.arrows)
    if edges == len(q.vertices) - 1:
        weights = _affine_tree_weights(len(q.vertices), quiver_type.radical_vector)
        p = math.lcm(*weights)
        label = ",".join(str(w) for w in weights)
        return SerreVerdict.serre_cyclotomic(
            2, p, p, reason=f"affine tree with canonical weights ({label})"
        )
    if has_oriented_cycle(q):
        return SerreVerdict.unknown(
            "oriented cycle: the path algebra is infinite-dimensional"
        )
    walk = _cycle_walk(q)
    winding = sum(direction * arrow.degree for arrow, direction in walk)
    forward = sum(1 for _, direction in walk if direction == 1)
    backward = len(walk) - forward
    if winding != 0:
        return SerreVerdict.unknown(
            f"cycle grading winds to {winding}, not 0; no rule applies"
        )
    p = math.lcm(forward, backward)
    return SerreVerdict.serre_cyclotomic(
        2,
        p,
        p,
        reason=(
            f"cycle with {forward} forward and {backward} backward arrows; "
            "grading winds to 0"
        ),
    )


NECESSITY_NOTE = "necessary condition only; passing does not certify cyclotomicity"


def coxeter_necessary_check(phi, l_max: int = 6, n_max: int = 60) -> CoxeterReport:
    """Exact check that some (phi^(2n) - 1)^l vanishes within the bounds.

    phi is a RatMatrix or a CoxeterMap.  The minimal witness pair comes from
    the cyclotomic factor structure and is certified by cyclotomic_profile
    before being reported.
    """
    if l_max < 1 or n_max < 1:
        raise ValueError("witness bounds must be positive")
    from .cyclo import cyclotomic_profile

    profile = cyclotomic_profile(phi)
    if not profile.is_cyclotomic:
        return CoxeterReport(
            cyclotomic=False,
            passed=False,
            n=None,
            l=None,
            note=(
                "characteristic polynomial has a non-cyclotomic factor; "
                "fails the necessary condition"
            ),
        )
    n_wit, l_wit = profile.witness
    if n_wit > n_max or l_wit > l_max:
        return CoxeterReport(
            cyclotomic=True,
            passed=None,
            n=n_wit,
            l=l_wit,
            note=(
                f"minimal witness (n={n_wit}, l={l_wit}) exceeds the bounds "
                f"(n_max={n_max}, l_max={l_max}); nothing verified; " + NECESSITY_NOTE
            ),
        )
    return CoxeterReport(
        cyclotomic=True,
        passed=True,
        n=n_wit,
        l=l_wit,
        note=f"verified (phi^(2*{n_wit}) - 1)^{l_wit} = 0 exactly; " + NECESSITY_NOTE,
    )


def verify_k_shadow(psi: RatMatrix, l: int, m: int, n: int) -> bool:
    """Exact test of ((-1)^m psi^n - 1)^l = 0 for an invertible matrix."""
    if not psi.is_square:
        raise ValueError("matrix must be square")
    if psi.det() == 0:
        raise ValueError("matrix is singular")
    if l < 1:
        raise ValueError("the nilpotency exponent l is at least 1")
    if n == 0:
        raise ValueError("the power exponent n is nonzero")
    from .ratmat import RatMatrix

    power = psi ** n
    if m % 2:
        power = -power
    return ((power - RatMatrix.identity(power.rows)) ** l).is_zero()


def entropy_line(verdict: SerreVerdict) -> EntropyLine:
    """Entropy slope m/n and the polynomial-entropy bound l - 1."""
    if not verdict.has_exponents:
        raise ValueError("verdict carries no exponents (m, n)")
    if verdict.l is None:
        raise ValueError("verdict carries no nilpotency exponent l")
    if verdict.m % verdict.n == 0:
        return EntropyLine(verdict.m // verdict.n, verdict.l - 1)
    from fractions import Fraction

    return EntropyLine(Fraction(verdict.m, verdict.n), verdict.l - 1)


class GrowthEstimate(Record):
    """Growth class of an iterated norm sequence."""

    kind: str
    degree: int | None = None
    _json_drops_none = True

    @staticmethod
    def polynomial(degree: int) -> "GrowthEstimate":
        return GrowthEstimate("polynomial", degree=degree)

    @staticmethod
    def exponential() -> "GrowthEstimate":
        return GrowthEstimate("exponential")


MIN_GROWTH_STEPS = 12


def growth_degree(phi: RatMatrix, v, steps: int = 60) -> GrowthEstimate:
    """Polynomial degree or exponential flag for the growth of |phi^k v|.

    Decided exactly from the local minimal polynomial of v under an integral
    phi, which is monic and integral.  Once x^t is stripped, a product of
    cyclotomic polynomials means polynomial growth of degree (largest
    multiplicity - 1).  Anything else has a root of modulus above 1, by
    Kronecker's theorem, so the growth is exponential.  steps must be at
    least MIN_GROWTH_STEPS; the decision does not depend on it.
    """
    if steps < MIN_GROWTH_STEPS:
        raise ValueError(f"need at least {MIN_GROWTH_STEPS} steps")
    if any(x.denominator != 1 for row in phi.entries() for x in row):
        raise ValueError("growth degree needs an integral matrix")
    from .cyclo import krylov_chain
    from .intpoly import IntPolynomial, cyclotomic_factorization

    local = krylov_chain(phi, [vector(v)])[0]
    t = next(k for k, c in enumerate(local.coeffs) if c)
    orders = cyclotomic_factorization(IntPolynomial(local.coeffs[t:]))
    if orders is None:
        return GrowthEstimate.exponential()
    return GrowthEstimate.polynomial(max((mult for _, mult in orders), default=1) - 1)


def hereditary_entropy(q: Quiver, iterations: int = 60,
                       tol: float = 1e-4) -> tuple[float, list[float]]:
    """(h0, trace) of entropy_and_growth; h0 is exact or certified, so tol
    is only checked to be finite and positive."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    return entropy_and_growth(q, iterations)[:2]


def entropy_and_growth(q: Quiver, iterations: int) -> tuple[float, list[float], GrowthEstimate]:
    """Entropy h0, empirical trace and orbit growth of an acyclic quiver Q.

    The trace entry at k is (1/k) log |Phi^k v|_1 for v the dimension vector
    of the injective cogenerator (the Cartan matrix's column sums), walked
    with K0Arithmetic.forward in ints.  h0 = log rho(Phi), the entropy of
    the Serre functor of D^b(kQ) (Dimitrov, Haiden, Katzarkov, Kontsevich,
    Contemp. Math. 621, 2014), and the growth of |Phi^k v| are read off
    each component's kind, with no Krylov walk:
    - Dynkin: Phi has finite order: h0 = 0.0, polynomial(0).
    - Affine: Phi^p x = x + c d(x) delta with c != 0, and the defect d is
      positive on the preinjective v (Dlab and Ringel, Mem. AMS 173, 1976),
      so rho = 1 and the orbit grows linearly: 0.0, polynomial(1).
    - Wild: rho > 1, and preinjective orbits grow like rho^k (Ringel, Math.
      Ann. 300, 1994): log rho, with rho from cyclo.spectral_radius walked
      from the unit vectors, and exponential().
    Phi of a disconnected Q is block diagonal, so rho is the largest of the
    components' and the worst kind decides.  cyclo, intpoly and radius are
    loaded only for a wild component.
    """
    if iterations < 1:
        raise ValueError("iterations must be positive")
    k0 = K0Arithmetic(q)
    iterate = [sum(k0.paths(k0.unit(j))) for j in range(k0.n)]
    trace = []
    for k in range(1, iterations + 1):
        iterate = k0.forward(iterate)
        trace.append(math.log(l1_norm(iterate)) / k)  # math.log takes an int of any size
    kinds = {found.kind for _, found in classify_components(q)}
    if "indefinite" in kinds:
        from .cyclo import spectral_radius

        return math.log(spectral_radius(CoxeterMap(k0))), trace, GrowthEstimate.exponential()
    return 0.0, trace, GrowthEstimate.polynomial(int("affine" in kinds))
