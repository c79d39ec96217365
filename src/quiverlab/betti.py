"""Betti traces of the simples over a trivial extension, and their verdicts.

A trace records dim P_0, dim P_1, ... of a simple's minimal projective
resolution and why it stopped; _betti_trace applies the stop rules that
every route shares, so two routes that agree on the dimensions print the
same bytes.  complexity_estimate fits a trace's growth, and
combine_estimates takes the worst of several verdicts.

trivext_traces sends a presentation down one of two routes.  A quiver with
no relations and no oriented cycle, connected or not, takes the Coxeter
orbit of kQ (coxeter_trivext_traces), which classifies each connected
component once, builds no algebra, reads every simple's trace off its
orbit, walked with quiver.K0Arithmetic, and reads every verdict off the
simple's component kind and defect.  No verdict loads serre.  A gentle
presentation with relations runs the resolution module's engine on T(A),
resolve_simple_modules, and fits each trace with complexity_estimate; the
two serve that route alone, and only it imports the engine, the builders
and the trivial extension.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .quiver import K0Arithmetic, Quiver, classify_quiver, has_oriented_cycle
from .record import Record

if TYPE_CHECKING:
    from .builders import GentlePresentation

TRUNCATION_REASONS = ("steps-exhausted", "dimension-cap", "resolution-terminated")

MIN_TRACE_LENGTH = 12


class ResolutionTrace(Record):
    """Projective dimensions along a resolution plus the reason it stopped."""

    betti: tuple[int, ...]
    truncated_by: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "betti", tuple(int(d) for d in self.betti))
        if not self.betti:
            raise ValueError("resolution trace needs at least one entry")
        if any(d < 0 for d in self.betti):
            raise ValueError("projective dimensions are nonnegative")
        if self.truncated_by not in TRUNCATION_REASONS:
            raise ValueError(f"unknown truncation reason: {self.truncated_by!r}")
        if self.truncated_by == "resolution-terminated" and self.betti[-1] != 0:
            raise ValueError("a terminated trace ends with a zero projective")

    def to_json_dict(self) -> dict:
        return {"betti": list(self.betti), "truncated_by": self.truncated_by}


class ComplexityEstimate(Record):
    """Verdict on polynomial Betti growth: finite degree, infinite, or unclear."""

    kind: str
    degree: int | None = None
    reason: str | None = None

    @staticmethod
    def finite(degree: int) -> "ComplexityEstimate":
        return ComplexityEstimate("finite", degree=degree)

    @staticmethod
    def infinite() -> "ComplexityEstimate":
        return ComplexityEstimate("infinite")

    @staticmethod
    def inconclusive(reason: str) -> "ComplexityEstimate":
        return ComplexityEstimate("inconclusive", reason=reason)

    def to_json_dict(self) -> dict:
        out: dict = {"kind": self.kind}
        if self.degree is not None:
            out["degree"] = self.degree
        if self.reason is not None:
            out["reason"] = self.reason
        return out


def _betti_trace(first: int, advance, steps: int, dim_cap: int) -> ResolutionTrace:
    """The trace of a simple's minimal resolution under the stop rules that
    every route shares.

    first is dim P_0, and advance(s) returns the dimension of the next
    projective, the cover of the syzygy of dimension s that the last one
    leaves.  The syzygy of P_n is dim P_n minus the dimension it covers,
    the simple's 1 for P_0.  The trace stops with a zero appended when a
    syzygy vanishes, after `steps` projectives, or when a syzygy would
    exceed `dim_cap`, in that order, so advance is never called for a
    syzygy that is not resolved.
    """
    if steps < 1:
        raise ValueError("steps must be positive")
    if dim_cap < 1:
        raise ValueError("dimension cap must be positive")
    betti: list[int] = []
    dim, covered = first, 1
    while True:
        betti.append(dim)
        syzygy = dim - covered
        if syzygy == 0:
            return ResolutionTrace((*betti, 0), "resolution-terminated")
        if len(betti) >= steps:
            return ResolutionTrace(tuple(betti), "steps-exhausted")
        if syzygy > dim_cap:
            return ResolutionTrace(tuple(betti), "dimension-cap")
        dim, covered = advance(syzygy), syzygy


def complexity_estimate(trace: ResolutionTrace) -> ComplexityEstimate:
    """Growth class of a Betti trace: degree k means dim P_n = O(n^(k-1)).

    A terminated resolution has degree 0 and a bounded tail degree 1;
    otherwise the trailing half is fitted on log-log axes for a polynomial
    degree and on semilog axes for exponential growth.  A capped trace is
    screened for exponential growth first, since truncation is itself
    evidence the dimensions were exploding.
    """
    # loaded only here, so the Coxeter route, which fits nothing, does not compile it
    from .fitting import EXPONENTIAL_SLOPE_THRESHOLD, LOGLOG_RESIDUAL_THRESHOLD, fit_line

    if trace.truncated_by == "resolution-terminated":
        return ComplexityEstimate.finite(0)
    betti = trace.betti
    if len(betti) < MIN_TRACE_LENGTH:
        raise ValueError(
            f"trace too short: need {MIN_TRACE_LENGTH} entries or termination"
        )
    count = max(2, len(betti) // 2)
    start = max(1, len(betti) - count)
    tail = betti[start:]
    if max(tail) <= max(betti[:start]):
        return ComplexityEstimate.finite(1)
    if min(tail) <= 0:
        return ComplexityEstimate.inconclusive("zero dimensions inside a growing tail")
    positions = list(range(start, len(betti)))
    logs = [math.log(d) for d in tail]
    exp_slope, _, _ = fit_line([float(n) for n in positions], logs)
    poly_slope, _, poly_residual = fit_line([math.log(n) for n in positions], logs)
    exploding = exp_slope > EXPONENTIAL_SLOPE_THRESHOLD
    if trace.truncated_by == "dimension-cap" and exploding:
        return ComplexityEstimate.infinite()
    if poly_residual < LOGLOG_RESIDUAL_THRESHOLD:
        # a resolution that does not terminate has complexity at least 1
        return ComplexityEstimate.finite(max(1, round(poly_slope) + 1))
    if exploding:
        return ComplexityEstimate.infinite()
    return ComplexityEstimate.inconclusive(
        "growth fits neither a polynomial nor an exponential shape"
    )


def combine_estimates(estimates) -> ComplexityEstimate:
    """Worst case of several estimates: infinite beats inconclusive beats finite."""
    estimates = list(estimates)
    for verdict in estimates:
        if verdict.kind == "infinite":
            return verdict
    for verdict in estimates:
        if verdict.kind == "inconclusive":
            return verdict
    degree = max((verdict.degree for verdict in estimates), default=0)
    return ComplexityEstimate.finite(degree)


def _orbit_traces(k0: K0Arithmetic, vertices, steps: int,
                  dim_cap: int) -> list[ResolutionTrace]:
    """The formula's trace of each simple in vertices, in their order
    (see coxeter_trivext_traces)."""
    n = k0.n
    cartan = [k0.paths(k0.unit(i)) for i in range(n)]  # column i: dim P_i of kQ
    proj = [sum(cartan[j]) + sum(col[j] for col in cartan) for j in range(n)]
    classes = [k0.unit(j) for j in range(n)]
    levels, signs = [0] * n, [1] * n  # 2k - s_k of each walk's next class, its sign
    dims: list[list[int]] = []  # dims[m][i]: dim P_m of S_i's resolution, once settled

    def settle(m: int) -> list[int]:
        while len(dims) < m + 2:
            dims.append([0] * n)
        for j, c in enumerate(classes):
            level = levels[j]
            while level <= m:
                here, there, p = dims[level], dims[level + 1], proj[j]
                for i, v in enumerate(k0.euler([abs(x) for x in c])):
                    if v > 0:
                        here[i] += p * v
                    elif v < 0:
                        there[i] -= p * v
                c = k0.inverse(c)
                if min(c) >= 0:
                    sign = 1
                elif max(c) <= 0:
                    sign = -1
                else:
                    raise RuntimeError("a Coxeter orbit class is not sign-definite")
                level += 1 + (sign == signs[j])
                signs[j] = sign
            classes[j], levels[j] = c, level
        return dims[m]

    def trace(i: int) -> ResolutionTrace:
        m = 0

        def advance(_syzygy: int) -> int:
            nonlocal m
            m += 1
            return settle(m)[i]

        return _betti_trace(proj[i], advance, steps, dim_cap)

    return [trace(i) for i in vertices]


def coxeter_trivext_traces(
    q: Quiver, steps: int = 40, dim_cap: int = 100000
) -> tuple[list[ResolutionTrace], list[ComplexityEstimate]]:
    """Every simple's trace and complexity estimate over T(kQ), in vertex
    order, for an acyclic quiver Q, connected or not, read off the Coxeter
    orbit in K_0(kQ) of one K0Arithmetic and the kind of each component.

    The theorem.  kQ has finite global dimension, so D^b(kQ) is stmod of
    the repetitive algebra of kQ (Happel, Comment. Math. Helv. 62, 1987),
    and T(kQ) is its orbit algebra under the Nakayama automorphism, whose
    push-down keeps stable Hom as a sum over the orbit (Hughes and
    Waschbusch, Proc. LMS 46, 1983; Gabriel, LNM 903, 1981).  So b_m[j],
    the number of copies of P_j in the m-th term of S_i's minimal
    resolution, is the sum over k of dim Hom_D(S_i, tau^(-k) S_j [m - 2k]).
    kQ is hereditary, so tau^(-k) S_j is M[s_k] for an indecomposable
    module M of class |c_k|, c_k = Phi^(-k) e_j = (-1)^(s_k) dim M, and
    s_k rises by one exactly where the sign of c_k flips, as
    tau^(-1) I_x = P_x[1].  Only Hom, where m = 2k - s_k, and Ext^1, where
    m = 2k - s_k + 1, count.  At most one of Hom(S_i, M) and
    Ext^1(S_i, M) is nonzero (purity, below), and <e_i, dim M> is their
    difference, so they are max(0, <e_i, |c_k|>) and
    max(0, -<e_i, |c_k|>).  T(kQ)'s projective at j is P_j plus the
    injective I_j of kQ, of dimension p_j, the sum of column j and row j
    of C, and dim P_m = sum_j b_m[j] p_j.

    The walk.  2k - s_k rises by 1 or 2 with each k, so each level of each
    walk c_k holds at most one class; the walk of j is read once, level by
    level, as the traces need it, and each class adds p_j times the
    positive entries of E|c_k| to its level and the negative ones to the
    next.  A class that is not sign-definite raises RuntimeError; as kQ
    is hereditary, none is, so the error checks a theorem.  The
    dimensions go through _betti_trace, the engine's stop rules, so the
    bytes the command prints are the engine's.

    Purity, for every simple.  tau^(-k) S_j is, up to shift, an
    exceptional module M, because S_j is, Q having no loops, and
    tau = S[-1] is an autoequivalence of D^b(kQ) (Happel, LMS LN 119,
    1988).  Ext^1(M, M) = 0 makes the orbit of M open in Rep(Q, dim M)
    (Voigt; Gabriel, LNM 488, 1975), so M is the general representation
    of its dimension vector (Kac, Invent. Math. 56, 1980).  Ringel's exact
    sequence (J. Algebra 41, 1976) reads
        0 -> Hom(S_i, M) -> M_i -> sum over the arrows i -> t of M_t
          -> Ext^1(S_i, M) -> 0,
    and its middle map, the maps of the arrows out of i stacked, is
    therefore a general matrix of maximal rank: Q has no loops, so its
    blocks are independent matrices.  So Hom(S_i, M) or Ext^1(S_i, M) is
    0.  The argument runs over the algebraic closure of the rationals,
    and extending the field from the rationals to it changes no dimension
    of Hom or Ext.  So every simple takes the formula, and no algebra is
    built.

    The verdicts, one rule for the simples of each component K:
    - K Dynkin: "finite, degree 1";
    - K affine, with radical vector delta: "finite, degree 2" when the
      defect d(e_i) = delta_i - sum of delta_s over the arrows s -> i is
      nonzero, and "finite, degree 1" when it is 0, that is, when S_i is
      regular;
    - K wild: "infinite".
    T(kQ) is the product of the T(kK), so a simple of K sees K alone.

    Why.  T(kQ) is selfinjective and S_i is not projective, as
    dim P_i >= 2, so its resolution never stops and its complexity is at
    least 1.  dim Hom and dim Ext^1 of the terms above are at least the
    positive and the negative parts of <e_i, c_k> = <Phi^k e_i, e_j>, as
    Phi keeps the Euler form, and at most dim M_i and the sum of dim M_t
    over the arrows i -> t.  The lower bounds, over all j, grow as
    Phi^k e_i does, E being invertible over Z.  So the complexity is 1 +
    the growth degree of Phi^k e_i where the upper bounds grow no faster,
    and infinite where that orbit grows exponentially; no purity is
    needed.
    - Dynkin: Phi has finite order, so both bounds are bounded.  (T(kQ) is
      representation-finite besides: Tachikawa, LNM 832, 1980; Hughes and
      Waschbusch, Proc. LMS 46, 1983.)
    - Affine: 2T is positive semidefinite with radical Z delta, so
      <delta, x> = -<x, delta>, Phi delta = delta, and the defect
      d = <delta, .> is Phi-invariant.  Dlab and Ringel, "Indecomposable
      representations of graphs and algebras", Mem. AMS 173 (1976): there
      are p >= 1 and an integer c != 0 with Phi^p x = x + c d(x) delta for
      every x, and d(dim M) < 0 for M preprojective, > 0 for M
      preinjective and = 0 for M regular.  So every orbit grows at most
      linearly, the upper bounds too, and Phi^k e_i grows linearly exactly
      when d(e_i) != 0.  When d(e_i) = 0, S_i is regular and Phi^k e_i
      is periodic.  A tau^(-1)-orbit of D^b(kQ) stays in a tube, where it
      is periodic, or ends among shifted preprojectives M, where
      Hom(S_i, M) = 0, so the Ext^1 term is its lower bound; every term is
      bounded: complexity 1.  A sink or a source has d(e_i) != 0, as its
      simple is projective or injective.
    - Wild: Phi^k e_i is, up to sign, the dimension vector of tau^k S_i,
      an indecomposable of D^b(kQ), and it grows like rho^k, rho > 1 the
      spectral radius of Phi: for regular modules by de la Pena and
      Takane, "Spectral properties of Coxeter transformations and
      applications", Arch. Math. 55 (1990), and for preprojective and
      preinjective ones by Ringel, "The spectral radius of the Coxeter
      transformations for a generalized Cartan matrix", Math. Ann. 300
      (1994).  So the lower bound grows exponentially: infinite.
    """
    k0 = K0Arithmetic(q)
    n = k0.n
    kinds, delta = [""] * n, [0] * n
    for part in q.components():
        inside = {q.vertices[v] for v in part}
        found = classify_quiver(Quiver(tuple(q.vertices[v] for v in part),
                                       tuple(a for a in q.arrows if a.source in inside)))
        for k, v in enumerate(part):
            kinds[v] = found.kind
            if found.radical_vector:
                delta[v] = found.radical_vector[k]
    defect = list(delta)
    for s, t in k0.arrows:
        defect[t] -= delta[s]
    traces = _orbit_traces(k0, range(n), steps, dim_cap)
    estimates = [ComplexityEstimate.infinite() if kinds[i] == "indefinite"
                 else ComplexityEstimate.finite(1 + (defect[i] != 0)) for i in range(n)]
    return traces, estimates


def trivext_traces(
    presentation: Quiver | GentlePresentation, steps: int = 40, dim_cap: int = 100000
) -> tuple[int, list[ResolutionTrace], list[ComplexityEstimate]]:
    """dim A, and every simple's trace and complexity estimate over T(A), in
    vertex order, for A = kQ of a plain quiver Q or a gentle presentation's.

    A plain Q, or a presentation with no relations on an acyclic Q, takes
    coxeter_trivext_traces, and dim kQ is half the sum of the projectives
    P_0, as T(kQ) is their direct sum; a plain Q with an oriented cycle goes
    there too, and K0Arithmetic refuses it as path_algebra would.  Every
    other presentation is gentle: resolve_simple_modules runs the engine on
    T(A) and complexity_estimate fits each trace, and a trace too short to
    fit is inconclusive, with its reason.  gentle_algebra refuses a cycle
    that no relation breaks, "relations": [] included.
    """
    plain = isinstance(presentation, Quiver)
    quiver = presentation if plain else presentation.quiver
    if plain or not (presentation.relations or has_oriented_cycle(quiver)):
        traces, estimates = coxeter_trivext_traces(quiver, steps, dim_cap)
        return sum(trace.betti[0] for trace in traces) // 2, traces, estimates
    # loaded only here, so a job on the Coxeter route does not compile them
    from .builders import gentle_algebra
    from .resolution import resolve_simple_modules
    from .trivext import trivial_extension

    base = gentle_algebra(presentation)
    traces = resolve_simple_modules(trivial_extension(base), steps, dim_cap)
    estimates = []
    for trace in traces:
        try:
            estimates.append(complexity_estimate(trace))
        except ValueError as exc:  # too short to fit
            estimates.append(ComplexityEstimate.inconclusive(str(exc)))
    return base.dim, traces, estimates
