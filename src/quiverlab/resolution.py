"""Minimal projective resolutions and Betti-growth complexity estimates.

Modules over a structure-constant algebra are dense rational matrix
representations.  Resolutions iterate projective covers and exact syzygy
computations, with the Jacobson radical computed once per algebra and
shared by every resolution.

The simples of an algebra resolve on up to all usable cores: w =
min(simples, cores in the process's affinity mask) processes, simple i on
worker i mod w, the caller being worker 0 and the others forked children.
The simples resolve serially when w < 2, when the platform lacks fork or
sched_getaffinity, or when the process runs more than one thread.  Errors
are raised in vertex order: the caller sees the error of the lowest vertex
that failed, as the serial loop would.

One sparse engine tracks syzygies in flat coordinates; it needs a basis
adapted to the radical (rad(A) spanned by the non-idempotent basis
elements), so any other basic algebra is first rewritten on such a basis
together with the module.  The top of each syzygy is found from the images
of the arrows alone, a basis of rad/rad^2 chosen among the basis elements.
Syzygy bases come in lead form: each vector sits at one vertex and has its
own largest coordinate, its lead.  Since rad*K lies in K, the leads of
rad*K are leads of K, and the vectors of K whose leads are not leads of
rad*K generate K minimally.  Every kernel, the first one included, comes
from one lead-keyed TrackedEchelon per step; the first reads the module's
own action on its top generators.
"""

from __future__ import annotations

import builtins
import gc
import marshal
import math
import os
import threading
from dataclasses import dataclass

from .fitting import EXPONENTIAL_SLOPE_THRESHOLD, LOGLOG_RESIDUAL_THRESHOLD, fit_line
from .ratmat import RatMatrix, TrackedEchelon, Vector
from .scalgebra import SCAlgebra

TRUNCATION_REASONS = ("steps-exhausted", "dimension-cap", "resolution-terminated")

MIN_TRACE_LENGTH = 12


@dataclass(frozen=True)
class RepModule:
    """Left module given by one action matrix per algebra basis element."""

    algebra: SCAlgebra
    dim: int
    actions: tuple[RatMatrix, ...]

    def validate(self) -> None:
        """Check the action respects the multiplication table; raise otherwise."""
        a = self.algebra
        if self.dim < 0:
            raise ValueError("module dimension must be nonnegative")
        if self.dim == 0:
            if self.actions:
                raise ValueError("zero module carries no action matrices")
            return
        if len(self.actions) != a.dim:
            raise ValueError("need one action matrix per basis element")
        for m in self.actions:
            if m.rows != self.dim or m.cols != self.dim:
                raise ValueError("action matrix shape does not match module dimension")
        unit = RatMatrix.zeros(self.dim, self.dim)
        for e in a.idempotents:
            unit = unit + self.actions[e]
        if not unit.is_identity():
            raise ValueError("unit does not act as the identity")
        for i in range(a.dim):
            for j in range(a.dim):
                lhs = self.actions[i] * self.actions[j]
                rhs = RatMatrix.zeros(self.dim, self.dim)
                for k, c in a.product(i, j).items():
                    rhs = rhs + self.actions[k].scale(c)
                if lhs != rhs:
                    raise ValueError(
                        f"action violates the multiplication table at pair ({i}, {j})"
                    )

    def dim_vector(self) -> tuple[int, ...]:
        """Dimension of each vertex component, in vertex order."""
        if self.dim == 0:
            return tuple(0 for _ in self.algebra.vertices)
        return tuple(int(self.actions[e].trace()) for e in self.algebra.idempotents)


def zero_module(a: SCAlgebra) -> RepModule:
    return RepModule(a, 0, ())


@dataclass(frozen=True)
class ResolutionTrace:
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


@dataclass(frozen=True)
class ComplexityEstimate:
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


def jacobson_radical(a: SCAlgebra) -> list[Vector]:
    """Basis of the radical via the characteristic-zero trace-form criterion.

    x is radical exactly when trace of left multiplication by b*x vanishes
    for every basis element b.  Gram columns that depend on earlier ones
    return the RREF kernel basis, one vector per free column.  The candidate
    is verified to be a nilpotent two-sided ideal before it is returned.
    """
    d = a.dim
    mult_trace = [0] * d
    for (m, k), row in a.mult.items():
        mult_trace[m] += row.get(k, 0)
    columns: list[dict] = [{} for _ in range(d)]
    for (i, j), prod in a.mult.items():
        value = sum(c * mult_trace[m] for m, c in prod.items())
        if value:
            columns[j][i] = value
    echelon = TrackedEchelon()
    relations = [echelon.insert(column, {j: 1}) for j, column in enumerate(columns)]
    basis = [tuple(r.get(k, 0) for k in range(d)) for r in relations if r is not None]
    _verify_nilpotent_ideal(a, basis)
    return basis


def _verify_nilpotent_ideal(a: SCAlgebra, basis: list[Vector]) -> None:
    """Refuse a candidate basis that is not a nilpotent two-sided ideal.

    Products are formed only where the table can make them nonzero: b_i*x
    needs some l in x with b_i*b_l in the table, and x*y needs some i in x
    and l in y with b_i*b_l there.
    """
    d = a.dim
    sparse = [{k: v for k, v in enumerate(vec) if v} for vec in basis]
    left_of: list[list[int]] = [[] for _ in range(d)]
    right_of: list[list[int]] = [[] for _ in range(d)]
    for i, l in a.mult:
        left_of[l].append(i)
        right_of[i].append(l)
    holders: list[list[int]] = [[] for _ in range(d)]
    for n, x in enumerate(sparse):
        for k in x:
            holders[k].append(n)
    span = TrackedEchelon()
    for x in sparse:
        span.add(dict(x))
    for x in sparse:
        lefts = sorted({i for l in x for i in left_of[l]})
        rights = sorted({i for l in x for i in right_of[l]})
        if any(span.add(a.multiply({i: 1}, x)) for i in lefts) or any(
            span.add(a.multiply(x, {i: 1})) for i in rights
        ):
            raise RuntimeError("radical candidate is not a two-sided ideal")
    power = sparse
    for _ in range(d + 1):
        if not power:
            return
        nxt = TrackedEchelon()
        for x in power:
            partners = {n for i in x for l in right_of[i] for n in holders[l]}
            for n in sorted(partners):
                nxt.add(a.multiply(x, sparse[n]))
        power = nxt.rows()
    raise RuntimeError("radical candidate is not nilpotent")


def simple_modules(a: SCAlgebra, rad=None) -> list[RepModule]:
    """One-dimensional simple module at each vertex, in vertex order.

    Requires the semisimple quotient to be a product of copies of the field;
    the idempotents together with the radical must then form a basis.  A
    radical basis already computed for `a` may be passed as `rad`.
    """
    if rad is None:
        rad = jacobson_radical(a)
    if len(rad) + len(a.idempotents) != a.dim:
        raise ValueError("algebra is not basic")
    columns = [_unit_vector(e, a.dim) for e in a.idempotents]
    columns.extend(rad)
    try:
        change = RatMatrix.from_columns(columns).inverse()
    except ValueError as exc:
        raise ValueError("algebra is not basic") from exc
    simples = []
    for pos in range(len(a.vertices)):
        actions = tuple(RatMatrix([[change[pos, m]]]) for m in range(a.dim))
        simples.append(RepModule(a, 1, actions))
    return simples


def _unit_vector(index: int, length: int) -> list[int]:
    vec = [0] * length
    vec[index] = 1
    return vec


def _sparse(vec) -> dict:
    return {k: c for k, c in enumerate(vec) if c}


def _source_coords(a: SCAlgebra) -> list[list[int]]:
    pos = {v: p for p, v in enumerate(a.vertices)}
    out: list[list[int]] = [[] for _ in a.vertices]
    for m, b in enumerate(a.basis):
        out[pos[b.source]].append(m)
    return out


def _projective_sum(a: SCAlgebra, verts: list) -> RepModule:
    """Direct sum of the projectives generated at the given vertices."""
    by_vertex = _source_coords(a)
    pos = {v: p for p, v in enumerate(a.vertices)}
    blocks = [by_vertex[pos[v]] for v in verts]
    local = [{m: i for i, m in enumerate(block)} for block in blocks]
    offsets = []
    total = 0
    for block in blocks:
        offsets.append(total)
        total += len(block)
    actions = []
    for b in range(a.dim):
        rows = [[0] * total for _ in range(total)]
        for copy, block in enumerate(blocks):
            base = offsets[copy]
            table = local[copy]
            for col, m in enumerate(block):
                prod = a.mult.get((b, m))
                if prod:
                    for k, c in prod.items():
                        rows[base + table[k]][base + col] = c
        actions.append(RatMatrix(rows))
    return RepModule(a, total, tuple(actions))


def _top_lift(a: SCAlgebra, module: RepModule, rad) -> list[tuple]:
    """Vertex-tagged vectors lifting a basis of module / rad*module."""
    covered = TrackedEchelon()
    for r in rad:
        action = None
        for m, c in enumerate(r):
            if c:
                term = module.actions[m].scale(c)
                action = term if action is None else action + term
        if action is not None:
            for col in action.columns():
                covered.add(_sparse(col))
    gens = []
    for p, v in enumerate(a.vertices):
        act = module.actions[a.idempotents[p]]
        for k in range(module.dim):
            col = act.column(k)
            if covered.add(_sparse(col)):
                gens.append((v, col))
    if len(covered.pivots) != module.dim:
        raise RuntimeError("projective cover lifting failed")
    return gens


def _cover_data(a: SCAlgebra, module: RepModule, rad):
    """Cover matrix (one column per basis element of P) and P's summand vertices."""
    gens = _top_lift(a, module, rad)
    verts = [v for v, _ in gens]
    by_vertex = _source_coords(a)
    pos = {v: p for p, v in enumerate(a.vertices)}
    cols = []
    for v, gen in gens:
        for m in by_vertex[pos[v]]:
            cols.append(module.actions[m].apply(gen))
    cover = RatMatrix.from_columns(cols) if cols else RatMatrix([])
    return cover, verts


def _radical_span(a: SCAlgebra, rad, verts: list) -> TrackedEchelon:
    """Span of rad*P inside the flat coordinates of a projective sum."""
    by_vertex = _source_coords(a)
    pos = {v: p for p, v in enumerate(a.vertices)}
    span = TrackedEchelon()
    offset = 0
    for v in verts:
        block = by_vertex[pos[v]]
        for r in rad:
            vec = {offset + i: r[m] for i, m in enumerate(block) if r[m]}
            if vec:
                span.add(vec)
        offset += len(block)
    return span


def projective_cover(a: SCAlgebra, module: RepModule, rad=None):
    """Projective cover (P, surjection matrix) of a module.

    Columns of the surjection are indexed by the basis of P, rows by the
    basis of the module.  The kernel is checked to lie inside rad*P, which
    is what makes the cover minimal.
    """
    if module.algebra is not a:
        raise ValueError("module is defined over a different algebra")
    if module.dim == 0:
        return zero_module(a), RatMatrix([])
    if rad is None:
        rad = jacobson_radical(a)
    matrix, verts = _cover_data(a, module, rad)
    proj = _projective_sum(a, verts)
    kernel = matrix.kernel_basis()
    if len(kernel) != proj.dim - module.dim:
        raise RuntimeError("projective cover is not surjective")
    rad_span = _radical_span(a, rad, verts)
    for vec in kernel:
        if rad_span.add(_sparse(vec)):
            raise RuntimeError("cover kernel escapes the radical")
    return proj, matrix


class _FlatResolver:
    """Sparse syzygy engine over flat coordinates copy*dim + basis_index.

    Valid only when rad(A) is spanned by the non-idempotent basis elements,
    so that minimality and tops reduce to coordinate support checks.  Tops
    apply only the arrows, non-idempotent basis elements that form a basis
    of rad/rad^2: a syzygy K is a submodule and rad is spanned by products
    of arrows, so rad*K is the sum of arrow*K.  Kernel relations keep the
    lead form that check_kernel guards, so a top costs one TrackedEchelon
    of the arrow images and one lookup of each kernel vector's lead in it.
    """

    def __init__(self, a: SCAlgebra):
        self.alg = a
        d = a.dim
        self.dim = d
        pos = {v: p for p, v in enumerate(a.vertices)}
        self.target_pos = [pos[b.target] for b in a.basis]
        self.src_coords = _source_coords(a)
        self.proj_dim = [len(block) for block in self.src_coords]
        idem = self.idem = set(a.idempotents)
        rad2 = TrackedEchelon()
        left: list[list] = [[] for _ in range(d)]
        for (i, j), row in a.mult.items():
            if row:
                left[j].append((i, tuple(row.items())))
                if i not in idem and j not in idem:
                    rad2.add(dict(row))
        self.arrows = [m for m in range(d) if m not in idem and rad2.add({m: 1})]
        arrows = set(self.arrows)
        self.left = left
        self.arrow_left = [[(b, row) for b, row in pairs if b in arrows] for pairs in left]

    def images(self, vec: dict, table: list) -> dict:
        """{b: b*vec} for the elements b of table, in one pass over vec.

        table[m] lists (b, row of b*b_m) for the nonzero products; zero
        images are left out.
        """
        d = self.dim
        out: dict = {}
        for coord, val in vec.items():
            m = coord % d
            base = coord - m
            for b, row in table[m]:
                image = out.get(b)
                if image is None:
                    image = out[b] = {}
                for k, coeff in row:
                    key = base + k
                    s = image.get(key, 0) + coeff * val
                    if s:
                        image[key] = s
                    else:
                        del image[key]
        return {b: image for b, image in out.items() if image}

    def check_kernel(self, kernel: list[dict], syzygy: int) -> None:
        """Refuse a syzygy basis that is not minimal or not in lead form.

        Lead form: each vector sits at the target vertex of its largest
        coordinate, its lead, and no two vectors share a lead.
        """
        if len(kernel) != syzygy:
            raise RuntimeError("syzygy dimension mismatch")
        d = self.dim
        idem = self.idem
        target_pos = self.target_pos
        leads = set()
        for vec in kernel:
            lead = max(vec)
            if lead in leads:
                raise RuntimeError("two syzygy relations share a leading coordinate")
            leads.add(lead)
            v = target_pos[lead % d]
            for coord in vec:
                m = coord % d
                if m in idem:
                    raise RuntimeError("resolution step is not minimal")
                if target_pos[m] != v:
                    raise RuntimeError("syzygy relation spans two vertices")

    def module_images(self, module: RepModule, rad) -> list[tuple[int, dict]]:
        """(vertex position, {m: b_m * gen}) for the top generators of a module.

        The generators lift a basis of module / rad*module; the images are
        sparse vectors in the module's own coordinates.
        """
        pos = {v: p for p, v in enumerate(self.alg.vertices)}
        out = []
        for v, gen in _top_lift(self.alg, module, rad):
            p = pos[v]
            out.append((p, {m: _sparse(module.actions[m].apply(gen)) for m in self.src_coords[p]}))
        return out

    def kernel_of_cover(self, covers) -> list[dict]:
        """Kernel basis of the cover sending copy i's basis element m to b_m * gen_i.

        covers gives, per generator, its vertex position and its images
        {m: b_m * gen}, in flat coordinates after the first step and in the
        module's own coordinates at the first.  Zero images give kernel
        relations directly; the others go into one echelon keyed by leads.
        Images at different vertices lie in independent summands, so a
        relation never takes in another vertex's images and each one sits at
        one vertex.  Inserts run in increasing flat coordinate, so its lead
        is the coordinate whose insert produced it.  The relation of a
        dependent image is the RREF kernel vector of its column.
        """
        echelon = TrackedEchelon()
        kernel: list[dict] = []
        d = self.dim
        for copy, (v, imgs) in enumerate(covers):
            base = copy * d
            for m in self.src_coords[v]:
                image = imgs.get(m)
                if not image:
                    kernel.append({base + m: 1})
                    continue
                relation = echelon.insert(image, {base + m: 1})
                if relation is not None:
                    kernel.append(relation)
        return kernel

    def top_generators(self, kernel: list[dict]) -> list[tuple[int, dict]]:
        """Vertex-tagged minimal generators of the span K of kernel vectors.

        kernel must be in lead form (see check_kernel).  rad*K lies in K,
        so the leads of rad*K are leads of kernel vectors; the vectors whose
        lead is not one of them span a complement of rad*K, a minimal set of
        generators.  Arrow images stay vertex-homogeneous, so one echelon
        keyed by leads serves every vertex.
        """
        span = TrackedEchelon()
        for vec in kernel:
            for image in self.images(vec, self.arrow_left).values():
                span.add(image)
        d = self.dim
        target_pos = self.target_pos
        gens = []
        for vec in kernel:
            lead = max(vec)
            if lead not in span.pivots:
                gens.append((target_pos[lead % d], vec))
        if len(gens) + len(span.pivots) != len(kernel):
            raise RuntimeError("arrow images leave the syzygy")
        return gens


def _radical_is_arrow_span(a: SCAlgebra, rad) -> bool:
    if len(rad) != a.dim - len(a.idempotents):
        return False
    idem = set(a.idempotents)
    return all(not vec[m] for vec in rad for m in idem)


def _rebase_to_radical(a: SCAlgebra, module: RepModule, rad):
    """The algebra, module and radical on the basis b' = b - sum_v S_v(b) e_v.

    S_v(b) is the scalar by which b acts on the simple at vertex v, so every
    non-idempotent b' acts as zero on every simple and lies in the radical.
    Labels, endpoints and idempotents are kept; Betti numbers do not depend
    on the basis.
    """
    idem = set(a.idempotents)
    scalars = [
        (e, [act[0, 0] for act in simple.actions])
        for e, simple in zip(a.idempotents, simple_modules(a, rad))
    ]

    def expand(k: int) -> dict:
        """b'_k on the old basis."""
        out = {k: 1}
        if k not in idem:
            for e, scalar in scalars:
                if scalar[k]:
                    out[e] = -scalar[k]
        return out

    def rewrite(x: dict) -> dict:
        """Old coordinates to new: e_v takes S_v(x), the others are kept."""
        out = {k: c for k, c in x.items() if k not in idem}
        for e, scalar in scalars:
            out[e] = sum(c * scalar[k] for k, c in x.items())
        return out

    basis = [expand(k) for k in range(a.dim)]
    mult = {
        (i, j): rewrite(a.multiply(basis[i], basis[j]))
        for i in range(a.dim)
        for j in range(a.dim)
    }
    rebased = SCAlgebra(a.vertices, a.basis, a.idempotents, mult)
    actions = []
    for x in basis:
        terms = [module.actions[m].scale(c) for m, c in x.items()]
        actions.append(sum(terms[1:], terms[0]))
    rad = [_unit_vector(m, a.dim) for m in range(a.dim) if m not in idem]
    return rebased, RepModule(rebased, module.dim, tuple(actions)), rad


def minimal_resolution(
    a: SCAlgebra, module: RepModule, steps: int = 40, dim_cap: int = 100000, rad=None
) -> ResolutionTrace:
    """Betti numbers of a minimal projective resolution of the module.

    Stops after `steps` covers, when a syzygy dimension would exceed
    `dim_cap`, or when a syzygy vanishes; the trace records which.  A radical
    basis already computed for `a` may be passed as `rad`.
    """
    if module.algebra is not a:
        raise ValueError("module is defined over a different algebra")
    if steps < 1:
        raise ValueError("steps must be positive")
    if dim_cap < 1:
        raise ValueError("dimension cap must be positive")
    if module.dim == 0:
        return ResolutionTrace((0,), "resolution-terminated")
    if rad is None:
        rad = jacobson_radical(a)
    if not _radical_is_arrow_span(a, rad):
        a, module, rad = _rebase_to_radical(a, module, rad)
    return _sparse_resolution(a, module, steps, dim_cap, rad)


def _sparse_resolution(a, module, steps, dim_cap, rad) -> ResolutionTrace:
    """Flat-coordinate resolution; the first cover reads the module's actions."""
    engine = _FlatResolver(a)
    covers = engine.module_images(module, rad)
    betti: list[int] = []
    dim = sum(engine.proj_dim[v] for v, _ in covers)
    covered = module.dim
    while True:
        betti.append(dim)
        syzygy = dim - covered
        if syzygy == 0:
            return ResolutionTrace((*betti, 0), "resolution-terminated")
        if len(betti) >= steps:
            return ResolutionTrace(tuple(betti), "steps-exhausted")
        if syzygy > dim_cap:
            return ResolutionTrace(tuple(betti), "dimension-cap")
        kernel = engine.kernel_of_cover(covers)
        engine.check_kernel(kernel, syzygy)
        gens = engine.top_generators(kernel)
        covers = ((v, engine.images(gen, engine.left)) for v, gen in gens)
        dim = sum(engine.proj_dim[v] for v, _ in gens)
        covered = syzygy


def complexity_estimate(trace: ResolutionTrace) -> ComplexityEstimate:
    """Growth class of a Betti trace: degree k means dim P_n = O(n^(k-1)).

    A terminated resolution has degree 0 and a bounded tail degree 1;
    otherwise the trailing half is fitted on log-log axes for a polynomial
    degree and on semilog axes for exponential growth.  A capped trace is
    screened for exponential growth first, since truncation is itself
    evidence the dimensions were exploding.
    """
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


def resolve_simple_modules(
    a: SCAlgebra, steps: int = 40, dim_cap: int = 100000
) -> list[ResolutionTrace]:
    """Resolution trace of every simple module, in vertex order.

    The radical and the simples are computed once, in the calling process,
    and shared by all the resolutions.  These are independent, so they run
    on w = min(simples, usable cores) processes: simple i is resolved by
    worker i mod w, the caller being worker 0 and the others forked
    children that it reaps before returning.  The call runs serially when
    w < 2, when the platform lacks os.fork or os.sched_getaffinity, or when
    the process runs more than one thread.  Either way the traces are the
    same, and a failure raises the error of the lowest vertex that failed,
    the one the serial loop meets first.
    """
    rad = jacobson_radical(a)
    simples = simple_modules(a, rad)
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity") and threading.active_count() == 1:
        workers = min(len(simples), len(os.sched_getaffinity(0)))
    if workers < 2:
        shares = [_resolve_share(a, simples, 0, 1, steps, dim_cap, rad)]
    else:
        shares = _resolve_forked(a, simples, workers, steps, dim_cap, rad)
    traces: list = [None] * len(simples)
    failures = []
    for first, (done, error) in enumerate(shares):
        owned = range(first, len(simples), len(shares))
        for i, trace in zip(owned, done):
            traces[i] = trace
        if error is not None:
            failures.append((owned[len(done)], error))
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return traces


def _resolve_share(a, simples, first, stride, steps, dim_cap, rad):
    """Traces of simples first, first + stride, ... up to the first failure,
    and that failure or None."""
    traces = []
    for module in simples[first::stride]:
        try:
            traces.append(minimal_resolution(a, module, steps, dim_cap, rad))
        except Exception as exc:
            return traces, exc
    return traces, None


def _resolve_forked(a, simples, workers, steps, dim_cap, rad) -> list:
    """The share of each worker, worker 0 being this process.

    Each forked worker marshals its share, as (betti, truncated_by) pairs
    and its error's type name and message, over a pipe and leaves by
    os._exit, so it neither flushes inherited buffers nor runs exit hooks.
    gc.freeze keeps the workers' collections from walking, and so copying,
    the inherited heap.  Every worker is reaped, or killed and reaped,
    before the call returns or raises.
    """
    children: list = []  # (pid, read end of its pipe), worker 1 first
    gc.freeze()
    try:
        for first in range(1, workers):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                status = 1
                try:
                    done, error = _resolve_share(a, simples, first, workers, steps, dim_cap, rad)
                    if error is not None:
                        error = (type(error).__name__, str(error))
                    with os.fdopen(write, "wb") as pipe:
                        marshal.dump(([(t.betti, t.truncated_by) for t in done], error), pipe)
                    status = 0
                finally:
                    os._exit(status)
            os.close(write)
            children.append((pid, os.fdopen(read, "rb")))
        shares = [_resolve_share(a, simples, 0, workers, steps, dim_cap, rad)]
        for _, pipe in children:
            try:
                done, error = marshal.loads(pipe.read())
            except (EOFError, ValueError, TypeError):
                done, error = [], ("RuntimeError", "a resolution worker exited without a result")
            error = None if error is None else _worker_error(*error)
            shares.append(([ResolutionTrace(*t) for t in done], error))
        while children:
            pid, pipe = children.pop()
            pipe.close()
            os.waitpid(pid, 0)
    finally:
        if children:  # only after an error: signal stays off every command's start-up
            import signal
        for pid, pipe in children:
            pipe.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        gc.unfreeze()
    return shares


def _worker_error(name: str, message: str) -> Exception:
    """A worker's error as the serial loop raises it, when its type is builtin."""
    kind = getattr(builtins, name, None)
    if isinstance(kind, type) and issubclass(kind, Exception):
        return kind(message)
    return RuntimeError(f"{name}: {message}")


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


def global_complexity_estimate(
    a: SCAlgebra, steps: int = 40, dim_cap: int = 100000
) -> ComplexityEstimate:
    """Worst complexity over the simple modules.

    Finite verdicts combine by taking the largest degree; an inconclusive
    simple makes the whole answer inconclusive and an infinite one wins
    outright.
    """
    traces = resolve_simple_modules(a, steps, dim_cap)
    return combine_estimates(complexity_estimate(trace) for trace in traces)
