"""Minimal projective resolutions of simple modules by one sparse syzygy
engine.

Modules over a structure-constant algebra are dense rational matrix
representations.  Resolutions need a basis adapted to the radical: the
non-idempotent basis elements span rad(A).  Every builder's algebra, path,
gentle, canonical and their trivial extensions, is written on such a
basis, idempotents plus paths.  jacobson_radical proves it in one pass
over the table, once per algebra, and refuses any other basis with a
ValueError.

One sparse engine, _FlatResolver, resolves the simples in flat
coordinates copy*dim + basis_index.  A syzygy vector is a unit, one
coordinate with coefficient 1 that travels as a bare int, or a flat tuple
(x0, c0, x1, c1, ...) that starts with its largest coordinate x0, its
lead; a dict of two terms holds three times the memory of that tuple.  A
step's generators are a bare list of such vectors, each at the target
vertex of its lead.  The simple at v starts from rad P_v, its first
kernel, as units; every later kernel comes from kernel_of_cover, which
eliminates only the radical columns of its cover, each nonzero image
through TrackedEchelon.insert, and every top from top_generators, which
keeps the kernel vectors whose leads are not leads of rad*K.  Both read a
vector's images off the tables by one walk, _images.  Each step is one
cover and one top, and hands the next step nothing but its generators or
its kernel; the step loop drops each input once it is read, so the old
kernel is gone before the next is built.  The engine's tables depend on
the algebra only and are built once per algebra in a process.  The dense
modules, simple_modules and RepModule, serve the test suite's projective
cover, the oracle the engine is checked against; no resolution reads
them.

The trace records, _betti_trace's stop rules and the growth estimates
live in the betti module.  No command calls this engine: trivext reads
every relation-free T(kQ) off the Coxeter orbit and every T(gentle) off
string modules (trivext.string_traces).  The engine is the public
resolution of any algebra on an adapted basis, and the oracle the tests
check both routes against.
"""

from __future__ import annotations

from itertools import chain

# the trace records and stop rules live in betti; the two estimates stay
# bound here for the resolution.estimate wrappers of bench/replay.py, which
# patch them on this module
from .betti import (  # noqa: F401
    ResolutionTrace,
    _betti_trace,
    combine_estimates,
    complexity_estimate,
)
from .echelon import TrackedEchelon
from .ratmat import RatMatrix
from .record import Record
from .scalgebra import SCAlgebra


class RepModule(Record):
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


def jacobson_radical(a: SCAlgebra) -> list[int]:
    """Indices of the non-idempotent basis elements, in increasing order,
    proven to span the radical.

    J, their span, is rad(A) when one pass over the table shows:
    (a) e_v*e_w = delta_vw e_v modulo J;
    (b) no product with a factor in J has an idempotent term, so J is a
        two-sided ideal and A/J is k^n;
    (c) the graph with edges i -> k and j -> k, for each k in b_i*b_j with
        b_i, b_j in J, has no cycle (Kahn's algorithm): a product of L
        elements of J then lies on nodes of depth at least L - 1, so J is
        nilpotent.
    A basis that fails a step is not adapted to the radical; ValueError
    names the step.
    """
    d = a.dim
    idem = set(a.idempotents)
    basis = a.basis
    for e in a.idempotents:
        for f in a.idempotents:
            row = a.mult.get((e, f), {})
            if {k: c for k, c in row.items() if k in idem} != ({e: 1} if e == f else {}):
                raise ValueError(
                    f"radical certificate, step (a): {basis[e].label}*{basis[f].label} is not "
                    f"{basis[e].label if e == f else 0} modulo the non-idempotent basis elements"
                )
    after: list[list[int]] = [[] for _ in range(d)]
    indegree = [0] * d
    for (i, j), row in a.mult.items():
        if i in idem and j in idem:
            continue
        if not idem.isdisjoint(row):
            raise ValueError(
                f"radical certificate, step (b): {basis[i].label}*{basis[j].label} has an "
                "idempotent term, so the non-idempotent basis elements span no ideal"
            )
        if i in idem or j in idem:
            continue
        for k in row:
            after[i].append(k)
            after[j].append(k)
            indegree[k] += 2
    ready = [m for m in range(d) if m not in idem and not indegree[m]]
    for m in ready:  # grows while it is walked: Kahn's algorithm
        for k in after[m]:
            indegree[k] -= 1
            if not indegree[k]:
                ready.append(k)
    if len(ready) != d - len(idem):
        stuck = next(m for m in range(d) if indegree[m])  # on or after a cycle
        raise ValueError(
            "radical certificate, step (c): the products of non-idempotent basis "
            f"elements close a cycle that reaches {basis[stuck].label}, so their span is "
            "not shown nilpotent"
        )
    return [m for m in range(d) if m not in idem]


def simple_modules(a: SCAlgebra) -> list[RepModule]:
    """One-dimensional simple module at each vertex, in vertex order.

    The radical is the span of the non-idempotent basis elements (see
    jacobson_radical), so these act as zero on every simple and e_v acts as
    one on the simple at v alone.
    """
    _setup(a)
    zero, one = RatMatrix([[0]]), RatMatrix([[1]])
    simples = []
    for e in a.idempotents:
        actions = [zero] * a.dim
        actions[e] = one
        simples.append(RepModule(a, 1, tuple(actions)))
    return simples


def _source_coords(a: SCAlgebra) -> list[list[int]]:
    pos = {v: p for p, v in enumerate(a.vertices)}
    out: list[list[int]] = [[] for _ in a.vertices]
    for m, b in enumerate(a.basis):
        out[pos[b.source]].append(m)
    return out


def _images(terms, elements):
    """(m, b_m * vec) for each basis element m in elements, None or {} for 0.

    terms are a syzygy vector's (shift, rows, c), one (shift, left[n], c)
    per coordinate c * b_n, a unit's one term with c = 1.  An image is the
    first contributing term's row of b_m, shifted and scaled, plus the
    other terms' rows, a coefficient that cancels dropped; it is summed
    from the table rows alone, with no dict of images.
    """
    for m in elements:
        image = None
        for shift, rows, c in terms:
            row = rows.get(m)
            if row is None:
                continue
            if image is None:
                image = {}
                for k, coeff in row:
                    image[shift + k] = coeff * c
                continue
            for k, coeff in row:
                key = shift + k
                s = image.get(key, 0) + coeff * c
                if s:
                    image[key] = s
                else:
                    del image[key]
        yield m, image


class _FlatResolver:
    """Sparse syzygy engine over flat coordinates copy*dim + basis_index.

    Valid only when rad(A) is spanned by the non-idempotent basis elements,
    so that minimality and tops reduce to coordinate support checks.  Tops
    apply only the arrows, non-idempotent basis elements that form a basis
    of rad/rad^2: rad is spanned by products of arrows, so rad*M is the sum
    of arrow*M, for every syzygy.  Kernel relations come in the lead form
    that top_generators checks as it reads them, so a syzygy's top costs
    one pass over its kernel: one TrackedEchelon of the arrow images, then
    one lookup of each lead in it.  Syzygy vectors take the forms of the
    module docstring.  Covers are eliminated on their radical columns only
    (see kernel_of_cover), so the tables hold the products by
    non-idempotent elements alone.  Cover and top take a vector's images
    from _images; every nonzero cover image goes to TrackedEchelon.insert,
    and every arrow image of a top to add.  How the echelon stores its rows
    is its own business.  The tables depend on the algebra only; _setup
    builds them once per algebra.
    """

    def __init__(self, a: SCAlgebra):
        self.alg = a
        d = a.dim
        self.dim = d
        idem = self.idem = set(a.idempotents)
        pos = {v: p for p, v in enumerate(a.vertices)}
        # the vertex of each basis element's target, None at the idempotents
        self.vertex_of = [None if m in idem else pos[b.target] for m, b in enumerate(a.basis)]
        src_coords = _source_coords(a)
        self.proj_dim = [len(block) for block in src_coords]
        self.rad_coords = [[m for m in block if m not in idem] for block in src_coords]
        rad2 = TrackedEchelon()
        # left[m] maps each non-idempotent b with b*b_m nonzero to its row
        left: list[dict] = [{} for _ in range(d)]
        for (i, j), row in a.mult.items():
            if i not in idem:
                left[j][i] = tuple(row.items())
                if j not in idem:
                    rad2.add(dict(row))
        self.arrows = [m for m in range(d) if m not in idem and rad2.add({m: 1})]
        self.left = left
        # the arrows leaving each vertex, the only ones that move a vector there
        self.arrows_at = [[] for _ in a.vertices]
        for b in self.arrows:
            self.arrows_at[pos[a.basis[b].source]].append(b)

    def kernel_of_cover(self, gens) -> list[int | tuple]:
        """Kernel basis of the cover sending copy i's basis element m to b_m * gen_i.

        A generator's image under each radical b_m comes from _images.
        Only these radical columns are eliminated.  The generators are
        independent modulo rad K, where K is the module covered, and every
        radical column b_m * gen lies in rad K, so reducing a relation
        modulo rad K leaves a combination of generators that must vanish:
        no relation uses a generator's column e_v * gen = gen.  The
        relation of a column is the unique one with coefficient 1 on it
        among the earlier independent columns, so leaving the generator
        columns out changes no relation and saves their rows.
        A zero image gives its column as a unit relation, an int; the
        others go to insert() on one echelon keyed by leads, each with its
        column as expression.  Images at different vertices lie in
        independent summands, so a relation never takes in another
        vertex's images and each one sits at one vertex.  Columns come in
        increasing flat coordinate, so a relation's lead is the column
        whose image produced it.  The relation of a dependent image is the
        RREF kernel vector of its column, of two or more terms, as a
        nonzero image depends on earlier ones only; it is returned as a
        tuple with that column first.
        """
        d = self.dim
        echelon, kernel = TrackedEchelon(), []
        left, vertex_of, rad_coords = self.left, self.vertex_of, self.rad_coords
        for copy, gen in enumerate(gens):
            base = copy * d
            if type(gen) is int:
                n = gen % d
                terms = ((gen - n, left[n], 1),)
            else:
                n = gen[0] % d
                it = iter(gen)
                terms = [(coord - coord % d, left[coord % d], c) for coord, c in zip(it, it)]
            for m, image in _images(terms, rad_coords[vertex_of[n]]):
                if not image:
                    kernel.append(base + m)
                    continue
                relation = echelon.insert(image, {base + m: 1})
                if relation is not None:
                    kernel.append(tuple(chain.from_iterable(relation.items())))
        return kernel

    def top_generators(self, kernel: list[int | tuple], syzygy: int) -> list[int | tuple]:
        """Minimal generators of the span K of kernel vectors.

        kernel must hold syzygy vectors in lead form, units as their int
        coordinate and the others as flat tuples (x0, c0, x1, c1, ...)
        that start with their largest coordinate x0, their lead: each
        sits at the target vertex of its lead, and no two share a lead.
        One pass reads each vector's lead and vertex once, a unit's lead
        being its coordinate and a tuple's its first entry, and refuses, as
        it reads, a kernel that is not minimal or not in lead form; the
        leads seen are marked in a bytearray indexed by coordinate, grown
        as larger leads come.  rad*K lies in K, so the leads of rad*K are
        leads of kernel vectors; the vectors whose lead is not one of them
        span a complement of rad*K, a minimal set of generators, returned
        as they came, ints and tuples alike; a generator's vertex is the
        target of its lead.
        Arrow images stay vertex-homogeneous, so one echelon keyed by leads
        serves every vertex, and only its leads are read.  A vector's image
        under each arrow at its vertex comes from _images and goes to
        add().  The leads of rad*K are the keys of the span's pivots.
        """
        if len(kernel) != syzygy:
            raise RuntimeError("syzygy dimension mismatch")
        d = self.dim
        span, seen = TrackedEchelon(), bytearray()
        vertex_of, left, arrows_at = self.vertex_of, self.left, self.arrows_at
        for vec in kernel:
            if type(vec) is int:
                vec = (vec, 1)
            lead = vec[0]
            if lead >= len(seen):
                seen.extend(bytes(lead + 1 - len(seen)))
            elif seen[lead]:
                raise RuntimeError("two syzygy relations share a leading coordinate")
            seen[lead] = 1
            v = vertex_of[lead % d]
            if v is None:
                raise RuntimeError("resolution step is not minimal")
            terms = []
            it = iter(vec)
            for coord, c in zip(it, it):
                n = coord % d
                w = vertex_of[n]
                if w != v:
                    if w is None:
                        raise RuntimeError("resolution step is not minimal")
                    raise RuntimeError("syzygy relation spans two vertices")
                if coord > lead:
                    raise RuntimeError("syzygy relation does not lead with its largest coordinate")
                terms.append((coord - n, left[n], c))
            for _, image in _images(terms, arrows_at[v]):
                if image:
                    span.add(image)
        pivots = span.pivots
        gens = [vec for vec in kernel if (vec if type(vec) is int else vec[0]) not in pivots]
        if len(gens) + span.rank() != len(kernel):
            raise RuntimeError("arrow images leave the syzygy")
        return gens


# the engine of the last algebra resolved in the process
_ENGINE: list = [None]


def _setup(a: SCAlgebra) -> _FlatResolver:
    """The engine that resolves the simples over a, once the radical is certified.

    The engine depends on the algebra only, so the one of the last algebra
    set up in the process is kept, and the simples of one algebra share it.
    The certificate is the module global jacobson_radical, looked up at
    call time so that a wrapper installed on the module sees the call; it
    raises for a basis not adapted to the radical.
    """
    engine = _ENGINE[0]
    if engine is None or engine.alg is not a:
        jacobson_radical(a)
        engine = _ENGINE[0] = _FlatResolver(a)
    return engine


def minimal_resolution(
    a: SCAlgebra, vertex: int, steps: int = 40, dim_cap: int = 100000
) -> ResolutionTrace:
    """Betti numbers of a minimal projective resolution of the simple module
    at a.vertices[vertex].

    Stops after `steps` covers, when a syzygy dimension would exceed
    `dim_cap`, or when a syzygy vanishes; the trace records which.
    _betti_trace applies these rules and calls one engine step for each
    syzygy it resolves.  The first kernel is rad P_v, the simple's, read
    off as units from the engine's rad_coords; every later step is one
    kernel_of_cover, and every step one top_generators.  Generators are
    bare syzygy vectors, and each one's projective is read at the target
    vertex of its lead.  Each step drops its input, the generators and
    then the kernel, as soon as it is read, so the deepest step, which
    sets the peak memory, never holds the step before's kernel.
    """
    if not 0 <= vertex < len(a.vertices):
        raise ValueError(f"no vertex at position {vertex}")
    engine = _setup(a)
    d, vertex_of, proj_dim = engine.dim, engine.vertex_of, engine.proj_dim
    kernel = engine.rad_coords[vertex]  # the simple's first kernel: rad P_v, as units
    gens = None

    def advance(syzygy: int) -> int:
        nonlocal kernel, gens
        if kernel is None:
            kernel, gens = engine.kernel_of_cover(gens), None
        gens, kernel = engine.top_generators(kernel, syzygy), None
        return sum(proj_dim[vertex_of[(g if type(g) is int else g[0]) % d]] for g in gens)

    return _betti_trace(proj_dim[vertex], advance, steps, dim_cap)


def resolve_simple_modules(
    a: SCAlgebra, steps: int = 40, dim_cap: int = 100000
) -> list[ResolutionTrace]:
    """Resolution trace of every simple module, in vertex order.

    The radical certificate and the engine are computed once and shared
    by all the resolutions, which run one after another in vertex order in
    the calling process, so the lowest failing simple raises its own error.
    """
    return [minimal_resolution(a, p, steps, dim_cap) for p in range(len(a.vertices))]
