"""Minimal projective resolutions and Betti-growth complexity estimates.

Modules over a structure-constant algebra are dense rational matrix
representations.  Resolutions need a basis adapted to the radical: the
non-idempotent basis elements span rad(A).  Every builder's algebra, path,
gentle, canonical and their trivial extensions, is written on such a
basis, idempotents plus paths.  jacobson_radical proves it in one pass
over the table, once per algebra, and refuses any other basis with a
ValueError.

Simples that an automorphism of the algebra exchanges have the same trace.
An automorphism sigma that permutes the basis and the idempotents twists
modules: M becomes M with a acting as sigma(a).  Twisting is an exact
autoequivalence that keeps dimensions and carries projectives to
projectives and the simple at v to the simple at sigma(v), so it carries
one minimal resolution to the other with the same Betti trace.
simple_orbits finds such automorphisms: colour refinement on the quiver
prunes the vertex pairs, a greedy search proposes a basis permutation for
each pair left, and a permutation counts only once _is_automorphism
certifies it from the products by the idempotents and the arrows, which
generate the algebra; a failed search leaves vertices apart, which is
always safe.  resolve_simple_modules resolves one simple per orbit, its
representative, and copies its trace to the rest of the orbit.  The
representatives resolve in one loop in the calling process, in vertex
order, so the lowest failing representative raises its own error.

One sparse engine, _FlatResolver, resolves the simples in flat
coordinates copy*dim + basis_index.  A syzygy vector is a unit, one
coordinate with coefficient 1 that travels as a bare int, or a flat tuple
(lead, c_lead, x1, c1, ...) that starts with its largest coordinate, its
lead; a dict of two terms holds three times the memory of that tuple.  A
step's generators are a bare list of such vectors, each at the target
vertex of its lead.  The simple at v starts from rad P_v, its first
kernel, as units; every later kernel comes from kernel_of_cover, which
eliminates only the radical columns of its cover, and every top from
top_generators, which keeps the kernel vectors whose leads are not leads
of rad*K.  Most rows and images have one term, and those skip the
echelon's general reduction.  The step loop drops each input once it is
read, so the old kernel is gone before the next is built unless a kept
step (below) holds it.  The engine's tables depend on the algebra only and
are built once per algebra in a process.  The dense modules,
simple_modules and RepModule, serve the test suite's projective cover,
the oracle the engine is checked against; no resolution reads them.

A step resumes from the step two before.  A trivial extension is
symmetric, so tau is Omega^2 over it (Auslander, Reiten and Smalo, ch.
IV), and a step's generator list often begins with much of the list two
steps before: 19,306 of the 19,899 generators fed to the covers of
T(gentle) over 200 steps.  Cover and top read their lists in order and
are deterministic, so what either returns and holds after a prefix
depends on that prefix alone.  A step that shares its first c generators
starts its cover at copy c, with the earlier kernel's vectors below copy
c and the earlier echelon cut back to the entries those copies made, a
prefix of its insertion order since an entry's maker is its column.  Its
top finds the first kernel vector past those copies by the same search
on leads, pops the earlier span back to the size it had before that
vector, and picks its generators over the whole kernel by the final
leads.  So the result and the state equal a step from scratch.  A step
keeps its cover's and top's state when it is the first of its parity or
shares at least half of the earlier step's generators, and it resumes
only from an earlier step that kept its state; so the step two after one
that falls short runs from scratch, and the chain picks up again at the
next step that shares half.  A step that keeps its state keeps its whole
generator list for the step two after; one that does not keeps the first
half of it and its length, all that the step two after reads.

The trace records, _betti_trace's stop rules and the growth estimates
live in the betti module, whose trivext_traces reads every relation-free
T(kQ) off the Coxeter orbit and calls this engine only for a gentle
presentation with relations.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import chain, islice

# the trace records and stop rules live in betti, which the trivext command
# imports without this engine; these names stay bound here for callers of
# the engine's module
from .betti import (  # noqa: F401
    ResolutionTrace,
    _betti_trace,
    combine_estimates,
    complexity_estimate,
)
from .ratmat import UNTRACKED, RatMatrix, TrackedEchelon, plain
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


def _shared_prefix(a: list, b: list) -> int:
    """The length of the longest common prefix of a and b."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def _lead(vec: int | tuple) -> int:
    """A syzygy vector's lead: a unit's coordinate, a tuple's first entry."""
    return vec if type(vec) is int else vec[0]


class _Step:
    """One syzygy step's cover and top, as the step two after it resumes them.

    gens is the step's generator list, and size its length; once the cover
    has read it, a step that is not logged keeps only its first
    ceil(size/2) generators, which decide whether the step two after
    shares half of them.  copies is the number of leading
    generators it resumes from earlier, the record of the step two before,
    or 0 with earlier None.  minimal_resolution passes the record to
    kernel_of_cover and top_generators.  A logged step also keeps what the
    step two after it resumes from: its cover's kernel and echelon, and its
    top's span, its seen leads, and sizes, the span's size before each
    kernel vector the top reads and once more after the last.
    """

    __slots__ = ("earlier", "copies", "logged", "gens", "size", "kernel", "echelon", "span",
                 "seen", "sizes")

    def __init__(self, earlier: _Step | None, copies: int, logged: bool, gens: list):
        self.earlier, self.copies, self.logged, self.gens = earlier, copies, logged, gens
        self.size = len(gens)
        self.kernel = self.echelon = self.span = self.seen = self.sizes = None


def _next_step(earlier: _Step | None, gens: list) -> _Step:
    """The record of a cover of gens after earlier, the step two before, if
    any.

    The step resumes from the generators it shares with earlier when
    earlier is logged.  It is logged when earlier is None, the first step
    of its parity, or when it shares at least half of earlier's generators.
    """
    if earlier is None:
        return _Step(None, 0, True, gens)
    copies = _shared_prefix(gens, earlier.gens)
    logged = 2 * copies >= earlier.size
    if not (earlier.logged and copies):
        return _Step(None, 0, logged, gens)
    return _Step(earlier, copies, logged, gens)


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
    non-idempotent elements alone.  Each image is summed
    from the table rows of a generator's terms, with no dict of images.
    An image of one term, the common case, is settled without the
    echelon's reduction where the coordinate is free or holds a one-term
    entry, which the cover keeps as (c, column) and the top as UNTRACKED;
    the other cases fall back to TrackedEchelon.insert or add.  The tables
    depend on the algebra only; _setup builds them once per algebra, and
    the state of a step that resumes travels in the _Step record passed to
    kernel_of_cover and top_generators.
    """

    def __init__(self, a: SCAlgebra):
        self.alg = a
        d = a.dim
        self.dim = d
        idem = self.idem = set(a.idempotents)
        pos = {v: p for p, v in enumerate(a.vertices)}
        # the vertex positions of each basis element's source and target
        self.ends = [(pos[b.source], pos[b.target]) for b in a.basis]
        # the vertex of each basis element's target, None at the idempotents
        self.vertex_of = [None if m in idem else t for m, (_, t) in enumerate(self.ends)]
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
        arrows = set(self.arrows)
        self.left = left
        # the arrows leaving each vertex, the only ones that move a vector there
        self.arrows_at = [[] for _ in a.vertices]
        for b in self.arrows:
            self.arrows_at[pos[a.basis[b].source]].append(b)
        # the rows of arrow*b_m: the one-term ones as their (k, c) term, the others
        arrow_rows = [[row for b, row in rows.items() if b in arrows] for rows in left]
        self.arrow_terms = [[r[0] for r in rows if len(r) == 1] for rows in arrow_rows]
        self.arrow_rows = [[r for r in rows if len(r) > 1] for rows in arrow_rows]

    def kernel_of_cover(self, gens, step: _Step | None = None) -> list[int | tuple]:
        """Kernel basis of the cover sending copy i's basis element m to b_m * gen_i.

        The terms (shift, rows, c) of a syzygy vector, one (shift, left[n],
        c) per coordinate c * b_n, are built once, a unit's one term with
        c = 1.  A generator's image under each radical b_m is the first
        term's row of b_m, shifted and scaled, plus the other terms' rows,
        a coefficient that cancels dropped.
        Only these radical columns are eliminated.  The generators are
        independent modulo rad K, where K is the module covered, and every
        radical column b_m * gen lies in rad K, so reducing a relation
        modulo rad K leaves a combination of generators that must vanish:
        no relation uses a generator's column e_v * gen = gen.  The
        relation of a column is the unique one with coefficient 1 on it
        among the earlier independent columns, so leaving the generator
        columns out changes no relation and saves their rows.
        A zero image gives its column as a unit relation, an int; the
        others go into one echelon keyed by leads.  Images at different
        vertices lie in independent summands, so a relation never takes in
        another vertex's images and each one sits at one vertex.  Columns
        come in increasing flat coordinate, so a relation's lead is the
        column whose image produced it.  The relation of a dependent image
        is the RREF kernel vector of its column, of two or more terms, as a
        nonzero image depends on earlier ones only; it is returned as a
        tuple with that column first.
        A one-term image c * e_k at a free coordinate is kept as the
        one-term entry k -> (c, column) in the echelon's pivots, which the
        echelon reads as the row ({k: c}, {column: 1}) that insert() would
        store.  One at a coordinate that holds such an entry, d * e_k from
        column u, is c/d times the image of u, so its relation (column, 1,
        u, -c/d) is written directly; it is the one insert() would return.
        Every other image goes to insert(), which never stores a one-term
        row with a one-term expression here.
        When step resumes, the loop starts at its copy, from the earlier
        kernel and echelon cut back to it; when it is logged, the state is
        left on it (see _Step).
        """
        d = self.dim
        if step is not None and step.copies:
            earlier = step.earlier
            start, echelon = step.copies, earlier.echelon
            bound = start * d
            pivots = echelon.pivots
            # entries are made in increasing column, so the ones copies
            # below start made are a prefix of pivots: pop the rest
            while pivots:
                k, held = pivots.popitem()
                expr = held[1]
                if (expr if type(expr) is int else max(expr)) < bound:
                    pivots[k] = held
                    break
            kernel = earlier.kernel[:bisect_left(earlier.kernel, bound, key=_lead)]
        else:
            start, echelon, kernel = 0, TrackedEchelon(), []
        pivots = echelon.pivots
        left, vertex_of, rad_coords = self.left, self.vertex_of, self.rad_coords
        for copy in range(start, len(gens)):
            gen = gens[copy]
            base = copy * d
            if type(gen) is int:
                n = gen % d
                terms = ((gen - n, left[n], 1),)
            else:
                n = gen[0] % d
                it = iter(gen)
                terms = [(coord - coord % d, left[coord % d], c) for coord, c in zip(it, it)]
            for m in rad_coords[vertex_of[n]]:
                column = base + m
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
                if not image:
                    kernel.append(column)
                    continue
                if len(image) == 1:
                    ((k, c),) = image.items()
                    held = pivots.get(k)
                    if held is None:
                        pivots[k] = (c, column)  # the one-term entry of c*e_k
                        continue
                    plead, u = held
                    if type(plead) is not dict:
                        if plead == 1 and type(c) is int:
                            kernel.append((column, 1, u, -c))
                        else:
                            kernel.append((column, 1, u, plain(Fraction(-c, plead))))
                        continue
                relation = echelon.insert(image, {column: 1})
                if relation is not None:
                    kernel.append(tuple(chain.from_iterable(relation.items())))
        if step is not None and step.logged:
            step.kernel, step.echelon = kernel, echelon
        return kernel

    def top_generators(
        self, kernel: list[int | tuple], syzygy: int, step: _Step | None = None
    ) -> list[int | tuple]:
        """Minimal generators of the span K of kernel vectors.

        kernel must hold syzygy vectors in lead form, units as their int
        coordinate and the others as flat tuples (lead, c_lead, x1, c1,
        ...) that start with their largest coordinate, their lead: each
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
        serves every vertex, and only its leads are read.  A unit's arrow
        images are its arrow rows shifted to its copy; a tuple's image under
        each arrow at its vertex is summed from its terms' rows, as in
        kernel_of_cover.  The echelon keeps a one-term image at a free
        coordinate as UNTRACKED, as add() would, and the reduction of a
        longer image drops such a coordinate; a one-term image at a
        coordinate that holds UNTRACKED is dependent and skipped, and one
        at a longer row goes to add().  The leads of rad*K are the
        keys of the span's pivots.
        When step resumes, the pass starts at the first vector past its
        shared copies, found by bisection on the leads, which increase in
        every kernel of kernel_of_cover, from the earlier span popped back
        to its size before that vector; when it is logged, the state is
        left on it (see _Step).
        """
        if len(kernel) != syzygy:
            raise RuntimeError("syzygy dimension mismatch")
        d = self.dim
        earlier = step.earlier if step is not None else None
        if earlier is not None:
            span, seen, sizes = earlier.span, earlier.seen, earlier.sizes
            bound = step.copies * d
            # the vectors of the shared copies lead the kernel, as earlier's did
            start = bisect_left(kernel, bound, key=_lead)
            while len(span.pivots) > sizes[start]:
                span.pivots.popitem()
            del seen[bound:], sizes[start:]
            step.earlier = None
        else:
            span, start, seen, sizes = TrackedEchelon(), 0, bytearray(), []
        if step is None or not step.logged:
            sizes = None
        pivots = span.pivots
        vertex_of, left, arrows_at = self.vertex_of, self.left, self.arrows_at
        arrow_terms, arrow_rows = self.arrow_terms, self.arrow_rows
        for vec in islice(kernel, start, None):
            if sizes is not None:
                sizes.append(len(pivots))
            unit = type(vec) is int
            lead = vec if unit else vec[0]
            if lead >= len(seen):
                seen.extend(bytes(lead + 1 - len(seen)))
            elif seen[lead]:
                raise RuntimeError("two syzygy relations share a leading coordinate")
            seen[lead] = 1
            m = lead % d
            v = vertex_of[m]
            if v is None:
                raise RuntimeError("resolution step is not minimal")
            if unit:
                base = lead - m
                for k, c in arrow_terms[m]:
                    key = base + k
                    held = pivots.get(key)
                    if held is None:
                        pivots[key] = UNTRACKED  # as add() stores it
                    elif held is not UNTRACKED:
                        span.add({key: c})
                for row in arrow_rows[m]:
                    span.add({base + k: c for k, c in row})
                continue
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
            for b in arrows_at[v]:
                image = None
                for shift, rows, c in terms:
                    row = rows.get(b)
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
                if not image:
                    continue
                if len(image) == 1:
                    (key,) = image
                    held = pivots.get(key)
                    if held is None:
                        pivots[key] = UNTRACKED  # as add() stores it
                        continue
                    if held is UNTRACKED:
                        continue
                span.add(image)
        if sizes is not None:
            sizes.append(len(pivots))
            step.span, step.seen, step.sizes = span, seen, sizes
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
    sets the peak memory, never holds the step before's kernel unless a
    logged step holds it (see below).

    Each cover after the first two resumes from the step of its parity two
    before, over their shared generators (the module docstring gives the
    exactness argument and the retention rule): _next_step decides it
    before the step, and its record is passed to kernel_of_cover and
    top_generators, so each step is still one call of each and the engine
    holds only the algebra's tables.  A step that keeps no state is cut to
    the first half of its generator list right after its cover.
    """
    if not 0 <= vertex < len(a.vertices):
        raise ValueError(f"no vertex at position {vertex}")
    engine = _setup(a)
    d, vertex_of, proj_dim = engine.dim, engine.vertex_of, engine.proj_dim
    kernel = engine.rad_coords[vertex]  # the simple's first kernel: rad P_v, as units
    gens = None
    kept: list = [None, None]  # the records of the last two covers, the older first

    def advance(syzygy: int) -> int:
        nonlocal kernel, gens
        step = None
        if kernel is None:
            step = _next_step(kept[0], gens)
            kept[:] = kept[1], step
            kernel, gens = engine.kernel_of_cover(gens, step), None
            if not step.logged:
                step.gens = step.gens[:(step.size + 1) // 2]
        gens, kernel = engine.top_generators(kernel, syzygy, step), None
        return sum(proj_dim[vertex_of[(g if type(g) is int else g[0]) % d]] for g in gens)

    return _betti_trace(proj_dim[vertex], advance, steps, dim_cap)


def simple_orbits(a: SCAlgebra) -> list[int]:
    """For each vertex position, the lowest position that a certified
    automorphism of a carries it to; the simples of one orbit have the same
    trace (see the module docstring).

    The automorphisms sought permute the basis: pi with mult[(pi i, pi j)]
    equal to mult[(i, j)] with each k renamed pi k, for every key.  The
    search is a shortcut, never a premise: colour refinement on the quiver
    (the vertices and the arrows of _setup(a)) prunes the vertex pairs,
    each pair left is tried by one greedy search (_OrbitSearch.pair), and
    only a permutation that _is_automorphism certifies merges orbits, in a
    union-find.  A failed or incomplete search leaves vertices apart, which
    only costs their resolutions.
    """
    engine = _setup(a)
    classes, arrow_colour = _colour_classes(a, engine)
    parent = list(range(len(a.vertices)))

    def find(p: int) -> int:
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    if classes:
        search = _OrbitSearch(a, engine, arrow_colour)
        for members in classes:
            while len(members) > 1:
                u = members[0]
                for v in members[1:]:
                    if find(v) == find(u):
                        continue
                    pi = search.pair(u, v)
                    if pi is None:
                        continue
                    for p, e in enumerate(a.idempotents):
                        ru, rv = find(p), find(search.position[pi[e]])
                        parent[max(ru, rv)] = min(ru, rv)
                members = [v for v in members[1:] if find(v) != find(u)]
    return [find(p) for p in range(len(parent))]


def _colour_classes(a: SCAlgebra, engine: _FlatResolver) -> tuple[list[list[int]], dict]:
    """The classes of two or more vertex positions that colour refinement
    on the quiver leaves together, in order of their lowest member, and
    each arrow's final colour.

    The first colours count what every basis automorphism keeps: a
    vertex's basis elements by source and by target, and an arrow's nonzero
    products with a radical element on its left.  Each round signs every
    vertex by its colour and the multiset of (arrow colour, 0 leaving or 1
    entering, colour of the other end) of its arrows, and colours it by its
    signature, until a round splits no class.
    """
    n = len(a.vertices)
    into = [0] * n  # the basis elements by target
    for _, t in engine.ends:
        into[t] += 1
    first: dict = {}
    colour = [first.setdefault(c, len(first)) for c in zip(engine.proj_dim, into)]
    if len(first) == n:
        return [], {}
    ends = [engine.ends[b] for b in engine.arrows]
    base = [len(engine.left[b]) for b in engine.arrows]
    # each arrow at a vertex: (its first colour, 0 leaving or 1 entering, its other end)
    near: list[list[tuple]] = [[] for _ in range(n)]
    for b, (s, t) in zip(base, ends):
        near[s].append((b, 0, t))
        near[t].append((b, 1, s))
    count = len(first)
    while True:
        signs: dict = {}
        refined = [
            signs.setdefault((colour[p], *sorted([(b, d, colour[q]) for b, d, q in near[p]])),
                             len(signs))
            for p in range(n)
        ]
        if len(signs) == count:
            break
        colour, count = refined, len(signs)
    classes: dict = {}  # colour -> its members, in increasing order
    for p, c in enumerate(colour):
        classes.setdefault(c, []).append(p)
    arrow_colour = {
        arrow: (b, colour[s], colour[t]) for arrow, b, (s, t) in zip(engine.arrows, base, ends)
    }
    return [m for m in classes.values() if len(m) > 1], arrow_colour


class _OrbitSearch:
    """Greedy search for a basis automorphism that moves one vertex to another.

    pair(u, v) maps e_u to e_v and walks the quiver from u: each unmapped
    arrow at a vertex already mapped goes to the first unmapped arrow of
    its colour whose ends can be mapped to, or already are, the images of
    its own.  Every assignment propagates through the products b * x,
    b an arrow: once both factors are mapped, b*x = c*b_k requires
    pi(b)*pi(x) = c*b_l, which maps k to l, and b*x = 0 requires
    pi(b)*pi(x) = 0.  A choice that contradicts the map is undone from the
    log and the next candidate tried; an arrow with no candidate left fails
    the pair, and so does a walk that leaves a basis element unmapped.  The
    search only proposes: a complete map counts once _is_automorphism
    certifies it.
    """

    def __init__(self, a: SCAlgebra, engine: _FlatResolver, arrow_colour: dict):
        self.alg = a
        self.position = {e: p for p, e in enumerate(a.idempotents)}
        self.ends, self.left, self.arrows_at = engine.ends, engine.left, engine.arrows_at
        self.arrow_colour = arrow_colour
        self.by_colour: dict = {}
        self.touching: list[list[int]] = [[] for _ in a.vertices]
        by_target: list[list[int]] = [[] for _ in a.vertices]
        for m, (_, t) in enumerate(self.ends):
            by_target[t].append(m)
        self.right = {}  # each arrow b: the j with b*b_j nonzero
        for b in engine.arrows:
            self.by_colour.setdefault(arrow_colour[b], []).append(b)
            s, t = self.ends[b]
            self.touching[s].append(b)
            if t != s:
                self.touching[t].append(b)
            self.right[b] = [j for j in by_target[s] if b in self.left[j]]

    def pair(self, u: int, v: int) -> list[int] | None:
        """A certified automorphism that maps vertex u to vertex v, or None."""
        a = self.alg
        idem, position, ends = a.idempotents, self.position, self.ends
        left, arrows_at, right = self.left, self.arrows_at, self.right
        pi: list = [None] * a.dim
        inv: list = [None] * a.dim
        log: list[int] = []  # the elements mapped, in order, for undoing
        pending: list[int] = []  # mapped elements whose products are unread
        reached: list[int] = []  # the vertices mapped, in order

        def assign(x: int, y: int) -> bool:
            if pi[x] is not None:
                return pi[x] == y
            if inv[y] is not None:
                return False
            pi[x], inv[y] = y, x
            log.append(x)
            if x in position:
                reached.append(position[x])
            else:
                pending.append(x)
            return True

        def match(row, image) -> bool:
            """b*x against pi(b)*pi(x), as rows of (k, c) terms or None."""
            if row is None or image is None:
                return row is image
            if len(row) != len(image):
                return False
            if len(row) > 1:
                return True  # left to the certificate
            ((k, c),), ((l, e),) = row, image
            return c == e and assign(k, l)

        def propagate() -> bool:
            while pending:
                x = pending.pop()
                y = pi[x]
                lx, ly = left[x], left[y]
                # the arrows at x's target: the ends of a mapped arrow map
                # with it, so the images are the mapped arrows at y's target
                for b in arrows_at[ends[x][1]]:
                    if pi[b] is not None and not match(lx.get(b), ly.get(pi[b])):
                        return False
                if x in right:  # x an arrow: x * b_j against pi(x) * pi(b_j)
                    mapped = 0
                    for j in right[x]:
                        if pi[j] is not None:
                            mapped += 1
                            if not match(left[j][x], left[pi[j]].get(y)):
                                return False
                    if mapped != sum(inv[j] is not None for j in right.get(y, ())):
                        return False
            return True

        assign(idem[u], idem[v])
        for p in reached:  # grows while it is walked
            for b in self.touching[p]:
                if pi[b] is not None:
                    continue
                for image in self.by_colour[self.arrow_colour[b]]:
                    if inv[image] is not None:
                        continue
                    mark = len(log), len(reached)
                    (s, t), (s2, t2) = ends[b], ends[image]
                    if (assign(idem[s], idem[s2]) and assign(idem[t], idem[t2])
                            and assign(b, image) and propagate()):
                        break
                    for x in log[mark[0]:]:
                        inv[pi[x]] = pi[x] = None
                    del log[mark[0]:], reached[mark[1]:]
                    pending.clear()
                else:
                    return None
        if len(log) != a.dim or not _is_automorphism(a, pi):
            return None
        return pi


def _is_automorphism(a: SCAlgebra, pi: list) -> bool:
    """Whether the basis permutation pi is an automorphism of a.

    The certificate: (1) pi permutes the basis; (2) it maps the
    idempotents onto the idempotents, which permutes the vertices by some
    phi; (3) it moves the ends of every basis element by phi; (4) for each
    arrow b of _setup(a) and each b_j that ends where b starts,
    mult[(pi b, pi j)] is mult[(b, j)] with each k renamed pi k, absent
    products included.  No other product is read.

    Why that suffices: in an SCAlgebra, e_v*b_j is b_j when b_j ends at v
    and 0 otherwise, and only composable pairs multiply to nonzero, so (2)
    and (3) make sigma, the linear map that extends pi, keep every product
    by an idempotent on the left and every product of a pair that does not
    compose; (4) keeps the others by an arrow.  So sigma(g*y) =
    sigma(g)*sigma(y) for every idempotent and arrow g.  These generate a:
    jacobson_radical shows that the non-idempotents span a nilpotent ideal,
    and the arrows span it modulo its square.  As a is associative, sigma
    keeps every product.
    """
    engine = _setup(a)
    if sorted(pi) != list(range(a.dim)):
        return False
    position = {e: p for p, e in enumerate(a.idempotents)}
    # phi, with None where pi moves e_v off the idempotents: no end is None
    vertex = [position.get(pi[e]) for e in a.idempotents]
    ends = engine.ends
    if [ends[p] for p in pi] != [(vertex[s], vertex[t]) for s, t in ends]:
        return False
    left, arrows_at = engine.left, engine.arrows_at
    for j, (_, t) in enumerate(ends):
        row, image = left[j], left[pi[j]]
        for b in arrows_at[t]:
            if dict(image.get(pi[b], ())) != {pi[k]: c for k, c in row.get(b, ())}:
                return False
    return True


def resolve_simple_modules(
    a: SCAlgebra, steps: int = 40, dim_cap: int = 100000
) -> list[ResolutionTrace]:
    """Resolution trace of every simple module, in vertex order.

    The radical certificate and the engine are computed once and shared
    by all the resolutions.  Simples in one orbit of
    simple_orbits have the same trace: the orbits come from basis
    permutations that _is_automorphism certifies as automorphisms, and
    twisting by one is an exact autoequivalence that keeps dimensions and
    projectives and carries one simple's minimal resolution to the
    other's.  So only each orbit's lowest vertex, its representative, is
    resolved, one after another in vertex order, and every orbit mate gets
    its trace.  The lowest failing representative is the first to fail,
    so its own error propagates.
    """
    orbits = simple_orbits(a)
    of_rep = {p: minimal_resolution(a, p, steps, dim_cap) for p in sorted(set(orbits))}
    return [of_rep[p] for p in orbits]
