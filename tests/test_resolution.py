"""Module categories over structure-constant algebras: radicals, simples,
projective covers, minimal resolutions, growth estimates.

Frozen Betti sequences, worked by hand:
- over the A2 path algebra the simple at the source has resolution
  P1 -> P2 -> 0, betti (2, 1, 0);
- over the trivial extension of A2 every simple has constant betti 3;
- over the trivial extension of the Kronecker algebra betti grows by 4
  each step (4, 8, 12, ...);
- over the trivial extension of the 3-arrow Kronecker algebra the first
  twelve betti numbers are five times 1, 3, 8, 21, ... (even-index
  Fibonacci numbers), at which point the syzygy dimension 167761 passes
  the 100000 cap.
"""
import os
import time
from fractions import Fraction

import pytest

from quiverlab import (
    BasisElement,
    ComplexityEstimate,
    RatMatrix,
    RepModule,
    ResolutionTrace,
    SCAlgebra,
    combine_estimates,
    complexity_estimate,
    global_complexity_estimate,
    jacobson_radical,
    minimal_resolution,
    path_algebra,
    projective_cover,
    quiver_from_data,
    simple_modules,
    trivial_extension,
    zero_module,
)
from quiverlab import resolution as res_mod
from quiverlab.ratmat import TrackedEchelon
from conftest import (
    BUILDERS,
    canonical_237,
    count_multiplies,
    dense_trace,
    gentle_two_loop,
    multi_kronecker,
    path_quiver,
    submodule_on_kernel,
)


def point_algebra():
    return path_algebra(quiver_from_data({"vertices": ["v"], "arrows": []}))


# --- radical and simples -------------------------------------------------

def test_radical_dimensions():
    assert len(jacobson_radical(path_algebra(path_quiver(2)))) == 1
    assert len(jacobson_radical(point_algebra())) == 0
    assert len(jacobson_radical(gentle_two_loop())) == 6
    ta = trivial_extension(path_algebra(path_quiver(2)))
    assert len(jacobson_radical(ta)) == 4


def test_radical_vectors_have_no_idempotent_support():
    a = gentle_two_loop()
    idem = set(a.idempotents)
    for vec in jacobson_radical(a):
        assert all(vec[i] == 0 for i in idem)


def test_simple_modules_shape():
    a = path_algebra(path_quiver(3))
    simples = simple_modules(a)
    assert len(simples) == 3
    for i, s in enumerate(simples):
        s.validate()
        assert s.dim == 1
        vec = s.dim_vector()
        assert vec.count(1) == 1 and vec[i] == 1


def test_dim_vector_counts_idempotent_ranks():
    a = path_algebra(path_quiver(2))
    p, _ = projective_cover(a, simple_modules(a)[0])
    assert p.dim_vector() == (1, 1)


# --- projective covers ---------------------------------------------------

def test_projective_cover_of_simples_matches_cartan_columns():
    a = path_algebra(multi_kronecker(2))
    simples = simple_modules(a)
    p1, m1 = projective_cover(a, simples[0])
    assert p1.dim == 3
    assert (m1.rows, m1.cols) == (1, 3)
    p2, m2 = projective_cover(a, simples[1])
    assert p2.dim == 1


def test_projective_cover_surjective():
    a = gentle_two_loop()
    for s in simple_modules(a):
        p, matrix = projective_cover(a, s)
        assert matrix.rank() == s.dim


def test_projective_cover_refuses_a_kernel_outside_the_radical():
    # with an empty radical every basis vector of P is a top generator, so
    # the cover is not minimal and its kernel escapes rad*P = 0
    a = path_algebra(path_quiver(2))
    p, _ = projective_cover(a, simple_modules(a)[0])
    assert p.dim == 2
    with pytest.raises(RuntimeError, match="cover kernel escapes the radical"):
        projective_cover(a, p, rad=[])


def test_zero_module_resolution():
    a = point_algebra()
    trace = minimal_resolution(a, zero_module(a))
    assert trace.betti == (0,)
    assert trace.truncated_by == "resolution-terminated"


# --- resolutions over path algebras (finite global dimension) ------------

def test_resolution_simple_at_source_of_a2():
    a = path_algebra(path_quiver(2))
    s1, s2 = simple_modules(a)
    trace = minimal_resolution(a, s1)
    assert trace.betti == (2, 1, 0)
    assert trace.truncated_by == "resolution-terminated"
    trace = minimal_resolution(a, s2)
    assert trace.betti == (1, 0)


def test_resolution_over_kronecker_path_algebra():
    a = path_algebra(multi_kronecker(2))
    s1, s2 = simple_modules(a)
    assert minimal_resolution(a, s1).betti == (3, 2, 0)
    assert minimal_resolution(a, s2).betti == (1, 0)


def test_path_algebra_global_estimate_is_projective_dimension_zero():
    a = path_algebra(path_quiver(3))
    assert global_complexity_estimate(a) == ComplexityEstimate.finite(0)


# --- resolutions over trivial extensions ---------------------------------

def test_dual_numbers_constant_betti():
    ta = trivial_extension(point_algebra())
    trace = minimal_resolution(ta, simple_modules(ta)[0], steps=15)
    assert trace.betti == (2,) * 15
    assert trace.truncated_by == "steps-exhausted"


def test_trivial_extension_a2_constant_betti(growth_suite):
    _, traces = growth_suite["A2"]
    for trace in traces:
        assert trace.betti == (3,) * 40
        assert trace.truncated_by == "steps-exhausted"
        assert complexity_estimate(trace) == ComplexityEstimate.finite(1)


def test_trivial_extension_a3_constant_betti(growth_suite):
    _, traces = growth_suite["A3"]
    for trace in traces:
        assert trace.betti == (4,) * 40
        assert complexity_estimate(trace) == ComplexityEstimate.finite(1)


def test_trivial_extension_kronecker_linear_betti(growth_suite):
    _, traces = growth_suite["kronecker"]
    for trace in traces:
        assert trace.betti == tuple(4 * (k + 1) for k in range(40))
        assert complexity_estimate(trace) == ComplexityEstimate.finite(2)


def test_trivial_extension_kronecker3_exponential(growth_suite):
    _, traces = growth_suite["kronecker3"]
    expected = (5, 15, 40, 105, 275, 720, 1885, 4935, 12920, 33825, 88555, 231840)
    for trace in traces:
        assert trace.betti == expected
        assert trace.truncated_by == "dimension-cap"
        assert complexity_estimate(trace).kind == "infinite"


def test_dense_and_sparse_engines_agree():
    algebras = [
        trivial_extension(base)
        for base in [
            path_algebra(path_quiver(2)),
            path_algebra(multi_kronecker(2)),
            gentle_two_loop(),
        ]
    ]
    # canonical (2,3,7) has non-monomial relations, so its arrows are not
    # just the length-1 paths
    for base in [path_algebra(path_quiver(3)), canonical_237()]:
        algebras += [base, trivial_extension(base)]
    for a in algebras:
        rad = jacobson_radical(a)
        for s in simple_modules(a, rad):
            assert minimal_resolution(a, s, 8, rad=rad) == dense_trace(a, s, 8, rad)


DISPATCH_CASES = [("A2", True)] + [
    (name, extend)
    for name in ("A3", "kron3", "gentle", "canonical-237")
    for extend in (False, True)
]


@pytest.mark.parametrize(
    "name, extend",
    DISPATCH_CASES,
    ids=[f"{name}-{'trivext' if extend else 'base'}" for name, extend in DISPATCH_CASES],
)
def test_sparse_dispatch_applies_to_extensions(name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    assert res_mod._radical_is_arrow_span(a, jacobson_radical(a))


ARROW_CASES = [(name, extend) for name in BUILDERS for extend in (False, True)]
ARROW_LABELS = {
    ("kron2", True): ["a0", "a1", "a0^*", "a1^*"],
    ("gentle", True): ["b1", "b2", "a", "b1ab2^*"],
}
ARROW_COUNTS = {("canonical-237", False): 12}


@pytest.mark.parametrize(
    "name, extend",
    ARROW_CASES,
    ids=[f"{name}-{'trivext' if extend else 'base'}" for name, extend in ARROW_CASES],
)
def test_arrows_generate_the_radical(name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    arrows = res_mod._FlatResolver(a).arrows
    rad = [{k: c for k, c in enumerate(vec) if c} for vec in jacobson_radical(a)]
    rad2 = TrackedEchelon()
    for x in rad:
        for y in rad:
            rad2.add(a.multiply(x, y))
    assert len(arrows) == len(rad) - len(rad2.pivots)
    # left multiplication by arrows, closed from the arrows, reaches all of rad
    span = TrackedEchelon()
    frontier = [{m: Fraction(1)} for m in arrows]
    for vec in frontier:
        span.add(dict(vec))
    while frontier:
        vec = frontier.pop()
        for m in arrows:
            prod = a.multiply({m: Fraction(1)}, vec)
            if prod and span.add(dict(prod)):
                frontier.append(prod)
    idem = set(a.idempotents)
    for m in range(a.dim):
        if m not in idem:
            assert not span.add({m: Fraction(1)})
    if (name, extend) in ARROW_LABELS:
        assert [a.basis[m].label for m in arrows] == ARROW_LABELS[name, extend]
    if (name, extend) in ARROW_COUNTS:
        assert len(arrows) == ARROW_COUNTS[name, extend]


@pytest.mark.parametrize(
    "name, extend",
    ARROW_CASES,
    ids=[f"{name}-{'trivext' if extend else 'base'}" for name, extend in ARROW_CASES],
)
def test_syzygy_relations_are_in_lead_form(name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    rad = jacobson_radical(a)
    assert res_mod._radical_is_arrow_span(a, rad)
    engine = res_mod._FlatResolver(a)
    d, target_pos = engine.dim, engine.target_pos
    steps = 0
    for simple in simple_modules(a, rad):
        kernel = engine.kernel_of_cover(engine.module_images(simple, rad))
        for _ in range(6):
            # the two facts the tops rest on: every relation sits at one
            # vertex, and no two relations share a largest flat coordinate
            leads = [max(vec) for vec in kernel]
            assert len(set(leads)) == len(leads)
            for vec in kernel:
                assert len({target_pos[coord % d] for coord in vec}) == 1
            if not kernel:
                break
            gens = engine.top_generators(kernel)
            kernel = engine.kernel_of_cover((v, engine.images(g, engine.left)) for v, g in gens)
            steps += 1
    assert steps > 0


def flat_kernel(a, verts, kernel) -> list[dict]:
    """Dense kernel vectors of a cover on the projectives at verts, in the
    engine's flat coordinates copy*dim + basis index."""
    by_vertex = res_mod._source_coords(a)
    pos = {v: p for p, v in enumerate(a.vertices)}
    coord_map = [copy * a.dim + m for copy, v in enumerate(verts) for m in by_vertex[pos[v]]]
    return [{coord_map[i]: c for i, c in enumerate(vec) if c} for vec in kernel]


@pytest.mark.parametrize(
    "name, extend",
    ARROW_CASES,
    ids=[f"{name}-{'trivext' if extend else 'base'}" for name, extend in ARROW_CASES],
)
def test_first_kernel_is_the_dense_cover_kernel(name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    rad = jacobson_radical(a)
    engine = res_mod._FlatResolver(a)
    checked = 0
    for simple in simple_modules(a, rad):
        # the simple and its first syzygy, a module of several dimensions
        proj, cover = projective_cover(a, simple, rad)
        syzygy = cover.kernel_basis()
        modules = [simple, submodule_on_kernel(a, proj, syzygy)] if syzygy else [simple]
        for module in modules:
            cover, verts = res_mod._cover_data(a, module, rad)
            kernel = engine.kernel_of_cover(engine.module_images(module, rad))
            assert kernel == flat_kernel(a, verts, cover.kernel_basis())
            checked += len(kernel)
    assert checked


def test_check_kernel_refusals():
    engine = res_mod._FlatResolver(trivial_extension(path_algebra(multi_kronecker(2))))
    by_target: dict = {}
    for m in range(engine.dim):
        if m not in engine.idem:
            by_target.setdefault(engine.target_pos[m], []).append(m)
    (m1, m2, *_), (n1, *_) = by_target.values()
    idem = min(engine.idem)
    cases = [
        ([{m1: 1}], 2, "syzygy dimension mismatch"),
        ([{idem: 1}], 1, "resolution step is not minimal"),
        ([{m1: 1, n1: 1}], 1, "syzygy relation spans two vertices"),
        ([{m1: 1, m2: 1}, {m2: 1}], 2, "two syzygy relations share a leading coordinate"),
    ]
    for kernel, syzygy, message in cases:
        with pytest.raises(RuntimeError, match=message):
            engine.check_kernel(kernel, syzygy)
    engine.check_kernel([{m1: 1, m2: 1}, {m1: 1}, {n1: 2}], 3)


def test_top_refuses_a_span_that_is_not_a_submodule():
    # one arrow alone spans no submodule of P: an arrow takes it to a new lead
    engine = res_mod._FlatResolver(trivial_extension(path_algebra(path_quiver(2))))
    m = next(m for m in engine.arrows if engine.images({m: 1}, engine.arrow_left))
    with pytest.raises(RuntimeError, match="arrow images leave the syzygy"):
        engine.top_generators([{m: 1}])


def mixed_basis_syzygy(a, rad):
    """The first syzygy of the first simple, on a basis that mixes two vertices.

    Its basis vector j is replaced by u_j + u_0, where u_0 and u_j sit at
    different vertices.
    """
    simple = simple_modules(a, rad)[0]
    proj, cover = projective_cover(a, simple, rad)
    omega = submodule_on_kernel(a, proj, cover.kernel_basis())
    n = omega.dim
    vertex = [next(p for p, e in enumerate(a.idempotents) if omega.actions[e][k, k]) for k in range(n)]
    j = next(k for k in range(n) if vertex[k] != vertex[0])
    shear = [[Fraction(int(r == c)) for c in range(n)] for r in range(n)]
    unshear = [list(row) for row in shear]
    shear[0][j], unshear[0][j] = Fraction(1), Fraction(-1)
    t, t_inv = RatMatrix(shear), RatMatrix(unshear)
    moved = RepModule(a, n, tuple(t_inv * act * t for act in omega.actions))
    return omega, moved


@pytest.mark.parametrize(
    "build",
    [
        lambda: trivial_extension(path_algebra(multi_kronecker(2))),
        lambda: trivial_extension(gentle_two_loop()),
        lambda: trivial_extension(canonical_237()),
    ],
    ids=["kron2", "gentle", "canonical-237"],
)
def test_first_cover_of_a_mixed_basis_module(build):
    # the moved module's basis vectors spread over two vertices, but its
    # images are reduced in one echelon per vertex, so the first kernel is
    # still in lead form
    a = build()
    rad = jacobson_radical(a)
    omega, moved = mixed_basis_syzygy(a, rad)
    spread = [
        k
        for k in range(moved.dim)
        if sum(1 for e in a.idempotents if any(moved.actions[e].column(k))) > 1
    ]
    assert spread
    engine = res_mod._FlatResolver(a)
    cover, _ = res_mod._cover_data(a, moved, rad)
    kernel = engine.kernel_of_cover(engine.module_images(moved, rad))
    assert kernel
    engine.check_kernel(kernel, cover.cols - moved.dim)
    trace = minimal_resolution(a, moved, steps=6, rad=rad)
    assert trace == dense_trace(a, moved, 6, rad)
    assert trace == minimal_resolution(a, omega, steps=6, rad=rad)


def dual_numbers_on_unadapted_basis():
    """k[x]/(x^2) on the basis {e, b = e + x}, whose radical is spanned by b - e."""
    return SCAlgebra(
        ("v",),
        (BasisElement("e", "v", "v"), BasisElement("b", "v", "v")),
        (0,),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1, 1: 2}},
    )


def test_dense_fallback_through_dispatch():
    a = dual_numbers_on_unadapted_basis()
    a.verify()
    assert not res_mod._radical_is_arrow_span(a, jacobson_radical(a))
    (simple,) = simple_modules(a)
    trace = minimal_resolution(a, simple, steps=6)
    assert trace.betti == (2,) * 6
    assert trace.truncated_by == "steps-exhausted"
    assert res_mod.resolve_simple_modules(a, steps=6) == [trace]


def rebased_gentle_two_loop():
    """gentle_two_loop() with its basis element b1 replaced by e1 + b1."""
    a = gentle_two_loop()
    e1, b1 = a.index_of("e1"), a.index_of("b1")

    def expand(k):
        return {e1: Fraction(1), b1: Fraction(1)} if k == b1 else {k: Fraction(1)}

    def rewrite(element):
        out = dict(element)
        if out.get(b1):
            out[e1] = out.get(e1, 0) - out[b1]
        return out

    mult = {
        (i, j): rewrite(a.multiply(expand(i), expand(j)))
        for i in range(a.dim)
        for j in range(a.dim)
    }
    return SCAlgebra(a.vertices, a.basis, a.idempotents, mult)


def test_two_vertex_basis_not_adapted_to_radical():
    a = rebased_gentle_two_loop()
    a.verify()
    rad = jacobson_radical(a)
    assert len(rad) == 6
    assert not res_mod._radical_is_arrow_span(a, rad)
    traces = res_mod.resolve_simple_modules(a, steps=6)
    assert [t.betti for t in traces] == [(2,) * 6, (6, 8, 6, 6, 6, 6)]
    assert traces == res_mod.resolve_simple_modules(gentle_two_loop(), steps=6)


UNADAPTED = [
    (dual_numbers_on_unadapted_basis, lambda: trivial_extension(point_algebra())),
    (rebased_gentle_two_loop, gentle_two_loop),
]


@pytest.mark.parametrize("build, adapted", UNADAPTED, ids=["dual-numbers", "gentle"])
def test_rebased_resolutions_match_the_dense_oracle(build, adapted):
    # the rebase recovers the adapted table and moves each module onto it;
    # projectives as well as simples, so the module transport is exercised
    a = build()
    rad = jacobson_radical(a)
    assert not res_mod._radical_is_arrow_span(a, rad)
    table = adapted().mult
    for s in simple_modules(a, rad):
        p, _ = projective_cover(a, s, rad)
        assert p.dim > 1
        for module in (s, p):
            rebased, moved, _ = res_mod._rebase_to_radical(a, module, rad)
            assert rebased.mult == table
            moved.validate()
            expected = dense_trace(a, module, 6, rad)
            assert minimal_resolution(a, module, steps=6, rad=rad) == expected


def test_radical_check_refuses_a_one_sided_candidate():
    a = path_algebra(path_quiver(2))
    e1 = tuple(Fraction(int(k == a.idempotents[0])) for k in range(a.dim))
    with pytest.raises(RuntimeError, match="not a two-sided ideal"):
        res_mod._verify_nilpotent_ideal(a, [e1])


def test_radical_check_refuses_a_non_nilpotent_candidate():
    with pytest.raises(RuntimeError, match="not nilpotent"):
        res_mod._verify_nilpotent_ideal(point_algebra(), [(Fraction(1),)])


def rebased_gentle_vectors(a, *elements):
    """Dense vectors on the rebased basis of the given label combinations.

    "b1" names the original arrow b1, which is b1 - e1 on the rebased basis.
    """
    out = []
    for element in elements:
        vec = [0] * a.dim
        for label, c in element.items():
            vec[a.index_of(label)] += c
            if label == "b1":
                vec[a.index_of("e1")] -= c
        out.append(tuple(vec))
    return out


def test_radical_check_refuses_a_one_sided_candidate_of_several_coordinates():
    # A*b1 is spanned by b1, but b1*a = b1a is not
    a = rebased_gentle_two_loop()
    candidate = rebased_gentle_vectors(a, {"b1": 1})
    assert sum(1 for c in candidate[0] if c) == 2
    with pytest.raises(RuntimeError, match="not a two-sided ideal"):
        res_mod._verify_nilpotent_ideal(a, candidate)


def test_radical_check_refuses_a_non_nilpotent_candidate_of_several_coordinates():
    # the paths through vertex 1 form a two-sided ideal that holds e1
    a = rebased_gentle_two_loop()
    candidate = rebased_gentle_vectors(
        a,
        {"e1": 1, "a": 1},
        {"b1": 1},
        {"a": 1, "b1a": 2},
        {"b1a": 1},
        {"ab2": 1, "b1ab2": -1},
        {"b1ab2": 1},
    )
    with pytest.raises(RuntimeError, match="not nilpotent"):
        res_mod._verify_nilpotent_ideal(a, candidate)


def test_radical_check_multiplies_where_the_table_allows(monkeypatch):
    ta = trivial_extension(path_algebra(path_quiver(12)))
    calls = count_multiplies(monkeypatch)
    assert len(jacobson_radical(ta)) == ta.dim - 12
    assert len(calls) <= 8 * len(ta.mult)


def test_resolve_simple_modules_computes_one_radical(monkeypatch):
    calls = []
    radical = res_mod.jacobson_radical

    def counting(a):
        calls.append(a)
        return radical(a)

    monkeypatch.setattr(res_mod, "jacobson_radical", counting)
    ta = trivial_extension(path_algebra(path_quiver(3)))
    res_mod.resolve_simple_modules(ta, steps=10)
    assert len(calls) == 1


@pytest.mark.parametrize(
    "name, extend",
    ARROW_CASES,
    ids=[f"{name}-{'trivext' if extend else 'base'}" for name, extend in ARROW_CASES],
)
def test_parallel_resolution_equals_serial(name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    rad = jacobson_radical(a)
    serial = [minimal_resolution(a, s, 8, rad=rad) for s in simple_modules(a, rad)]
    assert res_mod.resolve_simple_modules(a, steps=8) == serial


@pytest.mark.parametrize("kind", [RuntimeError, ValueError, ZeroDivisionError])
@pytest.mark.parametrize("refused", [(0, 1), (1, 2), (2, 3)])
def test_parallel_resolution_raises_the_lowest_refusal(monkeypatch, refused, kind):
    ta = trivial_extension(path_algebra(path_quiver(4)))
    chosen = [ta.vertices[i] for i in refused]
    check = res_mod._FlatResolver.check_kernel

    def refusing(self, kernel, syzygy):
        # the first kernel of a simple's resolution lies in the projective at its vertex
        first = self.alg.basis[min(kernel[0]) % self.dim].source
        vertex = self.__dict__.setdefault("vertex", first)
        if vertex in chosen:
            raise kind(f"refused {vertex}")
        check(self, kernel, syzygy)

    monkeypatch.setattr(res_mod._FlatResolver, "check_kernel", refusing)
    # three workers, whatever the host's cores, own simples (0, 3), 1 and 2:
    # the two refusals of each case come from two processes
    for cores in ({0, 1, 2}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cores=cores: cores)
        with pytest.raises(kind) as caught:
            res_mod.resolve_simple_modules(ta, steps=8)
        assert type(caught.value) is kind
        assert str(caught.value) == f"refused {chosen[0]}"


def test_a_worker_that_dies_fails_the_call(monkeypatch):
    ta = trivial_extension(path_algebra(multi_kronecker(2)))
    caller = os.getpid()
    check = res_mod._FlatResolver.check_kernel

    def dying(self, kernel, syzygy):
        if os.getpid() != caller:
            os._exit(3)
        check(self, kernel, syzygy)

    monkeypatch.setattr(res_mod._FlatResolver, "check_kernel", dying)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    with pytest.raises(RuntimeError, match="worker exited without a result"):
        res_mod.resolve_simple_modules(ta, steps=8)


def test_an_interrupted_caller_kills_its_workers(monkeypatch):
    ta = trivial_extension(path_algebra(multi_kronecker(2)))
    caller = os.getpid()

    def stalling(self, kernel, syzygy):
        if os.getpid() == caller:
            raise KeyboardInterrupt
        time.sleep(30)  # outlives the call unless the caller kills it

    monkeypatch.setattr(res_mod._FlatResolver, "check_kernel", stalling)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        res_mod.resolve_simple_modules(ta, steps=8)
    assert time.monotonic() - start < 10


# --- input validation -----------------------------------------------------

def test_resolution_rejects_foreign_module():
    a = path_algebra(path_quiver(2))
    b = path_algebra(path_quiver(2))
    with pytest.raises(ValueError):
        minimal_resolution(a, simple_modules(b)[0])


def test_resolution_rejects_bad_bounds():
    a = path_algebra(path_quiver(2))
    s = simple_modules(a)[0]
    with pytest.raises(ValueError):
        minimal_resolution(a, s, steps=0)
    with pytest.raises(ValueError):
        minimal_resolution(a, s, dim_cap=0)


def test_repmodule_validation_catches_bad_tables():
    a = path_algebra(path_quiver(2))
    bad = RepModule(
        a,
        1,
        tuple(RatMatrix([[1]]) for _ in range(a.dim)),
    )
    with pytest.raises(ValueError):
        bad.validate()


def test_trace_validation():
    with pytest.raises(ValueError):
        ResolutionTrace((3, 2), "no-such-reason")
    with pytest.raises(ValueError):
        ResolutionTrace((3, 2), "resolution-terminated")  # must end in 0
    with pytest.raises(ValueError):
        ResolutionTrace((), "steps-exhausted")
    with pytest.raises(ValueError):
        ResolutionTrace((-1, 0), "resolution-terminated")
    t = ResolutionTrace((3, 0), "resolution-terminated")
    assert t.to_json_dict() == {"betti": [3, 0], "truncated_by": "resolution-terminated"}


# --- growth estimation ----------------------------------------------------

def exhausted(betti):
    return ResolutionTrace(tuple(betti), "steps-exhausted")


def test_estimate_terminated_is_finite_zero():
    t = ResolutionTrace((2, 1, 0), "resolution-terminated")
    assert complexity_estimate(t) == ComplexityEstimate.finite(0)


def test_estimate_requires_enough_data():
    with pytest.raises(ValueError):
        complexity_estimate(exhausted([3] * 11))


def test_estimate_constant_is_finite_one():
    assert complexity_estimate(exhausted([3] * 12)) == ComplexityEstimate.finite(1)


@pytest.mark.parametrize(
    "betti",
    [(1,) * 6 + (60, 40, 30, 24, 20, 17), (2,) * 6 + (12, 9, 7, 6, 5, 5)],
)
def test_estimate_decaying_tail_is_at_least_finite_one(betti):
    # a resolution that does not terminate has complexity at least 1
    assert complexity_estimate(exhausted(betti)) == ComplexityEstimate.finite(1)


def test_estimate_bounded_oscillation_is_finite_one():
    betti = [9, 5, 7, 5, 7, 5, 7, 5, 7, 5, 7, 5, 7, 5]
    assert complexity_estimate(exhausted(betti)) == ComplexityEstimate.finite(1)


def test_estimate_linear_is_finite_two():
    betti = [4 * (k + 1) for k in range(20)]
    assert complexity_estimate(exhausted(betti)) == ComplexityEstimate.finite(2)


def test_estimate_quadratic_is_finite_three():
    betti = [3 * (k + 1) ** 2 for k in range(24)]
    assert complexity_estimate(exhausted(betti)) == ComplexityEstimate.finite(3)


def test_estimate_exponential_without_cap_is_infinite():
    betti = [2 ** k for k in range(1, 17)]
    assert complexity_estimate(exhausted(betti)).kind == "infinite"


def test_estimate_zero_in_growing_tail_is_inconclusive():
    betti = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 0, 16, 17, 18]
    est = complexity_estimate(exhausted(betti))
    assert est.kind == "inconclusive"


def test_combine_estimates_order():
    fin1 = ComplexityEstimate.finite(1)
    fin3 = ComplexityEstimate.finite(3)
    inc = ComplexityEstimate.inconclusive("x")
    inf = ComplexityEstimate.infinite()
    assert combine_estimates([fin1, fin3]) == fin3
    assert combine_estimates([fin1, inc, fin3]).kind == "inconclusive"
    assert combine_estimates([fin1, inc, inf]).kind == "infinite"
    assert combine_estimates([]) == ComplexityEstimate.finite(0)


def test_global_estimates(growth_suite):
    ta_a2, _ = growth_suite["A2"]
    assert global_complexity_estimate(ta_a2).kind == "finite"
    ta_k3, _ = growth_suite["kronecker3"]
    assert global_complexity_estimate(ta_k3, steps=40, dim_cap=100000).kind == "infinite"


def test_thread_env_does_not_change_results(monkeypatch):
    ta = trivial_extension(path_algebra(multi_kronecker(2)))
    baseline = res_mod.resolve_simple_modules(ta, steps=10, dim_cap=100000)
    monkeypatch.setenv("QUIVERLAB_THREADS", "4")
    threaded = res_mod.resolve_simple_modules(ta, steps=10, dim_cap=100000)
    assert baseline == threaded
    monkeypatch.setenv("QUIVERLAB_THREADS", "not-a-number")
    fallback = res_mod.resolve_simple_modules(ta, steps=10, dim_cap=100000)
    assert baseline == fallback
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    one_core = res_mod.resolve_simple_modules(ta, steps=10, dim_cap=100000)
    assert baseline == one_core
