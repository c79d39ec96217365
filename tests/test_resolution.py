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
import errno
import json
import os
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from quiverlab import (
    BasisElement,
    CanonicalSpec,
    ComplexityEstimate,
    RatMatrix,
    RepModule,
    ResolutionTrace,
    SCAlgebra,
    canonical_algebra,
    combine_estimates,
    complexity_estimate,
    jacobson_radical,
    minimal_resolution,
    path_algebra,
    quiver_from_data,
    simple_modules,
    trivial_extension,
)
from quiverlab import betti
from quiverlab import quiver as quiver_mod
from quiverlab import resolution as res_mod
from quiverlab import trivext as trivext_mod
from quiverlab.builders import GentlePresentation, gentle_algebra, parse_gentle
from quiverlab.cli import main
from quiverlab.echelon import TrackedEchelon
from quiverlab.quiver import K0Arithmetic, cartan_path_algebra, classify_quiver, coxeter_matrix
from quiverlab.record import FrozenInstanceError
from quiverlab.serre import graded_path_verdict, growth_degree
from conftest import (
    BUILDERS,
    GENTLE_TWO_LOOP_DOC,
    bench_ladder,
    bench_module,
    bipartite_star,
    builder_outputs,
    canonical_237,
    complete_bipartite,
    count_multiplies,
    cover_data,
    dense_trace,
    dim_vector,
    disjoint_union,
    engine_kernels,
    gentle_two_loop,
    global_complexity_estimate,
    index_of,
    inverted_simples,
    is_engine_vector,
    multi_kronecker,
    path_quiver,
    projective_cover,
    radical_vectors,
    random_acyclic_quiver,
    random_tree_or_cycle_quiver,
    sparse_vector,
    star_quiver,
    trace_form_radical,
    verify_nilpotent_ideal,
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
    assert idem.isdisjoint(jacobson_radical(a))


def certified_algebras():
    """(label, algebra): each builder output and bench ladder algebra, and
    its trivial extension; builder_outputs' "trivext-" algebras are
    extensions already."""
    for name, base in [*builder_outputs(), *bench_ladder()]:
        yield name, base
        if not name.startswith("trivext-"):
            yield f"T({name})", trivial_extension(base)


CERTIFIED = list(certified_algebras())


@pytest.mark.parametrize("a", [a for _, a in CERTIFIED], ids=[label for label, _ in CERTIFIED])
def test_certificate_equals_the_trace_form_oracle(a):
    idem = set(a.idempotents)
    units = [m for m in range(a.dim) if m not in idem]
    assert jacobson_radical(a) == units
    # the oracle's basis has as many vectors, none touching an idempotent
    oracle = trace_form_radical(a)
    assert len(oracle) == len(units)
    assert not [vec for vec in oracle if any(vec[e] for e in idem)]


def test_simple_modules_shape():
    a = path_algebra(path_quiver(3))
    simples = simple_modules(a)
    assert len(simples) == 3
    for i, s in enumerate(simples):
        s.validate()
        assert s.dim == 1
        vec = dim_vector(s)
        assert vec.count(1) == 1 and vec[i] == 1


def test_dim_vector_counts_idempotent_ranks():
    a = path_algebra(path_quiver(2))
    p, _ = projective_cover(a, simple_modules(a)[0])
    assert dim_vector(p) == (1, 1)


# --- the dense projective cover oracle (conftest) ------------------------

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


# --- resolutions over path algebras (finite global dimension) ------------

def test_resolution_simple_at_source_of_a2():
    a = path_algebra(path_quiver(2))
    trace = minimal_resolution(a, 0)
    assert trace.betti == (2, 1, 0)
    assert trace.truncated_by == "resolution-terminated"
    trace = minimal_resolution(a, 1)
    assert trace.betti == (1, 0)


def test_resolution_over_kronecker_path_algebra():
    a = path_algebra(multi_kronecker(2))
    assert minimal_resolution(a, 0).betti == (3, 2, 0)
    assert minimal_resolution(a, 1).betti == (1, 0)


def test_path_algebra_global_estimate_is_projective_dimension_zero():
    a = path_algebra(path_quiver(3))
    assert global_complexity_estimate(a) == ComplexityEstimate.finite(0)


# --- resolutions over trivial extensions ---------------------------------

def test_dual_numbers_constant_betti():
    ta = trivial_extension(point_algebra())
    trace = minimal_resolution(ta, 0, steps=15)
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


def test_trivial_extension_kronecker4_capped_traces():
    # the CLI job takes the Coxeter orbit, so no byte guard covers the
    # engine's steps here
    ta = trivial_extension(path_algebra(multi_kronecker(4)))
    expected = (6, 24, 90, 336, 1254, 4680, 17466, 65184, 243270)
    traces = res_mod.resolve_simple_modules(ta, steps=40, dim_cap=100000)
    assert len(traces) == 2
    for trace in traces:
        assert trace.betti == expected
        assert trace.truncated_by == "dimension-cap"


# a bound on the traced peak of T(kron3)'s resolution at dim_cap 20000, in
# bytes: 0.99 MB with each step one cover and one top that keep nothing for
# a later step (CPython 3.11).  insert() keeps a one-term cover image as
# its (c, column) entry, which holds the peak under the bound: stored as an
# (image, expression) dict pair it is 1.37 MB.  The kernel vectors as
# lead-first tuples and units as bare ints keep it there too: 1.43 MB with
# every unit a (coordinate, 1) tuple, 2.0 MB when the vectors were dicts
# and the generators (vertex, vector) pairs, 4.2 MB when every unit was a
# one-key dict too
KRON3_TRACED_PEAK = 1_200_000
# T(kron3)'s trace at dim_cap 20000
KRON3_BETTI = (5, 15, 40, 105, 275, 720, 1885, 4935, 12920, 33825)


def test_deep_resolution_keeps_a_small_traced_peak():
    ta = trivial_extension(path_algebra(multi_kronecker(3)))
    res_mod._setup(ta)  # the engine is built outside the trace
    tracemalloc.start()
    try:
        trace = minimal_resolution(ta, 0, dim_cap=20000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert trace.betti == KRON3_BETTI
    assert trace.truncated_by == "dimension-cap"
    assert peak < KRON3_TRACED_PEAK, peak


def two_kroneckers():
    """Two disjoint Kronecker quivers: bipartite and not Dynkin, but not connected."""
    return disjoint_union(multi_kronecker(2), multi_kronecker(2))


def routed(monkeypatch) -> Counter:
    """The calls, by name, that a route makes from here on: the algebras
    trivial_extension builds, the string route's string_traces, the
    engine's resolve_simple_modules, the fits of complexity_estimate, the
    K0Arithmetic objects built, wherever they are, and classify_quiver,
    where quiver.classify_components calls it."""
    calls = Counter()

    def counted(owner, name, key):
        original = getattr(owner, name)

        def count(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, count)

    for owner, name in ((trivext_mod, "trivial_extension"), (trivext_mod, "string_traces"),
                        (res_mod, "resolve_simple_modules"), (betti, "complexity_estimate"),
                        (quiver_mod, "classify_quiver")):
        counted(owner, name, name)
    counted(K0Arithmetic, "__init__", "K0Arithmetic")
    return calls


def gentle_presentation():
    pres = parse_gentle(GENTLE_TWO_LOOP_DOC)
    return pres.quiver, pres.relations


# (quiver and relations, bounds, the route trivext_traces takes): the
# Coxeter orbit with each simple's verdict read off the kind of its
# component, with no algebra built, for "dynkin" ("finite, degree 1"),
# "affine" (by the simple's defect, nonzero at every sink and source, so
# "finite, degree 2" on these bipartite quivers), "wild" ("infinite") and
# "components" (a disconnected Q, one component at a time); "fitted" the
# string route with complexity_estimate's verdicts, for a gentle
# presentation only.  Every route's traces are the engine's.
ROUTE_CASES = {
    "kron2-200-steps": (lambda: (multi_kronecker(2), None), {"steps": 200}, "affine"),
    "kron3": (lambda: (multi_kronecker(3), None), {}, "wild"),
    "kron4": (lambda: (multi_kronecker(4), None), {}, "wild"),
    "K23-capped": (lambda: (complete_bipartite(2, 3), None), {"dim_cap": 20000}, "wild"),
    "D4-affine": (lambda: (bipartite_star((1, 1, 1, 1)), None), {"steps": 40}, "affine"),
    "E6-affine": (lambda: (bipartite_star((2, 2, 2)), None), {"steps": 40}, "affine"),
    "E10": (lambda: (bipartite_star((1, 2, 6)), None), {"steps": 40}, "wild"),
    "T334": (lambda: (bipartite_star((2, 2, 3)), None), {"steps": 40}, "wild"),
    "kron3-1-step": (lambda: (multi_kronecker(3), None), {"steps": 1}, "wild"),
    "kron3-cap-1": (lambda: (multi_kronecker(3), None), {"dim_cap": 1}, "wild"),
    "D4": (lambda: (bipartite_star((1, 1, 1)), None), {}, "dynkin"),
    "E8": (lambda: (bipartite_star((1, 2, 4)), None), {}, "dynkin"),
    "A3": (lambda: (path_quiver(3), None), {}, "dynkin"),
    "E10-sink-centred": (lambda: (star_quiver((1, 2, 6)), None), {}, "wild"),
    "gentle": (gentle_presentation, {}, "fitted"),
    "disconnected": (lambda: (two_kroneckers(), None), {}, "components"),
}


def orbit_rule(q) -> list[ComplexityEstimate]:
    """Each simple's verdict over T(kQ) by the orbit rule, from the rational
    Cartan and Coxeter matrices of the quiver module: complexity 1 + the
    polynomial degree of row i of E = C^(-T) under Phi^(-T), or infinite
    when that orbit grows exponentially."""
    cartan = cartan_path_algebra(q)
    euler = cartan.inverse().T
    lift = coxeter_matrix(cartan).inverse().T
    lift = RatMatrix([[int(x) for x in row] for row in lift.entries()])
    verdicts = []
    for i in range(len(q.vertices)):
        growth = growth_degree(lift, euler.row(i))
        verdicts.append(ComplexityEstimate.infinite() if growth.kind == "exponential"
                        else ComplexityEstimate.finite(growth.degree + 1))
    return verdicts


@pytest.mark.parametrize("presentation, bounds, route", ROUTE_CASES.values(),
                         ids=ROUTE_CASES)
def test_koszul_route_is_the_engine_where_its_theorem_applies(monkeypatch, presentation, bounds,
                                                              route):
    quiver, relations = presentation()
    if relations is None:
        pres, base = quiver, path_algebra(quiver)
    else:
        pres = GentlePresentation(quiver, relations)
        base = gentle_algebra(pres)
    ta = trivial_extension(base)
    engine = [minimal_resolution(ta, p, **bounds) for p in range(len(ta.vertices))]
    calls = routed(monkeypatch)
    base_dim, traces, estimates = betti.trivext_traces(pres, **bounds)
    assert (base_dim, traces) == (base.dim, engine)
    # a relation-free job builds one K0Arithmetic, classifies each component
    # of Q once and neither walks strings nor fits; the gentle one does
    # both, and no route resolves with the engine
    fitted = route == "fitted"
    assert calls["trivial_extension"] == calls["string_traces"] == fitted
    assert calls["resolve_simple_modules"] == 0
    assert calls["complexity_estimate"] == (len(engine) if fitted else 0)
    assert calls["K0Arithmetic"] == (not fitted)
    assert calls["classify_quiver"] == (0 if fitted else len(quiver.components()))
    if fitted:
        assert estimates == [complexity_estimate(trace) for trace in engine]
    else:
        # the rule of each component's kind agrees with the orbit rule
        assert estimates == orbit_rule(quiver)
    if route in ("affine", "wild"):
        assert classify_quiver(quiver).kind == {"affine": "affine", "wild": "indefinite"}[route]
        assert set(estimates) == {ComplexityEstimate.finite(2) if route == "affine"
                                  else ComplexityEstimate.infinite()}
    if route == "dynkin":
        assert estimates == [ComplexityEstimate.finite(1)] * len(engine)
    if quiver == star_quiver((1, 2, 6)):
        # sink-centred E10: the fit of the engine's traces read "finite,
        # degree 3" on 7 of these 10
        assert estimates == [ComplexityEstimate.infinite()] * len(engine)


DISCONNECTED = {
    "kron2+kron2": two_kroneckers,
    "A1+A1": lambda: disjoint_union(path_quiver(1), path_quiver(1)),
    "A3+kron3": lambda: disjoint_union(path_quiver(3), multi_kronecker(3)),
    "A1+E6-affine": lambda: disjoint_union(path_quiver(1), star_quiver((2, 2, 2))),
}


@pytest.mark.parametrize("steps", [2, 12, 40])
@pytest.mark.parametrize("build", DISCONNECTED.values(), ids=DISCONNECTED)
def test_disconnected_quivers_take_the_coxeter_route(monkeypatch, build, steps):
    # each component of a disconnected Q is classified once: its simples
    # take the formula, and their verdicts, the rule of their component's
    # kind, are the orbit rule's, with no algebra built
    q = build()
    ta = trivial_extension(path_algebra(q))
    engine = [minimal_resolution(ta, p, steps) for p in range(len(q.vertices))]
    verdicts = orbit_rule(q)
    calls = routed(monkeypatch)
    base_dim, traces, estimates = betti.trivext_traces(q, steps)
    assert (2 * base_dim, traces, estimates) == (ta.dim, engine, verdicts)
    assert calls == Counter({"K0Arithmetic": 1, "classify_quiver": len(q.components())})


@pytest.mark.parametrize("steps", [2, 4])
@pytest.mark.parametrize("label", ["D40", "E8", "A8", "D40+A1"])
def test_dynkin_quivers_print_the_engines_traces_at_few_steps(monkeypatch, tmp_path, capsys,
                                                              label, steps):
    # every simple takes the formula, even where a directing walk of
    # `steps` steps would miss it: 31 of D40's 40 simples at 4 steps, and
    # 2 of E8's and 4 of A8's 8 at 2; D40 + A1 is
    # classified one component at a time, and the command loads neither
    # the engine's layers nor the spectral ones
    workloads = bench_module("workloads")
    d40_a1 = {"vertices": [*workloads.D40["vertices"], "z"], "arrows": workloads.D40["arrows"]}
    document = {"D40": workloads.D40, "E8": workloads.E8, "A8": workloads.path_quiver(8),
                "D40+A1": d40_a1}[label]
    q = quiver_from_data(document)
    ta = trivial_extension(path_algebra(q))
    engine = [minimal_resolution(ta, p, steps).to_json_dict() for p in range(len(q.vertices))]
    path = tmp_path / f"{label}.json"
    path.write_text(json.dumps(document), encoding="utf-8")
    calls = routed(monkeypatch)
    for name in ("resolution", "trivext", "builders", "serre", "cyclo", "intpoly"):
        monkeypatch.setitem(sys.modules, f"quiverlab.{name}", None)  # importing it fails
    assert main(["trivext", str(path), "--steps", str(steps), "--json"]) == 0
    simples = json.loads(capsys.readouterr().out)["result"]["simples"]
    assert [simple["trace"] for simple in simples] == engine
    assert all(simple["estimate"] == {"kind": "finite", "degree": 1} for simple in simples)
    assert calls == Counter({"K0Arithmetic": 1, "classify_quiver": len(q.components())})


def test_coxeter_formula_is_the_engine_on_random_acyclic_quivers():
    # per simple, on 60 seeded quivers of at most 7 vertices at 10 steps and
    # a dimension cap that keeps the wild ones short: the formula on every
    # simple, and coxeter_trivext_traces, which takes it for every simple
    rng = random.Random(16)
    for _ in range(60):
        q = random_acyclic_quiver(rng, 7)
        n = len(q.vertices)
        ta = trivial_extension(path_algebra(q))
        engine = [minimal_resolution(ta, p, 10, 2000) for p in range(n)]
        k0 = K0Arithmetic(q)
        assert betti._orbit_traces(k0, 10, 2000) == engine, q
        assert betti.coxeter_trivext_traces(q, 10, 2000)[0] == engine, q


def test_component_kinds_give_the_orbit_rules_verdicts_on_random_quivers():
    # 1,500 seeded connected quivers of at most 10 vertices and 200 disjoint
    # unions of two of at most 5: each simple's verdict, read off its
    # component's kind and defect, is the orbit rule's
    rng = random.Random(44)
    quivers = [random_tree_or_cycle_quiver(rng, 10) for _ in range(1500)]
    quivers += [disjoint_union(random_tree_or_cycle_quiver(rng, 5),
                               random_tree_or_cycle_quiver(rng, 5)) for _ in range(200)]
    seen = Counter()
    for q in quivers:
        estimates = betti.coxeter_trivext_traces(q, 2)[1]
        assert estimates == orbit_rule(q), q
        kind = classify_quiver(q).kind if q.is_connected else "disconnected"
        seen[kind] += 1
        seen["affine with complexity 1"] += (kind == "affine"
                                             and ComplexityEstimate.finite(1) in estimates)
    assert seen["disconnected"] == 200, seen
    assert seen["affine with complexity 1"] >= 100 and seen["indefinite"] >= 100, seen


def trivext_bench_quivers() -> dict:
    """Job id -> (quiver, steps) of every path-algebra job of the benchmark's
    trivext workloads, at the job's steps."""
    workloads = bench_module("workloads")
    out = {}
    for name in ("trivext-wide", "trivext-deep"):
        files, jobs = workloads.build(name, 1401)
        for job in jobs:
            document = json.loads(files[job.argv[1]])
            if "relations" not in document:
                argv = job.argv
                steps = int(argv[argv.index("--steps") + 1]) if "--steps" in argv else 40
                out[job.id] = (quiver_from_data(document), steps)
    return out


BENCH_QUIVERS = trivext_bench_quivers()


@pytest.mark.parametrize("quiver, steps", BENCH_QUIVERS.values(), ids=BENCH_QUIVERS)
def test_coxeter_traces_are_the_engines_on_every_bench_base(quiver, steps):
    engine = res_mod.resolve_simple_modules(trivial_extension(path_algebra(quiver)), steps)
    assert betti.coxeter_trivext_traces(quiver, steps)[0] == engine


def directing(k0: K0Arithmetic, i: int, bound: int) -> bool:
    """Whether Phi^k e_i or Phi^(-k) e_i leaves the positive cone for some
    1 <= k <= bound, so that tau^(-k+1) S_i is injective or tau^(k-1) S_i
    projective: S_i is then directing, and purity is classical for it."""
    back = ahead = k0.unit(i)
    for _ in range(bound):
        back, ahead = k0.inverse(back), k0.forward(ahead)
        if min(back) < 0 or min(ahead) < 0:
            return True
    return False


def test_regular_simples_of_a3_affine_take_the_formula(monkeypatch):
    # A~3 oriented 0 -> 1 -> 2 -> 3 with 0 -> 3: the simples at 1 and 2 lie in
    # a tube, so no walk from them leaves the positive cone, and still every
    # simple takes the Coxeter-orbit formula and the engine never runs
    q = quiver_from_data({"vertices": [0, 1, 2, 3], "arrows": [
        {"id": f"x{s}{t}", "from": s, "to": t} for s, t in ((0, 1), (1, 2), (2, 3), (0, 3))]})
    ta = trivial_extension(path_algebra(q))
    engine = [minimal_resolution(ta, p) for p in range(4)]
    k0 = K0Arithmetic(q)
    assert [directing(k0, i, 400) for i in range(4)] == [True, False, False, True]

    def refuse(*args, **kwargs):
        raise AssertionError("the engine ran")

    monkeypatch.setattr(res_mod, "minimal_resolution", refuse)
    assert betti.coxeter_trivext_traces(q)[0] == engine
    # and the regular simples have complexity 1, the others 2
    _, _, estimates = betti.trivext_traces(q)
    assert estimates == [ComplexityEstimate.finite(d) for d in (2, 1, 1, 2)]


def test_coxeter_formula_is_the_engine_on_regular_simples():
    # the simples that no walk of 20 steps certifies as directing, which
    # purity alone puts on the formula, on seeded quivers of at most 8
    # vertices until 200 are checked: the engine is the oracle, at 20 steps
    # and a dimension cap that keeps the wild ones short
    rng = random.Random(2026)
    seen = Counter()
    while sum(seen.values()) < 200:
        q = random_tree_or_cycle_quiver(rng, 8)
        k0 = K0Arithmetic(q)
        regular = [i for i in range(k0.n) if not directing(k0, i, 20)]
        if not regular:
            continue
        ta = trivial_extension(path_algebra(q))
        traces = betti.coxeter_trivext_traces(q, 20, 2000)[0]
        for i in regular:
            assert traces[i] == minimal_resolution(ta, i, 20, 2000), (q, i)
        seen[classify_quiver(q).kind] += len(regular)
    assert seen["affine"] >= 50 and seen["indefinite"] >= 50, seen
    assert "finite" not in seen


def test_a_class_that_is_not_sign_definite_raises(monkeypatch):
    # every class of a Coxeter orbit of an acyclic quiver is a shifted
    # module's dimension vector, so the walk checks its sign at each step
    k0 = K0Arithmetic(path_quiver(2))
    monkeypatch.setattr(K0Arithmetic, "inverse", lambda self, c: [1, -1])
    with pytest.raises(RuntimeError, match="a Coxeter orbit class is not sign-definite"):
        betti._orbit_traces(k0, 5, 100)


def trees(max_vertices: int):
    """Every tree with at most max_vertices vertices, up to isomorphism, as
    (n, edges) on the vertices 0..n-1, grown from one vertex by adding
    leaves.  Two trees are isomorphic when their least rooted codes agree."""

    def canonical(n, edges):
        near = [[] for _ in range(n)]
        for u, v in edges:
            near[u].append(v)
            near[v].append(u)

        def code(v, parent):
            return "(" + "".join(sorted(code(w, v) for w in near[v] if w != parent)) + ")"

        return min(code(root, None) for root in range(n))

    level = [(1, ())]
    for n in range(1, max_vertices + 1):
        yield from level
        grown: dict = {}
        for size, edges in level:
            for v in range(size):
                tree = (size + 1, (*edges, (v, size)))
                grown.setdefault(canonical(*tree), tree)
        level = list(grown.values())


def bipartite_tree(n: int, edges):
    """The tree in its bipartite orientation: the vertices at even distance
    from vertex 0 are sources."""
    side = [0] * n
    for u, v in edges:  # each leaf was added after its neighbour
        side[v] = 1 - side[u]
    return quiver_from_data({
        "vertices": [str(v) for v in range(n)],
        "arrows": [{"id": f"x{u}.{v}", "from": str(u if side[u] == 0 else v),
                    "to": str(v if side[u] == 0 else u)} for u, v in edges],
    })


def test_koszul_verdicts_are_the_orbit_growth_on_every_small_tree():
    # every tree of at most 9 vertices that is not Dynkin, bipartite: each
    # simple's verdict is the growth of the orbit (b_n, b_(n-1)) = L^n (e_i, 0),
    # L = [[M, -I], [I, 0]], read exactly by serre.growth_degree
    verdicts = {("polynomial", 1): ComplexityEstimate.finite(2),
                ("exponential", None): ComplexityEstimate.infinite()}
    sizes, kinds = Counter(), Counter()
    for n, edges in trees(9):
        sizes[n] += 1
        q = bipartite_tree(n, edges)
        _, _, estimates = betti.trivext_traces(q, steps=2)
        kind = classify_quiver(q).kind
        kinds[kind] += 1
        if kind == "finite":
            assert estimates == [ComplexityEstimate.finite(1)] * n
            continue
        block = [[0] * (2 * n) for _ in range(2 * n)]
        for i in range(n):
            block[i][n + i], block[n + i][i] = -1, 1
        for u, v in edges:
            block[u][v] = block[v][u] = 1
        lift = RatMatrix(block)
        for i in range(n):
            growth = growth_degree(lift, [int(k == i) for k in range(2 * n)])
            assert estimates[i] == verdicts[growth.kind, growth.degree], (edges, i)
    assert list(sizes.values()) == [1, 1, 1, 2, 3, 6, 11, 23, 47]
    assert kinds == {"finite": 18, "affine": 8, "indefinite": 69}


def seeded_tree(rng: random.Random, n: int, edges):
    """The tree with each edge pointing one way or the other at random."""
    flips = [rng.random() < 0.5 for _ in edges]
    return quiver_from_data({
        "vertices": [str(v) for v in range(n)],
        "arrows": [{"id": f"x{u}.{v}", "from": str(v if flip else u), "to": str(u if flip else v)}
                   for (u, v), flip in zip(edges, flips)],
    })


# the verdicts of serre.graded_path_verdict that make kQ serre-cyclotomic
SERRE_CYCLOTOMIC = {"serre-cyclotomic", "fractionally-calabi-yau"}


def test_every_small_tree_reads_its_verdicts_off_the_coxeter_orbit():
    # every tree of at most 10 vertices, in its bipartite orientation and in
    # one seeded orientation: each simple's verdict is the orbit rule's, and
    # the global verdict is the orientation's own, as T(kQ) of two
    # orientations of one tree are derived equivalent; a tree is Dynkin or
    # affine exactly when every simple is finite
    rng = random.Random(16)
    kinds, cyclotomic, affine_degree_one = Counter(), Counter(), 0
    for n, edges in trees(10):
        overall = []
        for q in (bipartite_tree(n, edges), seeded_tree(rng, n, edges)):
            _, _, estimates = betti.trivext_traces(q, steps=2)
            assert estimates == orbit_rule(q), (q, estimates)
            overall.append(combine_estimates(estimates))
            # the paper's last theorem: T(kQ) of a serre-cyclotomic kQ has
            # finite global complexity, and here the converse holds too
            serre_kind = graded_path_verdict(q).kind
            assert (serre_kind in SERRE_CYCLOTOMIC) == (overall[-1].kind == "finite"), q
            cyclotomic[serre_kind in SERRE_CYCLOTOMIC] += 1
        kind = classify_quiver(q).kind
        kinds[kind] += 1
        assert overall[0] == overall[1], edges
        assert (overall[0].kind == "finite") == (kind != "indefinite"), edges
        if kind == "affine":
            affine_degree_one += ComplexityEstimate.finite(1) in estimates
    assert kinds == {"finite": 20, "affine": 9, "indefinite": 172}
    assert cyclotomic == {True: 58, False: 344}
    # some seeded orientations of an affine tree have simples of complexity 1
    assert affine_degree_one > 0


LOOP_CASES = [
    (lambda: trivial_extension(path_algebra(multi_kronecker(3))), {"dim_cap": 20000},
     KRON3_BETTI, "dimension-cap"),
    (lambda: trivial_extension(path_algebra(multi_kronecker(3))), {"steps": 6},
     KRON3_BETTI[:6], "steps-exhausted"),
    (lambda: path_algebra(path_quiver(3)), {}, (3, 2, 0), "resolution-terminated"),
]


@pytest.mark.parametrize("build, bounds, betti, truncated_by", LOOP_CASES,
                         ids=["T(kron3)-capped", "T(kron3)-6-steps", "kA3"])
def test_each_step_covers_and_tops_once(monkeypatch, build, bounds, betti, truncated_by):
    # every trace entry but the last is one top, and every one but the
    # first and the last one cover too, the first kernel being rad P_v; a
    # terminated trace's zero closes its last projective without either: a
    # kernel built before the stop checks would cost a whole oversize step
    # on every capped or step-limited resolution, with the same bytes
    calls = {"kernel_of_cover": 0, "top_generators": 0}
    for name in calls:
        method = getattr(res_mod._FlatResolver, name)

        def counting(self, *args, method=method, name=name):
            calls[name] += 1
            return method(self, *args)

        monkeypatch.setattr(res_mod._FlatResolver, name, counting)
    trace = minimal_resolution(build(), 0, **bounds)
    assert (trace.betti, trace.truncated_by) == (betti, truncated_by)
    steps = len(betti) - 1 - (truncated_by == "resolution-terminated")
    assert calls == {"kernel_of_cover": steps - 1, "top_generators": steps}


def test_dense_and_sparse_engines_agree(monkeypatch):
    algebras = [
        trivial_extension(base)
        for base in [
            path_algebra(path_quiver(2)),
            path_algebra(multi_kronecker(2)),
            gentle_two_loop(),
            # affine E6: kernel vectors of three and more coordinates
            path_algebra(star_quiver((2, 2, 2))),
        ]
    ]
    # canonical (2,3,7) has non-monomial relations, so its arrows are not
    # just the length-1 paths, and some products have two terms
    for base in [path_algebra(path_quiver(3)), canonical_237()]:
        algebras += [base, trivial_extension(base)]
    # the general branch is checked against the oracle too: vectors of
    # three or more coordinates, and one-coordinate vectors whose table
    # rows have two terms; and the summed images of vectors of two or more
    # coordinates: a cover image that cancels to zero and an arrow image
    # that cancels to zero; and the three ways insert() takes a one-term
    # cover image, read off the engine's own echelon: at a free lead, where
    # it is stored as (c, column), on a one-term entry (c, u), and on a row
    # whose vector or expression is longer
    reached = {
        "long vectors": 0,
        "two-term rows": 0,
        "cover cancels": 0,
        "top cancels": 0,
        "cover one-term at a free lead": 0,
        "cover one-term on a (c, u) entry": 0,
        "cover one-term on a longer row or expression": 0,
        # both forms of kernel vector reach the oracle comparison
        "int unit vectors": 0,
        "multi-term tuples": 0,
    }
    top, cover = res_mod._FlatResolver.top_generators, res_mod._FlatResolver.kernel_of_cover

    class Probe(TrackedEchelon):
        __slots__ = ()

        # only the cover inserts; the top and the engine's setup add
        def insert(self, vec, expr):
            if len(vec) != 1:
                return super().insert(vec, expr)
            ((k, c),) = vec.items()
            (column,) = expr
            held = self.pivots.get(k)
            relation = super().insert(vec, expr)
            if held is None:
                assert relation is None and self.pivots[k] == (c, column)
                reached["cover one-term at a free lead"] += 1
            elif type(held[0]) is not dict:
                assert held[1] is not None
                reached["cover one-term on a (c, u) entry"] += 1
            else:
                assert len(held[0]) > 1 or len(held[1]) > 1
                reached["cover one-term on a longer row or expression"] += 1
            return relation

    def recording(self, kernel, syzygy):
        for vec in kernel:
            if type(vec) is int:
                reached["int unit vectors"] += 1
            else:
                reached["multi-term tuples"] += type(vec) is tuple and len(vec) >= 4
            vec = sparse_vector(vec)
            if len(vec) >= 3:
                reached["long vectors"] += 1
            elif len(vec) == 1:
                (coord,) = vec
                rows = self.left[coord % self.dim].values()
                reached["two-term rows"] += any(len(row) == 2 for row in rows)
            for summed, image in table_images(self, vec, self.arrows):
                if len(vec) >= 2 and summed and not image:
                    reached["top cancels"] += 1
        return top(self, kernel, syzygy)

    def covering(self, gens):
        for gen in gens:
            gen = sparse_vector(gen)
            v = self.vertex_of[max(gen) % self.dim]
            if len(gen) >= 2:
                for summed, image in table_images(self, gen, self.rad_coords[v]):
                    reached["cover cancels"] += summed and not image
        return cover(self, gens)

    monkeypatch.setattr(res_mod._FlatResolver, "top_generators", recording)
    monkeypatch.setattr(res_mod._FlatResolver, "kernel_of_cover", covering)
    monkeypatch.setattr(res_mod, "TrackedEchelon", Probe)
    for a in algebras:
        rad = radical_vectors(a)
        for p, s in enumerate(simple_modules(a)):
            assert minimal_resolution(a, p, 8) == dense_trace(a, s, 8, rad)
    assert all(reached.values()), reached


def test_cover_relations_are_the_ones_insert_returns(monkeypatch):
    # insert() keeps the cover's one-term rows as (c, column) entries that
    # its reduction reads next to its rows, so every kernel is checked,
    # value and type, against the relations of an echelon that stores each
    # one-term row as the dict pair ({k: c}, {column: 1}), on the images
    # multiplied out from the table; the Betti numbers alone would not see
    # a wrong sign or an entry the reduction misread
    algebras = [
        trivial_extension(path_algebra(multi_kronecker(2))),
        trivial_extension(gentle_two_loop()),
        trivial_extension(path_algebra(star_quiver((2, 2, 2)))),
        trivial_extension(canonical_237()),
        # a Fraction lambda puts non-integral coefficients in the table
        trivial_extension(canonical_algebra(CanonicalSpec((2, 2, 3), (Fraction(-1, 2),)))),
    ]
    cover = res_mod._FlatResolver.kernel_of_cover
    reached = {
        "one-term on one-term": 0,
        "coefficient not 1": 0,
        "Fraction": 0,
        # covers whose longer images meet one-term entries (c, column)
        "longer image on entries": 0,
    }

    made = []

    class DictRows(TrackedEchelon):
        """Stores every one-term row with its expression as a dict pair."""

        __slots__ = ()

        def insert(self, vec, expr):
            relation = super().insert(vec, expr)
            if relation is None:
                lead, (c, u) = next(reversed(self.pivots.items()))
                if type(c) is not dict and u is not None:
                    self.pivots[lead] = ({lead: c}, {u: 1})
            return relation

    class Entries(TrackedEchelon):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            made.append(self)

        def insert(self, vec, expr):
            entries = any(type(row) is not dict for row, _ in self.pivots.values())
            reached["longer image on entries"] += entries and len(vec) > 1
            return super().insert(vec, expr)

    def comparing(self, gens):
        made.clear()
        with monkeypatch.context() as patch:
            patch.setattr(res_mod, "TrackedEchelon", Entries)
            kernel = cover(self, gens)
        (echelon,) = made
        # a one-term image at a free coordinate is kept as its (c, column)
        # entry, so no row is one-term with a one-term expression
        for row, expr in echelon.pivots.values():
            assert type(row) is not dict or len(row) > 1 or len(expr) > 1
        echelon = DictRows()
        expected = []
        for copy, gen in enumerate(gens):
            gen = sparse_vector(gen)
            v = self.vertex_of[max(gen) % self.dim]
            images = table_images(self, gen, self.rad_coords[v])
            for m, (_, image) in zip(self.rad_coords[v], images):
                column = copy * self.dim + m
                if len(image) == 1:
                    (k,) = image
                    held = echelon.pivots.get(k)
                    if held and len(held[0]) == 1 and len(held[1]) == 1:
                        reached["one-term on one-term"] += 1
                        (u,) = held[1]
                        ratio = Fraction(image[k]) * held[1][u] / held[0][k]
                        reached["coefficient not 1"] += ratio != 1
                        reached["Fraction"] += ratio.denominator != 1
                # a zero image's relation is its column, a unit as an int
                relation = echelon.insert(image, {column: 1}) if image else column
                if relation is not None:
                    expected.append(relation)
        assert all(type(row) is dict for row, _ in echelon.pivots.values())
        # an int unit for a zero image, a lead-first tuple for the others
        assert all(is_engine_vector(r) for r in kernel)
        assert [type(r) for r in kernel] == [int if type(r) is int else tuple for r in expected]
        kernel_terms = [sparse_vector(r) for r in kernel]
        expected = [{r: 1} if type(r) is int else r for r in expected]
        assert kernel_terms == expected
        assert [[type(x) for x in r.values()] for r in kernel_terms] == [
            [type(x) for x in r.values()] for r in expected
        ]
        return kernel

    monkeypatch.setattr(res_mod._FlatResolver, "kernel_of_cover", comparing)
    for a in algebras:
        for vertex in range(len(a.vertices)):
            minimal_resolution(a, vertex, 8)
    assert all(reached.values()), reached


def table_images(engine, vec, elements):
    """(summed, b*vec) for each basis element b, multiplied out from the
    algebra's table; summed says whether two or more coordinates of vec
    contributed to b*vec."""
    a, d = engine.alg, engine.dim
    for b in elements:
        image: dict = {}
        contributions = 0
        for coord, c in vec.items():
            n = coord % d
            row = a.mult.get((b, n), {})
            contributions += bool(row)
            for k, ck in row.items():
                key = coord - n + k
                image[key] = image.get(key, 0) + c * ck
        yield contributions >= 2, {k: x for k, x in image.items() if x}


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
    idem = set(a.idempotents)
    units = [m for m in range(a.dim) if m not in idem]
    assert jacobson_radical(a) == units


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
def test_simples_read_off_the_idempotents_equal_the_inverted_ones(name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    assert simple_modules(a) == inverted_simples(a, trace_form_radical(a))


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
    rad = [{m: 1} for m in jacobson_radical(a)]
    rad2 = TrackedEchelon()
    for x in rad:
        for y in rad:
            rad2.add(a.multiply(x, y))
    assert len(arrows) == len(rad) - rad2.rank()
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
def test_syzygy_relations_are_in_lead_form(monkeypatch, name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    engine = res_mod._FlatResolver(a)
    d, vertex_of = engine.dim, engine.vertex_of
    columns = eliminated_columns(monkeypatch)
    steps = 0
    for vertex in range(len(a.vertices)):
        for kernel in engine_kernels(engine, vertex, 6):
            # the two facts the tops rest on: every relation sits at one
            # vertex, and no two relations share a largest flat coordinate
            leads = [max(vec) for vec in kernel]
            assert len(set(leads)) == len(leads)
            for vec in kernel:
                assert len({vertex_of[coord % d] for coord in vec}) == 1
            steps += 1
    assert steps > 0
    # the flat covers, too, eliminate no generator column e_v * gen
    assert columns or not extend
    assert not [c for c in columns if c % d in engine.idem]


def eliminated_columns(monkeypatch) -> list:
    """Patch the cover kernel to log each column b_m * gen it eliminates,
    one with a nonzero image, which goes through `TrackedEchelon.insert`;
    returns the log.

    Columns are decided in increasing order, each either kept in the
    cover's echelon, as a row with the column as its expression's largest
    key or as a one-term entry (c, column), or returned as a relation of
    two or more terms, with the column as its largest key; a zero image is
    returned as its column alone and is not logged.
    """
    columns = []
    echelons = []

    class Recording(TrackedEchelon):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            echelons.append(self)

    kernel_of_cover = res_mod._FlatResolver.kernel_of_cover

    def logged(self, gens):
        echelons.clear()
        kernel = kernel_of_cover(self, gens)
        for echelon in echelons:
            columns.extend(expr if type(expr) is int else max(expr)
                           for _, expr in echelon.pivots.values())
        columns.extend(max(relation) for relation in map(sparse_vector, kernel)
                       if len(relation) > 1)
        return kernel

    monkeypatch.setattr(res_mod, "TrackedEchelon", Recording)
    monkeypatch.setattr(res_mod._FlatResolver, "kernel_of_cover", logged)
    return columns


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
def test_first_kernel_is_the_dense_cover_kernel(monkeypatch, name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    rad = radical_vectors(a)
    top = res_mod._FlatResolver.top_generators
    checked = 0
    for vertex, simple in enumerate(simple_modules(a)):
        # the kernel minimal_resolution hands to its first top_generators
        # is rad P_v, read off the engine's rad_coords
        kernels = []

        def recording(self, kernel, syzygy):
            kernels.append(kernel)
            return top(self, kernel, syzygy)

        cover, verts = cover_data(a, simple, rad)
        expected = flat_kernel(a, verts, cover.kernel_basis())
        with monkeypatch.context() as patch:
            columns = eliminated_columns(patch)
            patch.setattr(res_mod._FlatResolver, "top_generators", recording)
            minimal_resolution(a, vertex, 3)
        if not expected:
            assert kernels == []
            continue
        assert [sparse_vector(vec) for vec in kernels[0]] == expected
        # the next step's cover eliminated only the radical columns, never
        # e_v * gen
        assert not [c for c in columns if c % a.dim in set(a.idempotents)]
        checked += len(kernels[0])
    assert checked


def test_top_refuses_a_kernel_not_in_lead_form():
    engine = res_mod._FlatResolver(trivial_extension(path_algebra(multi_kronecker(2))))
    by_target: dict = {}
    for m in range(engine.dim):
        if m not in engine.idem:
            by_target.setdefault(engine.vertex_of[m], []).append(m)
    (m1, m2, *_), (n1, *_) = by_target.values()
    idem = min(engine.idem)
    d = engine.dim
    cases = [
        ([(m1, 1)], 2, "syzygy dimension mismatch"),
        ([(idem, 1)], 1, "resolution step is not minimal"),
        ([(max(m1, n1), 1, min(m1, n1), 1)], 1, "syzygy relation spans two vertices"),
        ([(m2, 1, m1, 1), (m2, 1)], 2, "two syzygy relations share a leading coordinate"),
        # the repeat comes after a larger lead, in a later copy
        ([(m1, 1), (d + m2, 1), (m1, 1)], 3, "two syzygy relations share a leading coordinate"),
        # an idempotent coordinate below the lead of a two-coordinate vector
        ([(d + m1, 1, idem, 1)], 1, "resolution step is not minimal"),
        # a tuple must start with its largest coordinate, the lead
        ([(m1, 1, m2, 1)], 1, "syzygy relation does not lead with its largest coordinate"),
        ([(m1, 1, d + m1, 1)], 1, "syzygy relation does not lead with its largest coordinate"),
        # units in the engine's form, bare int coordinates: an idempotent
        # one, a repeat after a larger lead, and one on a tuple's lead
        ([idem], 1, "resolution step is not minimal"),
        ([m1, d + m2, m1], 3, "two syzygy relations share a leading coordinate"),
        ([(m2, 1, m1, 1), m2], 2, "two syzygy relations share a leading coordinate"),
    ]
    for kernel, syzygy, message in cases:
        with pytest.raises(RuntimeError, match=message):
            engine.top_generators(kernel, syzygy)

    def vertex(gen):
        """A generator's vertex, the target of its lead."""
        return engine.vertex_of[(gen if type(gen) is int else gen[0]) % d]

    # n1 is the socle at its vertex, and the arrows take both a0 + a1 and
    # a0 to it: the lead form is accepted and the span is a submodule
    v = engine.vertex_of[m1]
    kernel = [(m2, 1, m1, 1), (m1, 1), (n1, 2)]
    gens = engine.top_generators(kernel, 3)
    assert gens == kernel[:2] and [vertex(g) for g in gens] == [v, v]
    # the same span with its unit as an int: generators come back as they came
    kernel = [(m2, 1, m1, 1), m1, (n1, 2)]
    gens = engine.top_generators(kernel, 3)
    assert gens == kernel[:2] and [vertex(g) for g in gens] == [v, v]
    # the lead form is accepted, but the arrows take the span to the socle
    # coordinates n1 and d + n1, which it lacks; with them it is a submodule
    kernel = [(d + m2, 1), (m1, 1), (d + m1, 1, m2, 3)]
    with pytest.raises(RuntimeError, match="arrow images leave the syzygy"):
        engine.top_generators(kernel, 3)
    socle = [(n1, 1), (d + n1, 1)]
    gens = engine.top_generators(kernel + socle, 5)
    assert gens == kernel and [vertex(g) for g in gens] == [v] * 3


def test_top_refuses_a_span_that_is_not_a_submodule():
    # one arrow alone spans no submodule of P: an arrow takes it to a new lead
    engine = res_mod._FlatResolver(trivial_extension(path_algebra(path_quiver(2))))
    m = next(m for m in engine.arrows if not engine.left[m].keys().isdisjoint(engine.arrows))
    with pytest.raises(RuntimeError, match="arrow images leave the syzygy"):
        engine.top_generators([m], 1)


def test_top_reduces_a_one_term_image_on_a_longer_row():
    # v -s-> w, v -t-> w, w -b-> z, with t listed before s but b*t after
    # b*s: rad P_v = <s, t, bs, bt> in the lead-form basis s + t, t, bs,
    # bt.  The arrow image of s + t, bs + bt, is kept at lead bt; t's image
    # bt lands on that longer row and reduces to the new lead bs, so rad K
    # has leads bs and bt and the top is s + t and t
    a = path_algebra(quiver_from_data({
        "vertices": ["v", "w", "z"],
        "arrows": [
            {"id": "s", "from": "v", "to": "w"},
            {"id": "t", "from": "v", "to": "w"},
            {"id": "b", "from": "w", "to": "z"},
        ],
    }))
    labels = ["ev", "ew", "ez", "t", "s", "b", "bs", "bt"]
    order = [index_of(a, label) for label in labels]
    new = {old: i for i, old in enumerate(order)}
    a = SCAlgebra(
        a.vertices,
        tuple(a.basis[old] for old in order),
        tuple(new[e] for e in a.idempotents),
        {(new[i], new[j]): {new[k]: c for k, c in row.items()} for (i, j), row in a.mult.items()},
    )
    a.verify()
    t, s, bs, bt = (labels.index(x) for x in ("t", "s", "bs", "bt"))
    engine = res_mod._FlatResolver(a)
    w = a.vertices.index("w")
    kernel = [(s, 1, t, 1), t, bs, bt]
    gens = engine.top_generators(kernel, 4)
    assert gens == [(s, 1, t, 1), t]
    assert [engine.vertex_of[(g if type(g) is int else g[0]) % engine.dim] for g in gens] == [w, w]
    v = a.vertices.index("v")
    assert minimal_resolution(a, v) == dense_trace(a, simple_modules(a)[v], 40, radical_vectors(a))


def dual_numbers_on_unadapted_basis():
    """k[x]/(x^2) on the basis {e, b = e + x}, whose radical is spanned by b - e."""
    return SCAlgebra(
        ("v",),
        (BasisElement("e", "v", "v"), BasisElement("b", "v", "v")),
        (0,),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {0: -1, 1: 2}},
    )


def rebased_gentle_two_loop():
    """gentle_two_loop() with its basis element b1 replaced by e1 + b1."""
    a = gentle_two_loop()
    e1, b1 = index_of(a, "e1"), index_of(a, "b1")

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
    # a basic algebra with its radical, but b1 = e1 + b1_old is no radical
    # element: the trace form finds the radical, the certificate refuses
    a = rebased_gentle_two_loop()
    a.verify()
    rad = trace_form_radical(a)
    assert len(rad) == 6
    assert any(vec[index_of(a, "e1")] for vec in rad)
    with pytest.raises(ValueError, match=r"step \(b\): b1\*b1 has an idempotent term"):
        jacobson_radical(a)


def idempotent_loop():
    """One vertex and x*x = x: the span of x is an ideal, but not nilpotent."""
    return SCAlgebra(
        ("v",),
        (BasisElement("e", "v", "v"), BasisElement("x", "v", "v")),
        (0,),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}, (1, 1): {1: 1}},
    )


def misplaced_idempotent():
    """k[x]/(x^2) with the nilpotent x given as the vertex's idempotent."""
    return SCAlgebra(
        ("v",),
        (BasisElement("e", "v", "v"), BasisElement("x", "v", "v")),
        (1,),
        {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}},
    )


REFUSALS = [
    (dual_numbers_on_unadapted_basis, r"step \(b\): b\*b has an idempotent term"),
    (rebased_gentle_two_loop, r"step \(b\): b1\*b1 has an idempotent term"),
    (idempotent_loop, r"step \(c\): .* close a cycle that reaches x,"),
    (misplaced_idempotent, r"step \(a\): x\*x is not x modulo"),
]


@pytest.mark.parametrize(
    "build, message",
    REFUSALS,
    ids=["dual-numbers", "rebased-gentle", "idempotent-loop", "misplaced-idempotent"],
)
def test_unadapted_bases_are_refused(build, message):
    # every entry point certifies the radical first, and names the failed step
    a = build()
    calls = [
        lambda: jacobson_radical(a),
        lambda: simple_modules(a),
        lambda: minimal_resolution(a, 0, steps=6),
        lambda: res_mod.resolve_simple_modules(a, steps=6),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="radical certificate, " + message):
            call()


UNADAPTED = [
    (dual_numbers_on_unadapted_basis, lambda: trivial_extension(point_algebra())),
    (rebased_gentle_two_loop, gentle_two_loop),
]


@pytest.mark.parametrize("build, adapted", UNADAPTED, ids=["dual-numbers", "gentle"])
def test_rebased_resolutions_match_the_dense_oracle(build, adapted):
    # Betti numbers do not depend on the basis: the dense oracle on the
    # unadapted basis, from the trace-form radical, gives the engine's
    # traces on the adapted one
    a = build()
    a.verify()
    rad = trace_form_radical(a)
    traces = [dense_trace(a, s, 6, rad) for s in inverted_simples(a, rad)]
    assert traces == res_mod.resolve_simple_modules(adapted(), steps=6)
    assert traces[0].betti == (2,) * 6


def test_radical_check_refuses_a_one_sided_candidate():
    a = path_algebra(path_quiver(2))
    e1 = tuple(Fraction(int(k == a.idempotents[0])) for k in range(a.dim))
    with pytest.raises(RuntimeError, match="not a two-sided ideal"):
        verify_nilpotent_ideal(a, [e1])


def test_radical_check_refuses_a_non_nilpotent_candidate():
    with pytest.raises(RuntimeError, match="not nilpotent"):
        verify_nilpotent_ideal(point_algebra(), [(Fraction(1),)])


def rebased_gentle_vectors(a, *elements):
    """Dense vectors on the rebased basis of the given label combinations.

    "b1" names the original arrow b1, which is b1 - e1 on the rebased basis.
    """
    out = []
    for element in elements:
        vec = [0] * a.dim
        for label, c in element.items():
            vec[index_of(a, label)] += c
            if label == "b1":
                vec[index_of(a, "e1")] -= c
        out.append(tuple(vec))
    return out


def test_radical_check_refuses_a_one_sided_candidate_of_several_coordinates():
    # A*b1 is spanned by b1, but b1*a = b1a is not
    a = rebased_gentle_two_loop()
    candidate = rebased_gentle_vectors(a, {"b1": 1})
    assert sum(1 for c in candidate[0] if c) == 2
    with pytest.raises(RuntimeError, match="not a two-sided ideal"):
        verify_nilpotent_ideal(a, candidate)


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
        verify_nilpotent_ideal(a, candidate)


def test_radical_check_multiplies_where_the_table_allows(monkeypatch):
    # the certificate reads the table once and multiplies nothing
    ta = trivial_extension(path_algebra(path_quiver(12)))
    calls = count_multiplies(monkeypatch)
    assert len(jacobson_radical(ta)) == ta.dim - 12
    assert calls == []


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


def count_engine_builds(monkeypatch) -> list:
    """Patch `_FlatResolver.__init__` to log the algebra of each build."""
    builds = []
    init = res_mod._FlatResolver.__init__

    def counting(self, a):
        builds.append(a)
        init(self, a)

    monkeypatch.setattr(res_mod._FlatResolver, "__init__", counting)
    return builds


def test_resolve_simple_modules_builds_one_engine(monkeypatch):
    # the four simples share it
    ta = trivial_extension(path_algebra(path_quiver(4)))
    builds = count_engine_builds(monkeypatch)
    res_mod.resolve_simple_modules(ta, steps=8)
    assert builds == [ta]


@pytest.mark.parametrize("build", [lambda: trivial_extension(gentle_two_loop()),
                                   lambda: path_algebra(path_quiver(3))],
                         ids=["adapted", "A3"])
def test_minimal_resolution_sets_up_once_per_algebra(monkeypatch, build):
    a = build()
    builds = count_engine_builds(monkeypatch)
    traces = [minimal_resolution(a, p, 6) for p in list(range(len(a.vertices))) * 2]
    rad = radical_vectors(a)
    assert traces == [dense_trace(a, s, 6, rad) for s in simple_modules(a) * 2]
    assert len(builds) == 1
    # a new algebra gets its own engine
    other = build()
    minimal_resolution(other, 0, 6)
    assert len(builds) == 2 and builds[1] is not builds[0]


# the builders' algebras, then every builder output and every base of the
# benchmark ladder, each as it is and extended (an extension again for the
# outputs that are extensions already)
SERIAL_CASES = (
    [("builders", name, extend) for name, extend in ARROW_CASES]
    + [("outputs", name, extend) for name, _ in builder_outputs() for extend in (False, True)]
    + [("bench", name, extend) for name, _ in bench_ladder() for extend in (False, True)]
)


@pytest.mark.parametrize(
    "source, name, extend",
    SERIAL_CASES,
    ids=[f"{name}-{'trivext' if extend else 'base'}" if source == "builders"
         else f"{source}-{name}-{'trivext' if extend else 'base'}"
         for source, name, extend in SERIAL_CASES],
)
def test_resolve_simple_modules_is_each_simples_own_resolution(source, name, extend):
    # every simple's trace in one call is the trace of its own resolution
    if source == "builders":
        a = BUILDERS[name]()
    else:
        a = dict(builder_outputs() if source == "outputs" else bench_ladder())[name]
    if extend:
        a = trivial_extension(a)
    serial = [minimal_resolution(a, p, 8) for p in range(len(a.vertices))]
    assert res_mod.resolve_simple_modules(a, steps=8) == serial


# each builds the refusal from its message: KeyError quotes it in str(), a
# FrozenInstanceError is no builtin, and OSError(errno, message) is a subclass
REFUSALS = {
    "RuntimeError": RuntimeError,
    "ValueError": ValueError,
    "ZeroDivisionError": ZeroDivisionError,
    "KeyError": KeyError,
    "FrozenInstanceError": FrozenInstanceError,
    "OSError-errno": lambda message: OSError(errno.ENOENT, message),
}


@pytest.mark.parametrize("kind", list(REFUSALS.values()), ids=list(REFUSALS))
@pytest.mark.parametrize("refused", [(0, 1), (1, 2), (2, 3)])
def test_resolve_simple_modules_raises_the_lowest_refusal(monkeypatch, refused, kind):
    ta = trivial_extension(path_algebra(path_quiver(4)))
    chosen = [ta.vertices[i] for i in refused]
    top = res_mod._FlatResolver.top_generators
    resolve = res_mod.minimal_resolution
    current = [None]

    def starting(a, vertex, *args):
        # one engine serves every simple of the algebra, each resolved by
        # its own minimal_resolution call
        current[0] = a.vertices[vertex]
        return resolve(a, vertex, *args)

    def refusing(self, kernel, syzygy):
        if current[0] in chosen:
            raise kind(f"refused {current[0]}")
        return top(self, kernel, syzygy)

    monkeypatch.setattr(res_mod, "minimal_resolution", starting)
    monkeypatch.setattr(res_mod._FlatResolver, "top_generators", refusing)
    expected = kind(f"refused {chosen[0]}")
    with pytest.raises(type(expected)) as caught:
        res_mod.resolve_simple_modules(ta, steps=8)
    assert type(caught.value) is type(expected)
    assert str(caught.value) == str(expected)
    assert caught.value.args == expected.args


def test_an_interrupt_propagates(monkeypatch):
    ta = trivial_extension(path_algebra(multi_kronecker(2)))

    def interrupted(self, kernel, syzygy):
        raise KeyboardInterrupt

    monkeypatch.setattr(res_mod._FlatResolver, "top_generators", interrupted)
    with pytest.raises(KeyboardInterrupt):
        res_mod.resolve_simple_modules(ta, steps=8)


def workload_algebra(doc, extend: bool = True):
    """The path algebra of a quiver document of the benchmark, extended."""
    a = path_algebra(quiver_from_data(doc))
    return trivial_extension(a) if extend else a


def test_the_lowest_failing_simple_raises_its_own_error(monkeypatch):
    # the simples resolve one after another in vertex order: a refusal
    # raises at once, and of several the lowest vertex's is met first
    ta = workload_algebra(bench_module("workloads").E6_AFFINE)
    resolve = res_mod.minimal_resolution
    refused = set()

    def refusing(a, vertex, steps, dim_cap):
        if a.vertices[vertex] in refused:
            raise ValueError(f"refused {a.vertices[vertex]}")
        return resolve(a, vertex, steps, dim_cap)

    monkeypatch.setattr(res_mod, "minimal_resolution", refusing)
    assert res_mod.resolve_simple_modules(ta, steps=6) == [
        resolve(ta, p, 6) for p in range(len(ta.vertices))]
    for chosen, first in (({"2.2"}, "2.2"), ({"1.1", "2.2", "0.2"}, "0.2"),
                          ({"c", "2.1"}, "c")):
        refused.clear()
        refused.update(chosen)
        with pytest.raises(ValueError) as caught:
            res_mod.resolve_simple_modules(ta, steps=6)
        assert caught.value.args == (f"refused {first}",)


@pytest.mark.parametrize("name", ["E8", "E6_AFFINE"])
def test_every_simple_resolves_in_the_calling_process(monkeypatch, name):
    # every simple of T(kE8) and of T(kE6-affine) resolves; none may fork
    # to do it
    ta = workload_algebra(getattr(bench_module("workloads"), name))
    expected = [minimal_resolution(ta, p, 10) for p in range(len(ta.vertices))]

    def refusing():
        raise AssertionError("resolve_simple_modules forked")

    monkeypatch.setattr(os, "fork", refusing)
    assert res_mod.resolve_simple_modules(ta, steps=10) == expected


# --- input validation -----------------------------------------------------

def test_resolution_rejects_a_vertex_out_of_range():
    a = path_algebra(path_quiver(2))
    for vertex in (-1, 2):
        with pytest.raises(ValueError, match=f"no vertex at position {vertex}"):
            minimal_resolution(a, vertex)


def test_resolution_rejects_bad_bounds():
    a = path_algebra(path_quiver(2))
    with pytest.raises(ValueError):
        minimal_resolution(a, 0, steps=0)
    with pytest.raises(ValueError):
        minimal_resolution(a, 0, dim_cap=0)


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


def test_repeated_resolutions_agree():
    ta = trivial_extension(path_algebra(multi_kronecker(2)))
    baseline = res_mod.resolve_simple_modules(ta, steps=10, dim_cap=100000)
    again = res_mod.resolve_simple_modules(ta, steps=10, dim_cap=100000)
    assert baseline == again
