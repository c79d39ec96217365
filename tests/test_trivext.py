"""Trivial extensions: grading, multiplication of duals, symmetric form.

Hand expectations on TA of the A2 path algebra (basis e1, e2, a and duals):
a^* composes with a on either side to give an idempotent dual, duals
multiply to zero, and the pairing matches basis elements with their duals.
trivial_extension does not verify its output, so the laws are checked
here, on every builder output and every base of the benchmark.

string_traces, the string route of T(gentle), is checked against the
resolution engine simple by simple, on seeded random gentle presentations
and on the bench's two gentle bases at 200 steps, and each certificate of
its premise is shown to refuse a table that breaks it.
"""
import json
import random
from fractions import Fraction

import pytest

from quiverlab import (
    BasisElement,
    CanonicalSpec,
    SCAlgebra,
    canonical_algebra,
    gentle_algebra,
    minimal_resolution,
    parse_gentle,
    path_algebra,
    trivial_extension,
)
from quiverlab.trivext import string_traces
from conftest import (
    GENTLE_TWO_LOOP_DOC,
    bench_ladder,
    builder_outputs,
    dual_pairing,
    gentle_two_loop,
    index_of,
    is_symmetric_form_associative,
    multi_kronecker,
    path_quiver,
    random_gentle_presentation,
)


def ta_a2():
    return trivial_extension(path_algebra(path_quiver(2)))


def one(alg, label):
    return {index_of(alg, label): Fraction(1)}


def extension_bases():
    """(name, base): A2, every builder output, the extensions among them
    included, every trivext base of the benchmark, and canonical (2,3,7)
    and (5,6,7)."""
    yield "A2", path_algebra(path_quiver(2))
    yield from builder_outputs()
    yield from bench_ladder()
    yield "canonical-567", canonical_algebra(CanonicalSpec((5, 6, 7), (1,)))


def test_dimension_doubles_and_verifies():
    for name, base in extension_bases():
        ta = trivial_extension(base)
        assert (ta.dim, ta.vertices) == (2 * base.dim, base.vertices), name
        try:
            ta.verify()
        except ValueError as exc:
            pytest.fail(f"T({name}): {exc}")


def test_dual_basis_reverses_endpoints_and_degree():
    ta = ta_a2()
    a = ta.basis[index_of(ta, "a1")]
    astar = ta.basis[index_of(ta, "a1^*")]
    assert (a.source, a.target, a.degree) == ("1", "2", 0)
    assert (astar.source, astar.target, astar.degree) == ("2", "1", 1)
    e1star = ta.basis[index_of(ta, "e1^*")]
    assert (e1star.source, e1star.target, e1star.degree) == ("1", "1", 1)


def test_dual_multiplication_rules():
    ta = ta_a2()

    def idx(label):
        return index_of(ta, label)

    # a^* after a lands on the dual idempotent at the source of a
    assert ta.product(idx("a1^*"), idx("a1")) == {idx("e1^*"): Fraction(1)}
    assert ta.product(idx("a1"), idx("a1^*")) == {idx("e2^*"): Fraction(1)}
    # the dual ideal is square-zero
    assert ta.product(idx("a1^*"), idx("e2^*")) == {}
    assert ta.product(idx("e1^*"), idx("a1^*")) == {}
    # idempotents act on duals through the reversed endpoints
    assert ta.product(idx("e1"), idx("a1^*")) == {idx("a1^*"): Fraction(1)}
    assert ta.product(idx("a1^*"), idx("e2")) == {idx("a1^*"): Fraction(1)}
    assert ta.product(idx("e2"), idx("a1^*")) == {}


def test_pairing_matches_duals():
    ta = ta_a2()
    assert dual_pairing(ta, one(ta, "a1"), one(ta, "a1^*")) == 1
    assert dual_pairing(ta, one(ta, "a1^*"), one(ta, "a1")) == 1
    assert dual_pairing(ta, one(ta, "a1"), one(ta, "a1")) == 0
    assert dual_pairing(ta, one(ta, "e1"), one(ta, "e2^*")) == 0


def test_pairing_is_nondegenerate():
    ta = ta_a2()
    for i in range(ta.dim):
        hits = [j for j in range(ta.dim) if dual_pairing(ta, {i: Fraction(1)}, {j: Fraction(1)})]
        assert len(hits) == 1


def test_form_associativity_on_extensions():
    for base in [
        path_algebra(path_quiver(2)),
        path_algebra(multi_kronecker(2)),
        gentle_two_loop(),
    ]:
        assert is_symmetric_form_associative(trivial_extension(base))


def test_pairing_requires_even_dimension():
    base = path_algebra(path_quiver(2))
    with pytest.raises(ValueError):
        dual_pairing(base, {0: Fraction(1)}, {0: Fraction(1)})


# --- the string route of T(gentle) ------------------------------------------

def engine_traces(t, steps, dim_cap=100000):
    return [minimal_resolution(t, p, steps, dim_cap) for p in range(len(t.vertices))]


def test_string_route_is_the_engine_on_random_gentle_presentations():
    # every simple of 300 finite-dimensional gentle presentations on at most
    # five vertices, loops and isolated vertices among them
    rng = random.Random(52)
    seen = {"loop": 0, "isolated": 0, "relations": 0}
    checked = 0
    while checked < 300:
        pres = random_gentle_presentation(rng, 5, 8)
        try:
            base = gentle_algebra(pres)
        except ValueError:  # a cycle that no relation breaks
            continue
        t = trivial_extension(base)
        assert string_traces(t, 40) == engine_traces(t, 40), pres
        q = pres.quiver
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        seen["isolated"] += any(all(v not in (a.source, a.target) for a in q.arrows)
                                for v in q.vertices)
        seen["relations"] += bool(pres.relations)
        checked += 1
    assert min(seen.values()) >= 30, seen


THREE_CYCLE_DOC = json.dumps({
    "vertices": [1, 2, 3],
    "arrows": [{"id": "a", "from": 1, "to": 2}, {"id": "b", "from": 2, "to": 3},
               {"id": "c", "from": 3, "to": 1}],
    "relations": [["a", "b"], ["b", "c"], ["c", "a"]],
})


@pytest.mark.parametrize("dim_cap", [100000, 60])
@pytest.mark.parametrize("document", [GENTLE_TWO_LOOP_DOC, THREE_CYCLE_DOC],
                         ids=["two-loop", "3-cycle"])
def test_string_route_is_the_engine_at_200_steps(document, dim_cap):
    t = trivial_extension(gentle_algebra(parse_gentle(document)))
    traces = string_traces(t, 200, dim_cap)
    assert traces == engine_traces(t, 200, dim_cap)
    assert {trace.truncated_by for trace in traces} == {
        "steps-exhausted" if dim_cap == 100000 else "dimension-cap"}


def one_vertex_table(labels, products) -> SCAlgebra:
    """An SCAlgebra on one vertex o: its idempotent e, then the elements
    of labels, with the unit laws and the given products, which need not
    be associative."""
    basis = (BasisElement("e", "o", "o"), *(BasisElement(x, "o", "o") for x in labels))
    mult = {**{(0, m): {m: 1} for m in range(len(basis))},
            **{(m, 0): {m: 1} for m in range(len(basis))}, **products}
    return SCAlgebra(("o",), basis, (0,), mult)


@pytest.mark.parametrize("build, message", [
    (lambda: trivial_extension(path_algebra(multi_kronecker(3))),
     r"P\(1\) has more than two arms"),
    # P(1) of kA3 is uniserial, with its socle at 3; the arms of P(1) of
    # the Kronecker algebra end in its two arrows
    (lambda: path_algebra(path_quiver(3)), r"the arms of P\(1\) end in no one socle element at 1"),
    (lambda: path_algebra(multi_kronecker(2)),
     r"the arms of P\(1\) end in no one socle element at 1"),
    # x*x = y*x = z: both arrows continue x
    (lambda: one_vertex_table("xyz", {(1, 1): {3: 1}, (2, 1): {3: 1}}), "x has two continuations"),
    # x*x = z + w
    (lambda: one_vertex_table("xzw", {(1, 1): {2: 1, 3: 1}}), "x has two continuations"),
    # y*x = x*y = z and x*z = s: both arms meet z
    (lambda: one_vertex_table("xyzs", {(2, 1): {3: 1}, (1, 2): {3: 1}, (1, 3): {4: 1}}),
     r"P\(o\) minus e_o is not its arms, each met once"),
    # x*x = z and z*z = w: no arm meets w
    (lambda: one_vertex_table("xzw", {(1, 1): {2: 1}, (2, 2): {3: 1}}),
     r"P\(o\) minus e_o is not its arms, each met once"),
    # a*x = y, a*y = z and a*z = y: the arm of x cycles through y and z
    (lambda: one_vertex_table("xayz", {(2, 1): {3: 1}, (2, 3): {4: 1}, (2, 4): {3: 1}}),
     "the arm of x meets y twice"),
], ids=["three-arms", "socle-elsewhere", "two-socles", "two-arrows-continue",
        "two-term-product", "met-twice", "never-met", "arm-cycle"])
def test_string_route_certifies_its_premise(build, message):
    with pytest.raises(RuntimeError, match=message):
        string_traces(build(), 8)
