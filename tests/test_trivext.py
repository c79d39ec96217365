"""Trivial extensions: grading, multiplication of duals, symmetric form.

Hand expectations on TA of the A2 path algebra (basis e1, e2, a and duals):
a^* composes with a on either side to give an idempotent dual, duals
multiply to zero, and the pairing matches basis elements with their duals.
trivial_extension does not verify its output, so the laws are checked
here, on every builder output and every base of the benchmark.
"""
from fractions import Fraction

import pytest

from quiverlab import CanonicalSpec, canonical_algebra, path_algebra, trivial_extension
from conftest import (
    bench_ladder,
    builder_outputs,
    dual_pairing,
    gentle_two_loop,
    index_of,
    is_symmetric_form_associative,
    multi_kronecker,
    path_quiver,
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
