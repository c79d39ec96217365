"""Randomized and structural properties.

Builder outputs stay associative, Cayley-Hamilton holds on random rational
matrices, the cyclotomic profile is a conjugation invariant, and projective
covers are minimal in the kernel sense when the resolution is re-derived
from scratch with independent linear algebra.
"""
import random

import pytest

from quiverlab import (
    IntPolynomial,
    cartan_path_algebra,
    classify_quiver,
    coxeter_matrix,
    cyclotomic_profile,
    growth_degree,
    hereditary_entropy,
    path_algebra,
    quiver_from_data,
    simple_modules,
    trivial_extension,
    vector,
)

from conftest import (
    builder_outputs,
    check_cayley_hamilton_on_random_rational_matrices,
    check_profile_is_a_conjugation_invariant,
    companion_matrix,
    dim_vector,
    multi_kronecker,
    path_quiver,
    projective_cover,
    radical_vectors,
    random_unimodular,
    star_quiver,
    submodule_on_kernel,
    walk_and_check_minimality,
    wild3_quiver,
)


# --- associativity of every builder output ------------------------------------

@pytest.mark.parametrize(
    "algebra", [a for _, a in builder_outputs()], ids=[n for n, _ in builder_outputs()]
)
def test_builder_tables_satisfy_all_algebra_laws(algebra):
    algebra.verify()


# --- Cayley-Hamilton on random rational matrices --------------------------------

def test_cayley_hamilton_on_random_rational_matrices():
    check_cayley_hamilton_on_random_rational_matrices()


# --- conjugation invariance of the cyclotomic profile ------------------------------

def test_profile_is_a_conjugation_invariant():
    check_profile_is_a_conjugation_invariant()


def test_non_cyclotomic_profile_survives_conjugation():
    rng = random.Random(0xACE)
    m = companion_matrix(IntPolynomial((1, -7, 1)))
    base = cyclotomic_profile(m)
    assert not base.is_cyclotomic
    for _ in range(20):
        u = random_unimodular(rng, 2)
        assert cyclotomic_profile(u * m * u.inverse()) == base


# --- minimality of projective covers, re-derived from scratch ------------------------

def test_minimality_trivial_extension_a2_a3_full_depth():
    for n in (2, 3):
        ta = trivial_extension(path_algebra(path_quiver(n)))
        assert walk_and_check_minimality(ta, steps=40) == 40 * n


def test_minimality_trivial_extension_kronecker():
    ta = trivial_extension(path_algebra(multi_kronecker(2)))
    assert walk_and_check_minimality(ta, steps=8) == 16


def test_minimality_trivial_extension_3kronecker():
    ta = trivial_extension(path_algebra(multi_kronecker(3)))
    assert walk_and_check_minimality(ta, steps=3) == 6


def test_terminated_resolutions_telescope_to_the_module():
    # alternating sum of projective dimension vectors equals the module's
    for quiver in (path_quiver(3), multi_kronecker(2), star_quiver((1, 1, 1))):
        alg = path_algebra(quiver)
        rad = radical_vectors(alg)
        for simple in simple_modules(alg):
            target = list(dim_vector(simple))
            total = [0] * len(alg.vertices)
            sign = 1
            current = simple
            while current.dim:
                proj, cover = projective_cover(alg, current, rad)
                for i, d in enumerate(dim_vector(proj)):
                    total[i] += sign * d
                sign = -sign
                kernel = cover.kernel_basis()
                if not kernel:
                    break
                current = submodule_on_kernel(alg, proj, kernel)
            assert total == target


# --- growth degree against the nilpotency exponent ------------------------------------

def test_polynomial_growth_degree_bounded_by_nilpotency():
    rng = random.Random(7)
    cases = (
        (coxeter_matrix(cartan_path_algebra(multi_kronecker(2))), 1),
        (coxeter_matrix(cartan_path_algebra(path_quiver(2))), 0),
    )
    for phi, bound in cases:
        profile = cyclotomic_profile(phi)
        assert profile.witness is not None
        assert profile.witness[1] - 1 == bound
        for _ in range(10):
            v = [rng.randint(-5, 5) for _ in range(phi.rows)]
            if not any(v):
                v[0] = 1
            estimate = growth_degree(phi, vector(v), steps=40)
            assert estimate.kind == "polynomial"
            assert estimate.degree <= bound


def test_exact_zero_entropy_is_the_cyclotomic_decision():
    # the entropy report prints h0 = 0 exactly when hereditary_entropy returns
    # 0.0, in place of a cyclotomic profile of the Coxeter matrix
    quivers = [path_quiver(n) for n in range(2, 13)]
    quivers += [star_quiver((1, 1, n - 3)) for n in range(4, 9)]
    quivers += [star_quiver((1, 2, n - 4)) for n in range(6, 9)]
    quivers += [multi_kronecker(k) for k in range(2, 5)]
    quivers += [wild3_quiver(), star_quiver((1, 2, 6))]
    decisions = set()
    for q in quivers:
        h0, _ = hereditary_entropy(q)
        cyclotomic = cyclotomic_profile(coxeter_matrix(cartan_path_algebra(q))).is_cyclotomic
        assert (h0 == 0.0) == cyclotomic
        decisions.add(cyclotomic)
    assert decisions == {True, False}


# --- classification ignores arrow orientation -------------------------------------------

def test_classification_ignores_orientation():
    rng = random.Random(99)
    shapes = {
        "A5": ([1, 2, 3, 4, 5], [(1, 2), (2, 3), (3, 4), (4, 5)]),
        "D4~": ([0, 1, 2, 3, 4], [(1, 0), (2, 0), (3, 0), (4, 0)]),
    }
    for vertices, edges in shapes.values():
        reference = None
        for _ in range(12):
            arrows = []
            for k, (s, t) in enumerate(edges):
                if rng.random() < 0.5:
                    s, t = t, s
                arrows.append({"id": f"e{k}", "from": s, "to": t})
            q = quiver_from_data({"vertices": vertices, "arrows": arrows})
            result = classify_quiver(q)
            key = (result.kind, result.radical_vector)
            if reference is None:
                reference = key
            assert key == reference
