"""Acceptance gate.

Nine criteria, one per test, each printing a single pass/fail line at the
stated tolerance.  Exact claims use exact arithmetic; the two empirical
criteria (entropy traces, Betti growth) carry the tolerances given in the
assertions.
"""
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from quiverlab import (
    CanonicalSpec,
    RatMatrix,
    canonical_algebra,
    canonical_verdict,
    cartan_matrix,
    cartan_path_algebra,
    classify_quiver,
    combine_estimates,
    complexity_estimate,
    coxeter_matrix,
    coxeter_necessary_check,
    growth_degree,
    hereditary_entropy,
    path_algebra,
    resolve_simple_modules,
    trivial_extension,
    vector,
    verify_k_shadow,
)
from quiverlab.fitting import fit_line

from conftest import (
    builder_outputs,
    check_cayley_hamilton_on_random_rational_matrices,
    check_profile_is_a_conjugation_invariant,
    gentle_two_loop,
    multi_kronecker,
    path_quiver,
    star_quiver,
    walk_and_check_minimality,
)


@contextmanager
def report_line(capsys, label):
    try:
        yield
    except BaseException:
        with capsys.disabled():
            print(f"\n{label}: FAIL")
        raise
    with capsys.disabled():
        print(f"\n{label}: PASS")


def test_criterion_1_trichotomy_table(capsys):
    with report_line(capsys, "criterion 1 (trichotomy table)"):
        finite = [path_quiver(n) for n in (2, 3, 4, 5)]
        finite += [
            star_quiver((1, 1, 1)),      # D4
            star_quiver((1, 2, 2)),      # E6
            star_quiver((1, 2, 3)),      # E7
            star_quiver((1, 2, 4)),      # E8
        ]
        for q in finite:
            assert classify_quiver(q).kind == "finite"

        kron = classify_quiver(multi_kronecker(2))
        assert kron.kind == "affine"
        assert kron.radical_vector == (1, 1)

        d4_affine = classify_quiver(star_quiver((1, 1, 1, 1), center_last=True))
        assert d4_affine.kind == "affine"
        assert d4_affine.radical_vector == (1, 1, 1, 1, 2)

        e6_affine = classify_quiver(star_quiver((2, 2, 2)))
        assert e6_affine.kind == "affine"
        radical = e6_affine.radical_vector
        assert radical[0] == 3  # center vertex comes first
        assert sorted(radical) == [1, 1, 1, 2, 2, 2, 3]
        assert math.gcd(*radical) == 1

        assert classify_quiver(multi_kronecker(3)).kind == "indefinite"
        assert classify_quiver(star_quiver((1, 1, 1, 1, 1))).kind == "indefinite"


def test_criterion_2_coxeter_periodicity(capsys):
    with report_line(capsys, "criterion 2 (coxeter periodicity)"):
        for n in (2, 3, 4):
            phi = coxeter_matrix(cartan_path_algebra(path_quiver(n)))
            eye = RatMatrix.identity(n)
            assert phi ** (n + 1) == eye
            for k in range(1, n + 1):
                assert phi ** k != eye

        phi = coxeter_matrix(cartan_path_algebra(multi_kronecker(2)))
        eye = RatMatrix.identity(2)
        assert ((phi - eye) ** 2).is_zero()
        for k in range(1, 25):
            assert phi ** k != eye


def test_criterion_3_canonical_delta_rule(capsys):
    with report_line(capsys, "criterion 3 (canonical delta rule)"):
        cases = [
            ((2, 3, 5), -1, 30, ("serre-cyclotomic", 2, 30, 30)),
            ((2, 3, 6), 0, 6, ("fractionally-calabi-yau", 1, 6, 6)),
            ((2, 3, 7), 1, 42, ("serre-cyclotomic", 2, -42, -42)),
            ((2, 2, 2, 2), 0, 2, ("fractionally-calabi-yau", 1, 2, 2)),
        ]
        for weights, want_delta, want_p, shape in cases:
            lambdas = tuple(Fraction(i) for i in range(1, len(weights) - 1))
            delta, p, verdict = canonical_verdict(CanonicalSpec(weights, lambdas))
            assert delta == want_delta
            assert p == want_p
            assert (verdict.kind, verdict.l, verdict.m, verdict.n) == shape


def test_criterion_4_canonical_cross_check(capsys):
    with report_line(capsys, "criterion 4 (canonical coxeter cross-check)"):
        for weights in ((2, 3, 5), (2, 3, 6), (2, 3, 7), (2, 2, 2, 2)):
            lambdas = tuple(Fraction(i) for i in range(1, len(weights) - 1))
            spec = CanonicalSpec(weights, lambdas)
            delta, p, _ = canonical_verdict(spec)
            phi = coxeter_matrix(cartan_matrix(canonical_algebra(spec)))
            report = coxeter_necessary_check(phi, l_max=2, n_max=2 * p)
            assert report.passed is True
            assert report.l <= 2
            assert (2 * p) % report.n == 0
            if delta == 0:
                assert report.l == 1


def test_criterion_5_gentle_example(capsys):
    with report_line(capsys, "criterion 5 (gentle example)"):
        algebra = gentle_two_loop()
        assert algebra.dim == 8
        cartan = cartan_matrix(algebra)
        assert cartan == RatMatrix([[2, 4], [0, 2]])
        phi = coxeter_matrix(cartan)
        assert phi == RatMatrix([[-1, 2], [-2, 3]])
        assert ((phi - RatMatrix.identity(2)) ** 2).is_zero()
        assert verify_k_shadow(phi.inverse().scale(-1), 2, 2, 2) is True


def test_criterion_6_entropy(capsys):
    with report_line(capsys, "criterion 6 (entropy, tolerance 0.05)"):
        target = math.log((7 + math.sqrt(45)) / 2)
        h0, trace = hereditary_entropy(multi_kronecker(3), iterations=60, tol=1e-4)
        assert abs(h0 - target) < 1e-4
        assert len(trace) == 60
        assert abs(trace[-1] - h0) < 0.05

        bounded = [
            multi_kronecker(2),
            path_quiver(2),
            path_quiver(5),
            star_quiver((1, 1, 1)),
        ]
        for quiver in bounded:
            h0, trace = hereditary_entropy(quiver, iterations=60, tol=1e-4)
            assert h0 == 0.0
            # bounded trace: the tail never rises above the burn-in window
            assert max(trace) <= max(trace[:10])
            assert trace[-1] < 0.12


def test_criterion_7_polynomial_growth_shadow(capsys):
    with report_line(capsys, "criterion 7 (polynomial growth shadow)"):
        phi = coxeter_matrix(cartan_path_algebra(multi_kronecker(2)))
        estimate = growth_degree(phi, vector((1, 0)), steps=60)
        assert (estimate.kind, estimate.degree) == ("polynomial", 1)

        phi = coxeter_matrix(cartan_path_algebra(path_quiver(2)))
        estimate = growth_degree(phi, vector((1, 0)), steps=60)
        assert (estimate.kind, estimate.degree) == ("polynomial", 0)


def test_criterion_8_complexity_trichotomy(capsys):
    with report_line(capsys, "criterion 8 (complexity trichotomy, < 30 s)"):
        start = time.perf_counter()
        suite = {}
        for name, k in (("A2", None), ("A3", None), ("kron2", 2), ("kron3", 3)):
            quiver = multi_kronecker(k) if k else path_quiver(int(name[1]))
            ta = trivial_extension(path_algebra(quiver))
            traces = resolve_simple_modules(ta, steps=40, dim_cap=100000)
            overall = combine_estimates(complexity_estimate(t) for t in traces)
            suite[name] = (traces, overall)
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0

        for name in ("A2", "A3"):
            _, overall = suite[name]
            assert overall.kind == "finite"
            assert overall.degree <= 1

        traces, overall = suite["kron2"]
        assert (overall.kind, overall.degree) == ("finite", 2)
        betti = traces[0].betti
        ks = list(range(10, len(betti)))
        slope, _, _ = fit_line(
            [math.log(k) for k in ks], [math.log(betti[k]) for k in ks]
        )
        assert abs(slope - 1.0) < 0.15

        traces, overall = suite["kron3"]
        assert overall.kind == "infinite"
        assert traces[0].truncated_by == "dimension-cap"
        betti = traces[0].betti
        ks = list(range(1, len(betti)))
        slope, _, _ = fit_line(
            [float(k) for k in ks], [math.log(betti[k]) for k in ks]
        )
        assert slope > 0.05


def test_criterion_9_property_suites(capsys):
    with report_line(capsys, "criterion 9 (property suites)"):
        # associativity of every builder output
        for _, algebra in builder_outputs():
            algebra.verify()

        # Cayley-Hamilton on 200 random 4x4 rational matrices
        check_cayley_hamilton_on_random_rational_matrices()

        # profile invariance under 100 random unimodular conjugations
        check_profile_is_a_conjugation_invariant()

        # minimality ker within rad*P: the resolution engine checks this at
        # every step it takes (criterion 8 above completed, so every one of
        # those steps passed); re-derive it here independently on the same
        # algebras, full depth for the small ones
        for n in (2, 3):
            ta = trivial_extension(path_algebra(path_quiver(n)))
            assert walk_and_check_minimality(ta, steps=40) == 40 * n
        ta = trivial_extension(path_algebra(multi_kronecker(2)))
        assert walk_and_check_minimality(ta, steps=8) == 16
        ta = trivial_extension(path_algebra(multi_kronecker(3)))
        assert walk_and_check_minimality(ta, steps=3) == 6
