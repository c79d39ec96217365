"""Serre-twist verdicts, the canonical delta rule, entropy, growth classes.

Frozen numbers: lcm/delta arithmetic for the weight tables is elementary;
the 3-arrow Kronecker spectral radius is (7 + sqrt(45))/2.
"""
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from quiverlab import (
    CanonicalSpec,
    GrowthEstimate,
    RatMatrix,
    canonical_algebra,
    canonical_verdict,
    cartan_matrix,
    cartan_path_algebra,
    char_poly,
    classify_quiver,
    coxeter_matrix,
    coxeter_necessary_check,
    cyclotomic_profile,
    entropy_line,
    graded_path_verdict,
    growth_degree,
    hereditary_entropy,
    quiver_from_data,
    vector,
    verify_k_shadow,
)
from quiverlab.cyclo import spectral_radius
from quiverlab.quiver import CoxeterMap, K0Arithmetic
from quiverlab.serre import SerreVerdict, entropy_and_growth
from conftest import (
    bench_module,
    disjoint_union,
    multi_kronecker,
    path_quiver,
    quiver_on,
    random_acyclic_quiver,
    random_tree_or_cycle_quiver,
    serre_entropy,
    star_quiver,
    unlabelled_trees,
    wild3_quiver,
)


PHI_A2 = RatMatrix([[0, -1], [1, -1]])
PHI_KRONECKER = RatMatrix([[3, -2], [2, -1]])
PHI_GENTLE = RatMatrix([[-1, 2], [-2, 3]])


# --- verdict value type ----------------------------------------------------

def test_verdict_constructors_and_json():
    v = SerreVerdict.serre_cyclotomic(2, 30, 30, reason="why")
    assert v.has_exponents
    assert v.to_json_dict() == {
        "kind": "serre-cyclotomic",
        "l": 2,
        "m": 30,
        "n": 30,
        "reason": "why",
    }
    v = SerreVerdict.fractionally_calabi_yau(6, 6)
    assert v.l == 1
    v = SerreVerdict.not_serre_cyclotomic("no")
    assert not v.has_exponents
    assert v.to_json_dict()["kind"] == "not-serre-cyclotomic"
    v = SerreVerdict.unknown("shrug")
    assert v.kind == "unknown"


def test_verdict_validation():
    with pytest.raises(ValueError):
        SerreVerdict("bogus-kind")
    with pytest.raises(ValueError):
        SerreVerdict("serre-cyclotomic", l=0, m=1, n=1)
    with pytest.raises(ValueError):
        SerreVerdict("serre-cyclotomic", l=2, m=1, n=0)
    with pytest.raises(ValueError):
        SerreVerdict("fractionally-calabi-yau", l=2, m=6, n=6)


# --- canonical delta rule --------------------------------------------------

def test_delta_rule_weight_table():
    cases = [
        ((2, 3, 5), -1, 30, "serre-cyclotomic", 30, 30, 2),
        ((2, 3, 6), 0, 6, "fractionally-calabi-yau", 6, 6, 1),
        ((2, 3, 7), 1, 42, "serre-cyclotomic", -42, -42, 2),
        ((2, 2, 2, 2), 0, 2, "fractionally-calabi-yau", 2, 2, 1),
        ((1, 1), -2, 1, "serre-cyclotomic", 1, 1, 2),
        ((2, 2, 2), -1, 2, "serre-cyclotomic", 2, 2, 2),
        ((3, 3, 3), 0, 3, "fractionally-calabi-yau", 3, 3, 1),
        ((2, 4, 4), 0, 4, "fractionally-calabi-yau", 4, 4, 1),
    ]
    for weights, delta, p, kind, m, n, l in cases:
        lambdas = tuple(range(1, len(weights) - 1))
        got_delta, got_p, verdict = canonical_verdict(CanonicalSpec(weights, lambdas))
        assert (got_delta, got_p) == (delta, p), weights
        assert (verdict.kind, verdict.m, verdict.n, verdict.l) == (kind, m, n, l), weights


# --- verdicts straight from a quiver ----------------------------------------

def test_verdict_finite_type_is_fractional_cy():
    v = graded_path_verdict(path_quiver(2))
    assert v.kind == "fractionally-calabi-yau"
    assert not v.has_exponents
    assert "period 3" in v.reason
    v = graded_path_verdict(star_quiver((1, 2, 4)))
    assert "period 30" in v.reason


def test_finite_type_verdict_inverts_no_matrix(monkeypatch):
    # the Coxeter period comes from Phi read off K0Arithmetic
    quivers = [path_quiver(2), star_quiver((1, 2, 4)), star_quiver((1, 1, 37))]
    expected = [graded_path_verdict(q) for q in quivers]

    def refuse(self):
        raise AssertionError("RatMatrix.inverse on a path-algebra route")

    monkeypatch.setattr(RatMatrix, "inverse", refuse)
    assert [graded_path_verdict(q) for q in quivers] == expected


def test_verdict_affine_trees():
    cases = [
        (star_quiver((1, 1, 1, 1)), 2, 2),  # four arms, canonical weights (2,2,2)
        (star_quiver((2, 2, 2)), 6, 6),  # weights (2,3,3)
        (star_quiver((3, 3, 1)), 12, 12),  # weights (2,3,4)
        (star_quiver((5, 2, 1)), 30, 30),  # weights (2,3,5)
    ]
    for quiver, m, n in cases:
        v = graded_path_verdict(quiver)
        assert v.kind == "serre-cyclotomic"
        assert (v.l, v.m, v.n) == (2, m, n)


def tree_code(adj) -> str:
    """Isomorphism-invariant code of a tree: its least rooted code over all roots."""

    def code(v, parent) -> str:
        return "(" + "".join(sorted(code(w, v) for w in adj[v] if w != parent)) + ")"

    return min(code(v, None) for v in range(len(adj)))


def trees_up_to(max_vertices: int) -> list:
    """Adjacency lists of every tree with 1 to max_vertices vertices, once up
    to isomorphism, each grown from a smaller one by a leaf."""
    level, out = [[[]]], []
    for _ in range(max_vertices):
        out += level
        grown: dict = {}
        for adj in level:
            n = len(adj)
            for v in range(n):
                bigger = [nbrs + [n] * (u == v) for u, nbrs in enumerate(adj)] + [[v]]
                grown.setdefault(tree_code(bigger), bigger)
        level = list(grown.values())
    return out


def test_verdict_on_every_tree_up_to_nine_vertices():
    # the affine trees up to 9 vertices are D~4 to D~8, E~6, E~7 and E~8, and
    # every one is read off as its canonical weights with p = their lcm
    trees = trees_up_to(9)
    assert len(trees) == 95
    affine = []
    for adj in trees:
        edges = [(u, w) for u, nbrs in enumerate(adj) for w in nbrs if u < w]
        arrows = [{"id": f"a{i}", "from": u, "to": w} for i, (u, w) in enumerate(edges)]
        q = quiver_from_data({"vertices": list(range(len(adj))), "arrows": arrows})
        kind = classify_quiver(q).kind
        verdict = graded_path_verdict(q)
        if kind == "affine":
            assert (verdict.kind, verdict.l, verdict.m) == ("serre-cyclotomic", 2, verdict.n)
            affine.append((len(adj), verdict.reason, verdict.m))
        else:
            expected = {"finite": "fractionally-calabi-yau", "indefinite": "not-serre-cyclotomic"}
            assert verdict.kind == expected[kind]
    weights = [(5, 2, 2, 2), (6, 2, 2, 3), (7, 2, 2, 4), (8, 2, 2, 5), (9, 2, 2, 6),
               (7, 2, 3, 3), (8, 2, 3, 4), (9, 2, 3, 5)]
    assert sorted(affine) == sorted(
        (n, f"affine tree with canonical weights ({a},{b},{c})", math.lcm(a, b, c))
        for n, a, b, c in weights
    )


def test_verdict_affine_cycles():
    v = graded_path_verdict(multi_kronecker(2))
    assert (v.kind, v.l, v.m, v.n) == ("serre-cyclotomic", 2, 1, 1)

    mixed = quiver_from_data(
        {
            "vertices": [1, 2, 3],
            "arrows": [
                {"id": "a", "from": 1, "to": 2},
                {"id": "b", "from": 2, "to": 3},
                {"id": "c", "from": 1, "to": 3},
            ],
        }
    )
    v = graded_path_verdict(mixed)
    assert (v.kind, v.m, v.n) == ("serre-cyclotomic", 2, 2)

    oriented = quiver_from_data(
        {
            "vertices": [1, 2, 3],
            "arrows": [
                {"id": "a", "from": 1, "to": 2},
                {"id": "b", "from": 2, "to": 3},
                {"id": "c", "from": 3, "to": 1},
            ],
        }
    )
    v = graded_path_verdict(oriented)
    assert v.kind == "unknown"
    assert "oriented cycle" in v.reason


def test_verdict_nonzero_winding_is_unknown():
    q = quiver_from_data(
        {
            "vertices": [1, 2],
            "arrows": [
                {"id": "a", "from": 1, "to": 2, "degree": 1},
                {"id": "b", "from": 1, "to": 2},
            ],
        }
    )
    v = graded_path_verdict(q)
    assert v.kind == "unknown"


def test_verdict_indefinite_is_negative():
    for q in (multi_kronecker(3), star_quiver((1, 1, 1, 1, 1))):
        v = graded_path_verdict(q)
        assert v.kind == "not-serre-cyclotomic"
        assert "indefinite" in v.reason


# --- necessary condition check ----------------------------------------------

def test_coxeter_check_periodic_and_unipotent():
    rep = coxeter_necessary_check(PHI_A2)
    assert (rep.cyclotomic, rep.passed, rep.n, rep.l) == (True, True, 3, 1)
    rep = coxeter_necessary_check(PHI_KRONECKER)
    assert (rep.cyclotomic, rep.passed, rep.n, rep.l) == (True, True, 1, 2)
    assert "necessary condition" in rep.note


def test_coxeter_check_rejects_non_cyclotomic():
    phi3 = RatMatrix([[8, -3], [3, -1]])
    rep = coxeter_necessary_check(phi3)
    assert (rep.cyclotomic, rep.passed) == (False, False)
    assert rep.n is None and rep.l is None


def test_coxeter_check_bounds_exceeded_reports_witness():
    phi = coxeter_matrix(cartan_path_algebra(path_quiver(5)))
    rep = coxeter_necessary_check(phi, l_max=6, n_max=2)
    assert rep.cyclotomic
    assert rep.passed is None
    assert (rep.n, rep.l) == (3, 1)


def test_coxeter_check_validates_bounds():
    with pytest.raises(ValueError):
        coxeter_necessary_check(PHI_A2, l_max=0)
    with pytest.raises(ValueError):
        coxeter_necessary_check(PHI_A2, n_max=0)


# --- shadow identity ---------------------------------------------------------

def test_k_shadow_gentle_example():
    psi = -(PHI_GENTLE.inverse())
    assert verify_k_shadow(psi, 2, 2, 2)


def test_k_shadow_scaled_identity_fails():
    two = RatMatrix([[2, 0], [0, 2]])
    assert not verify_k_shadow(two, 1, 0, 1)


def test_k_shadow_odd_twist_negates():
    minus = RatMatrix([[-1, 0], [0, -1]])
    assert verify_k_shadow(minus, 1, 1, 1)
    assert not verify_k_shadow(minus, 1, 0, 1)


def test_k_shadow_validation():
    with pytest.raises(ValueError):
        verify_k_shadow(RatMatrix([[1, 2], [2, 4]]), 1, 1, 1)
    with pytest.raises(ValueError):
        verify_k_shadow(RatMatrix.identity(2), 0, 1, 1)
    with pytest.raises(ValueError):
        verify_k_shadow(RatMatrix.identity(2), 1, 1, 0)


def test_k_shadow_agrees_with_coxeter_witness():
    a = canonical_algebra(CanonicalSpec((2, 3, 5), (1,)))
    phi = coxeter_matrix(cartan_matrix(a))
    rep = coxeter_necessary_check(phi, l_max=2, n_max=30)
    assert rep.passed
    assert verify_k_shadow(phi, rep.l, 0, 2 * rep.n)


# --- entropy -----------------------------------------------------------------

def test_serre_entropy_linear_in_twist():
    v = SerreVerdict.serre_cyclotomic(2, 30, 30)
    assert serre_entropy(v, 2) == Fraction(2)
    assert serre_entropy(v, Fraction(1, 3)) == Fraction(1, 3)
    w = SerreVerdict.serre_cyclotomic(2, -42, -42)
    assert serre_entropy(w, 5) == Fraction(5)


def test_serre_entropy_requires_exponents():
    with pytest.raises(ValueError):
        serre_entropy(SerreVerdict.not_serre_cyclotomic("no"), 1)


def test_entropy_line_slope_and_bound():
    line = entropy_line(SerreVerdict.serre_cyclotomic(2, 30, 30))
    assert (line.slope, line.poly_entropy_bound) == (Fraction(1), 1)
    line = entropy_line(SerreVerdict.fractionally_calabi_yau(6, 6))
    assert (line.slope, line.poly_entropy_bound) == (Fraction(1), 0)
    with pytest.raises(ValueError):
        entropy_line(SerreVerdict.unknown("nope"))


def test_hereditary_entropy_positive_case():
    h0, trace = hereditary_entropy(multi_kronecker(3))
    assert abs(h0 - math.log((7 + math.sqrt(45)) / 2)) < 1e-4
    assert len(trace) == 60
    assert abs(trace[-1] - h0) < 0.05


def test_hereditary_entropy_zero_cases():
    for q in (path_quiver(2), path_quiver(5), multi_kronecker(2)):
        h0, trace = hereditary_entropy(q)
        assert h0 == 0.0
        assert max(trace) <= max(trace[:10])
        assert trace[-1] < 0.12


def test_hereditary_entropy_first_term_hand_checked():
    # v = (2, 1); phi v = (-1, 1); log l1 = log 2
    _, trace = hereditary_entropy(path_quiver(2), iterations=1)
    assert abs(trace[0] - math.log(2)) < 1e-12


def test_hereditary_entropy_validation():
    with pytest.raises(ValueError):
        hereditary_entropy(path_quiver(2), iterations=0)
    with pytest.raises(ValueError):
        hereditary_entropy(path_quiver(2), tol=0.0)
    loop = quiver_from_data({"vertices": [1], "arrows": [{"id": "l", "from": 1, "to": 1}]})
    with pytest.raises(ValueError):
        hereditary_entropy(loop)


# --- norm growth classes -------------------------------------------------------

def test_growth_degree_unipotent_is_linear():
    est = growth_degree(PHI_KRONECKER, vector([1, 0]))
    assert (est.kind, est.degree) == ("polynomial", 1)


def test_growth_degree_periodic_is_bounded():
    est = growth_degree(PHI_A2, vector([1, 0]))
    assert (est.kind, est.degree) == ("polynomial", 0)


def test_growth_degree_expanding_is_exponential():
    phi3 = RatMatrix([[8, -3], [3, -1]])
    est = growth_degree(phi3, vector([4, 1]))
    assert est.kind == "exponential"
    assert est.to_json_dict() == {"kind": "exponential"}


def test_growth_degree_needs_enough_steps():
    with pytest.raises(ValueError):
        growth_degree(PHI_A2, vector([1, 0]), steps=11)


def cogenerator_orbit(q):
    """Coxeter matrix of q and the dimension vector of its injective cogenerator."""
    cartan = cartan_path_algebra(q)
    return coxeter_matrix(cartan), vector(sum(cartan.column(j)) for j in range(cartan.cols))


@pytest.mark.parametrize("n", [30, 60])
def test_growth_degree_long_period_dynkin_is_bounded(n):
    # Phi(A_n) has period n + 1, longer than half of a 60-step orbit
    phi, v = cogenerator_orbit(path_quiver(n))
    est = growth_degree(phi, v, steps=60)
    assert (est.kind, est.degree) == ("polynomial", 0)


def test_growth_degree_affine_is_at_most_linear():
    # (phi^(2n) - 1)^2 = 0 for affine E6, so the orbit of v is bounded exactly
    # when phi^(2n) fixes v, and grows linearly otherwise
    rng = random.Random(2024)
    phi, _ = cogenerator_orbit(star_quiver((2, 2, 2)))
    n, l = cyclotomic_profile(phi).witness
    assert l == 2
    shift = phi ** (2 * n) - RatMatrix.identity(phi.rows)
    degrees = set()
    for _ in range(20):
        v = vector(rng.randint(-5, 5) for _ in range(phi.rows))
        est = growth_degree(phi, v)
        assert est.kind == "polynomial"
        assert est.degree == (1 if any(shift.apply(v)) else 0)
        degrees.add(est.degree)
    assert degrees == {0, 1}


def test_growth_degree_wild_is_exponential():
    for q in (wild3_quiver(), star_quiver((1, 2, 6))):
        phi, v = cogenerator_orbit(q)
        assert growth_degree(phi, v).kind == "exponential"


def test_growth_degree_strips_the_nilpotent_part():
    # the local minimal polynomial of v is x^2 (x - 1)^2
    phi = RatMatrix([[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1], [0, 0, 0, 1]])
    est = growth_degree(phi, vector([0, 1, 0, 1]))
    assert (est.kind, est.degree) == ("polynomial", 1)


@pytest.mark.parametrize("iterations", [1, 12, 60])
def test_shared_orbit_growth_agrees_with_growth_degree(iterations):
    # the growth read off the kind is the exact decision on the orbit whose
    # norms make the trace, whatever the number of iterates
    quivers = [path_quiver(n) for n in range(2, 13)]  # A2-A12
    quivers += [star_quiver((1, 1, n - 3)) for n in range(4, 9)]  # D4-D8
    quivers += [star_quiver((1, 2, k)) for k in (2, 3, 4)]  # E6-E8
    quivers += [multi_kronecker(k) for k in (2, 3, 4)]
    quivers += [wild3_quiver(), star_quiver((1, 2, 6))]  # wild3, T(2,3,7)
    for q in quivers:
        _, trace, growth = entropy_and_growth(q, iterations)
        # the Coxeter map's dense matrix is the oracle
        matrix, v = cogenerator_orbit(q)
        assert len(trace) == iterations
        assert trace[-1] == math.log(sum(map(abs, (matrix ** iterations).apply(v)))) / iterations
        assert growth == growth_degree(matrix, v)
        assert char_poly(CoxeterMap(K0Arithmetic(q))) == char_poly(matrix)


def kind_rule_oracle(q, iterations: int) -> tuple[float, list[float], GrowthEstimate]:
    """entropy_and_growth of Q by the Krylov route on the dense Coxeter
    matrix: log of its radius, the trace of the cogenerator's orbit, and
    the orbit's growth_degree."""
    matrix, v = cogenerator_orbit(q)
    trace, image = [], v
    for k in range(1, iterations + 1):
        image = matrix.apply(image)
        trace.append(math.log(int(sum(map(abs, image)))) / k)
    return math.log(spectral_radius(matrix)), trace, growth_degree(matrix, v)


def test_entropy_by_kind_is_the_krylov_oracle_on_random_quivers_and_trees():
    # 520 seeded connected quivers of at most 10 vertices, and every tree of
    # at most 10 vertices, each edge u -> v for u < v and reversed: h0, to
    # the float, the trace and the growth equal the dense Krylov route's
    rng = random.Random(51)
    quivers = [random_tree_or_cycle_quiver(rng, 10) for _ in range(360)]
    quivers += [random_acyclic_quiver(rng, 9) for _ in range(160)]
    for n, level in enumerate(unlabelled_trees(10), 1):
        for edges in level:
            quivers += [quiver_on(n, edges), quiver_on(n, [(v, u) for u, v in edges])]
    kinds = Counter()
    for q in quivers:
        assert entropy_and_growth(q, 12) == kind_rule_oracle(q, 12), q
        kinds[classify_quiver(q).kind] += 1
    assert len(quivers) == 520 + 2 * 201
    assert min(kinds.values()) >= 100, kinds


def test_entropy_of_a_disjoint_union_is_its_worst_components():
    # growth: the dense growth_degree of the whole quiver's cogenerator;
    # h0: the largest of the components', to the 12 digits --json prints
    workloads = bench_module("workloads")
    pairs = [(path_quiver(3), multi_kronecker(3)),
             (quiver_from_data(workloads.D40), path_quiver(1))]
    rng = random.Random(24)
    pairs += [(random_tree_or_cycle_quiver(rng, 5), random_tree_or_cycle_quiver(rng, 5))
              for _ in range(200)]
    growths = Counter()
    for parts in pairs:
        q = disjoint_union(*parts)
        assert not q.is_connected
        h0, trace, growth = entropy_and_growth(q, 12)
        assert growth == growth_degree(*cogenerator_orbit(q)), q
        assert f"{h0:.12g}" == f"{max(entropy_and_growth(p, 12)[0] for p in parts):.12g}", q
        assert len(trace) == 12
        growths[growth] += 1
    assert len(growths) == 3 and min(growths.values()) >= 5, growths


def test_growth_degree_refuses_a_non_integral_matrix():
    with pytest.raises(ValueError):
        growth_degree(RatMatrix([[Fraction(1, 2), 0], [0, 1]]), vector([1, 0]))


@pytest.mark.parametrize("tol", [math.nan, math.inf])
def test_hereditary_entropy_refuses_a_non_finite_tolerance(tol):
    with pytest.raises(ValueError):
        hereditary_entropy(multi_kronecker(3), tol=tol)
