"""Spectral layer: characteristic/minimal polynomials, cyclotomic detection,
spectral radius.

Profiles are frozen from hand computations: the A2 Coxeter matrix has order
three; the Kronecker one is unipotent with nilpotency degree two.
"""
import itertools
import json
import math
import random
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from quiverlab.cyclo import (
    _krylov_blocks,
    char_poly,
    cyclotomic_profile,
    krylov_walk,
    min_poly,
    spectral_radius,
)
from quiverlab import cyclo
from quiverlab.intpoly import IntPolynomial, cyclotomic_factorization, cyclotomic_poly
from quiverlab.quiver import (CoxeterMap, K0Arithmetic, cartan_path_algebra, classify_quiver,
                              coxeter_matrix, parse_quiver)
from quiverlab.radius import _cauchy_bound
from quiverlab.ratmat import RatMatrix
from conftest import (
    assert_profile_is_the_dense_oracle,
    bench_module,
    companion_matrix,
    eval_matrix,
    from_columns,
    multi_kronecker,
    quiver_on,
    random_unimodular,
    solve,
    star_quiver,
    unlabelled_trees,
)


PHI_A2 = RatMatrix([[0, -1], [1, -1]])
PHI_KRONECKER = RatMatrix([[3, -2], [2, -1]])
PHI_KRONECKER3 = RatMatrix([[8, -3], [3, -1]])


def test_char_poly_hand_values():
    assert char_poly(PHI_A2) == IntPolynomial([1, 1, 1])
    assert char_poly(PHI_KRONECKER) == IntPolynomial([1, -2, 1])
    assert char_poly(PHI_KRONECKER3) == IntPolynomial([1, -7, 1])
    assert char_poly(RatMatrix.identity(3)) == IntPolynomial([-1, 1]) ** 3


def test_char_poly_is_monic_of_full_degree():
    m = RatMatrix([[1, 2, 0], [0, 1, 5], ["1/2", 0, -3]])
    p = char_poly(m)
    assert p.degree == 3
    assert p.leading == 1
    assert eval_matrix(p, m) == RatMatrix.zeros(3, 3)


def test_companion_matrix_round_trip():
    p = IntPolynomial([1, -7, 1])
    assert char_poly(companion_matrix(p)) == p
    q = IntPolynomial([-1, 0, 0, 1])
    assert char_poly(companion_matrix(q)) == q


def test_min_poly_divides_and_annihilates():
    assert min_poly(PHI_A2) == IntPolynomial([1, 1, 1])
    assert min_poly(RatMatrix.identity(3)) == IntPolynomial([-1, 1])
    jordan = RatMatrix([[1, 1], [0, 1]])
    assert min_poly(jordan) == IntPolynomial([1, -2, 1])
    # degree below n: the lcm across start vectors is what assembles these
    diagonal = RatMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 3]])
    assert min_poly(diagonal) == IntPolynomial([6, -5, 1])
    mixed = RatMatrix([[1, 1, 0], [0, 1, 0], [0, 0, -1]])
    assert min_poly(mixed) == IntPolynomial([1, -1, -1, 1])


def _unit(n, s):
    return tuple(Fraction(int(k == s)) for k in range(n))


def _chain(m, vec):
    """vec, M vec, ... up to the first vector in the span of the earlier ones."""
    chain = [vec]
    while from_columns(chain).rank() == len(chain):
        chain.append(m.apply(chain[-1]))
    return chain


def _min_poly_reference(m):
    """lcm over every unit vector e_s of the first relation on e_s, M e_s, ..."""
    n = m.rows
    result = IntPolynomial.one()
    for s in range(n):
        chain = _chain(m, _unit(n, s))
        coeffs = solve(from_columns(chain[:-1]), chain[-1])
        local = IntPolynomial([-c for c in coeffs] + [1])
        result = result.lcm(local)
    return result


def _random_matrix(rng, n):
    return RatMatrix(
        [[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.7 else 0
          for _ in range(n)] for _ in range(n)])


def _conjugated_repeated_blocks(rng, n):
    """U diag(B, B, C) U^-1 for a unimodular U, so deg min_poly < n."""
    b = rng.randint(1, n // 2)
    block = _random_matrix(rng, b)
    rest = _random_matrix(rng, n - 2 * b)
    rows = [[Fraction(0)] * n for _ in range(n)]
    for off, blk in ((0, block), (b, block), (2 * b, rest)):
        for i in range(blk.rows):
            for j in range(blk.cols):
                rows[off + i][off + j] = blk[i, j]
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        u[i] = [a + s * c for a, c in zip(u[i], u[j])]
    u = RatMatrix(u)
    return u * RatMatrix(rows) * u.inverse()


def test_min_poly_matches_every_chain_reference():
    rng = random.Random(20261018)
    low_degree = 0
    for trial in range(200):
        n = rng.randint(1, 7)
        if trial % 2 and n > 1:
            m = _conjugated_repeated_blocks(rng, n)
        else:
            m = _random_matrix(rng, n)
        expected = _min_poly_reference(m)
        assert min_poly(m) == expected
        low_degree += expected.degree < n
    # the repeated blocks must really exercise the skipped chains
    assert low_degree >= 60
    # Phi(D4): a later unit vector falls outside the first chain's span
    phi = coxeter_matrix(cartan_path_algebra(star_quiver((1, 1, 1))))
    first = from_columns(_chain(phi, _unit(4, 0))[:-1])
    assert not all(solve(first, _unit(4, s)) is not None for s in range(1, 4))
    # Coxeter polynomial (x + 1)(x^3 + 1), minimal polynomial Phi_2 Phi_6
    assert min_poly(phi) == _min_poly_reference(phi) == IntPolynomial([1, 0, 0, 1])


def test_min_poly_stops_once_its_chains_span(monkeypatch):
    # Phi(D40) has a minimal polynomial of degree n - 1, so one chain never
    # settles it; a run over all n unit-vector chains makes 1559 products
    phi = coxeter_matrix(cartan_path_algebra(star_quiver((1, 1, 37))))
    krylov_walk.cache_clear()
    calls = []
    apply = RatMatrix.apply

    def counted(self, vec):
        calls.append(1)
        return apply(self, vec)

    monkeypatch.setattr(RatMatrix, "apply", counted)
    assert min_poly(phi).degree == phi.rows - 1
    assert len(calls) <= 4 * phi.rows


def test_char_poly_applies_the_matrix_once_per_dimension(monkeypatch):
    # a block of d Krylov vectors costs d products, and the blocks fill the space
    phi = coxeter_matrix(cartan_path_algebra(star_quiver((1, 1, 37))))
    krylov_walk.cache_clear()
    calls = []
    apply = RatMatrix.apply

    def counted(self, vec):
        calls.append(1)
        return apply(self, vec)

    monkeypatch.setattr(RatMatrix, "apply", counted)
    assert char_poly(phi).degree == phi.rows
    assert len(calls) <= phi.rows


def _sparse_int_matrix(rng, n):
    return RatMatrix(
        [[rng.randint(-5, 5) if rng.random() < 0.25 else 0 for _ in range(n)]
         for _ in range(n)])


def test_char_poly_matches_determinants():
    # det(kI - M) at k = 0..n fixes a polynomial of degree n, with no
    # Krylov vector or echelon in the way
    rng = random.Random(14014)
    cases = [RatMatrix([]), RatMatrix([[0]]), RatMatrix([[5]]), RatMatrix([["-2/3"]])]
    for n in range(1, 9):
        scalar = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        cases += [RatMatrix.zeros(n, n), RatMatrix.identity(n).scale(scalar)]
    for trial in range(300):
        n = rng.randint(1, 8)
        if trial % 3 == 0:
            cases.append(_random_matrix(rng, n))
        elif trial % 3 == 1 and n > 1:
            cases.append(_conjugated_repeated_blocks(rng, n))
        else:
            cases.append(_sparse_int_matrix(rng, n))
    several_blocks = 0
    for m in cases:
        n = m.rows
        p = char_poly(m)
        assert (p.degree, p.leading) == (n, 1)
        for k in range(n + 1):
            assert p.evaluate(k) == (RatMatrix.identity(n).scale(k) - m).det()
        # a start inside the span of the earlier blocks opens no block
        degrees = [q.degree for _, q in _krylov_blocks(m)]
        assert all(degrees) and sum(degrees) == n
        several_blocks += len(degrees) > 1
    # the product over blocks, not one cyclic block, must carry many cases
    assert len(cases) >= 300
    assert several_blocks >= 100


def test_profile_periodic_case():
    prof = cyclotomic_profile(PHI_A2)
    assert prof.is_cyclotomic
    assert prof.periodic
    assert prof.period == 3
    assert prof.witness == (3, 1)
    assert prof.orders == ((3, 1),)


def test_profile_unipotent_case():
    prof = cyclotomic_profile(PHI_KRONECKER)
    assert prof.is_cyclotomic
    assert not prof.periodic
    assert prof.period is None
    assert prof.witness == (1, 2)
    assert prof.orders == ((1, 2),)


def test_profile_walks_the_krylov_blocks_once(monkeypatch):
    # char_poly's walk of Phi(D24), conjugated, also feeds min_poly
    rng = random.Random(24)
    phi = coxeter_matrix(cartan_path_algebra(star_quiver((1, 1, 21))))
    u = random_unimodular(rng, phi.rows)
    m = u * phi * u.inverse()
    krylov_walk.cache_clear()
    walks = []
    blocks = cyclo._krylov_blocks

    def counted(*args):
        walks.append(1)
        return blocks(*args)

    monkeypatch.setattr(cyclo, "_krylov_blocks", counted)
    profile = cyclotomic_profile(m)
    assert walks == [1]
    assert profile.witness == (23, 1) and profile.char_poly == char_poly(phi)


def test_profile_non_cyclotomic():
    prof = cyclotomic_profile(PHI_KRONECKER3)
    assert not prof.is_cyclotomic
    assert prof.orders == ()
    assert prof.witness is None


def test_profile_rejects_bad_input():
    with pytest.raises(ValueError):
        cyclotomic_profile(RatMatrix([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError):
        cyclotomic_profile(RatMatrix([[1, 2], [2, 4]]))


def test_witness_identity_holds():
    # (phi^(2n) - 1)^l = 0 exactly, straight from the reported witness
    for m in (PHI_A2, PHI_KRONECKER):
        prof = cyclotomic_profile(m)
        n, l = prof.witness
        eye = RatMatrix.identity(m.rows)
        assert ((m ** (2 * n)) - eye) ** l == RatMatrix.zeros(m.rows, m.rows)


def map_profile(k0: K0Arithmetic):
    """The profile of K0Arithmetic's Coxeter map, which must be its dense
    matrix's, checked against the dense witness oracle when cyclotomic."""
    profile = cyclotomic_profile(CoxeterMap(k0))
    matrix = k0.matrix(k0.forward)
    assert cyclotomic_profile(matrix) == profile
    if profile.is_cyclotomic:
        assert_profile_is_the_dense_oracle(matrix, profile)
    return profile


def _spectral_inputs():
    """(job id, K0Arithmetic or RatMatrix) for each job of the bench's
    spectral workload."""
    workloads = bench_module("workloads")
    files, jobs = workloads.build("spectral", 1401)
    for job in jobs:
        command, *rest = job.argv
        if command == "canonical":
            yield job.id, K0Arithmetic.canonical(tuple(map(int, rest[1].split(","))))
        elif command == "check-coxeter":
            rows = json.loads(files[rest[0]])
            yield job.id, RatMatrix([[Fraction(x) for x in row] for row in rows])
        else:
            yield job.id, K0Arithmetic(parse_quiver(files[rest[0]]))


def test_witness_certificate_is_the_dense_oracle_on_the_spectral_bench_inputs():
    cyclotomic = []
    for label, source in _spectral_inputs():
        if isinstance(source, RatMatrix):
            profile = cyclotomic_profile(source)
            assert_profile_is_the_dense_oracle(source, profile)
        else:
            profile = map_profile(source)
        if profile.is_cyclotomic:
            cyclotomic.append(label)
    assert cyclotomic == ["classify:A60", "classify:D40", "entropy:A60", "entropy:D40",
                          "check-coxeter:D24", "canonical:2,3,7", "canonical:5,6,7"]


def _bipartite(n: int, edges) -> list[tuple[int, int]]:
    """The tree's edges oriented from the vertices at even distance from 0."""
    depth, adjacent = {0: 0}, {v: [] for v in range(n)}
    for u, v in edges:
        adjacent[u].append(v)
        adjacent[v].append(u)
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adjacent[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                stack.append(v)
    return [(u, v) if depth[u] % 2 == 0 else (v, u) for u, v in edges]


def test_witness_certificate_is_the_dense_oracle_on_every_tree_up_to_ten_vertices():
    # a tree's Coxeter polynomial is cyclotomic exactly for Dynkin and
    # Euclidean trees, in every orientation
    cyclotomic = 0
    for n, level in enumerate(unlabelled_trees(10), 1):
        for edges in level:
            for arrows in (edges, _bipartite(n, edges)):
                q = quiver_on(n, arrows)
                profile = map_profile(K0Arithmetic(q))
                assert profile.is_cyclotomic == (classify_quiver(q).kind != "indefinite"), edges
                cyclotomic += profile.is_cyclotomic
    assert cyclotomic == 2 * (20 + 9)


def test_witness_certificate_is_the_dense_oracle_on_canonical_weight_types():
    # the Coxeter polynomial of a canonical algebra, (x - 1)^2 prod (x^p - 1) / (x - 1),
    # is cyclotomic for every weight type
    types = [w for k in (2, 3, 4) for w in itertools.combinations_with_replacement(range(1, 7), k)]
    assert len(types) >= 100
    for weights in types:
        assert map_profile(K0Arithmetic.canonical(weights)).is_cyclotomic, weights


def test_witness_certificate_is_the_dense_oracle_on_conjugates_of_phi_d24():
    workloads = bench_module("workloads")
    phi = workloads.coxeter_of_tree(workloads.D24)
    profiles = set()
    for seed in range(50):
        m = RatMatrix(workloads.conjugate(phi, random.Random(seed)))
        profile = cyclotomic_profile(m)
        assert_profile_is_the_dense_oracle(m, profile)
        profiles.add(profile)
    assert len(profiles) == 1 and profiles.pop().witness == (23, 1)


def test_a_minimal_polynomial_short_of_one_factor_fails_the_witness(monkeypatch):
    # mu(M) v = 0 on every block's start vector is the certificate: drop any
    # one cyclotomic factor from mu and it must fail
    workloads = bench_module("workloads")
    d24 = RatMatrix(workloads.conjugate(workloads.coxeter_of_tree(workloads.D24),
                                        random.Random(7)))
    maps = [CoxeterMap(K0Arithmetic(q)) for q in (
        parse_quiver(json.dumps(workloads.path_quiver(60))), parse_quiver(json.dumps(workloads.D40)),
        multi_kronecker(2), star_quiver((2, 2, 2)))]
    maps += [CoxeterMap(K0Arithmetic.canonical(w)) for w in ((2, 3, 7), (5, 6, 7))]
    dropped = 0
    for m in [*maps, d24, PHI_A2, PHI_KRONECKER]:
        mu = min_poly(m)
        for d, _ in cyclotomic_factorization(mu):
            short = mu // cyclotomic_poly(d)
            monkeypatch.setattr(cyclo, "min_poly", lambda _, short=short: short)
            with pytest.raises(RuntimeError, match="(witness|period) verification failed"):
                cyclotomic_profile(m)
            monkeypatch.undo()
            dropped += 1
        assert cyclotomic_profile(m).witness is not None
    assert dropped >= 20


def test_spectral_radius_exact_one_for_cyclotomic():
    assert spectral_radius(PHI_A2) == 1.0
    assert spectral_radius(PHI_KRONECKER) == 1.0


def test_spectral_radius_golden_like_value():
    rho = spectral_radius(PHI_KRONECKER3)
    assert abs(rho - (7 + math.sqrt(45)) / 2) < 1e-6
    # the bisection grid starts from an exact Cauchy bound, never a float
    bound = _cauchy_bound(char_poly(PHI_KRONECKER3))  # x^2 - 7x + 1
    assert type(bound) is Fraction and bound == 8
    assert _cauchy_bound(IntPolynomial([1, -7, 3])) == Fraction(10, 3)


def test_spectral_radius_diagonal():
    m = RatMatrix([[Fraction(5, 2), 0], [0, -3]])
    assert abs(spectral_radius(m) - 3.0) < 1e-6
    # odd degree: p(-x) has leading coefficient -1 and its root 3 carries the radius
    m = RatMatrix([[Fraction(5, 2), 0, 0], [0, -3, 0], [0, 0, 1]])
    assert abs(spectral_radius(m) - 3.0) < 1e-6


def test_spectral_radius_odd_degree_dominant_complex_pair():
    # (x - 1)(x^2 + 4): the radius 2 comes from the pair +-2i
    p = IntPolynomial([-1, 1]) * IntPolynomial([4, 0, 1])
    assert abs(spectral_radius(companion_matrix(p)) - 2.0) < 1e-6


@pytest.mark.xfail(strict=True, raises=ArithmeticError,
                   reason="two conjugate pairs on the top circle: no certified enclosure")
def test_spectral_radius_of_two_conjugate_pairs_on_one_circle():
    # (x^2 - 2x + 4)(x^2 + 3x + 4): both pairs have modulus 2
    p = IntPolynomial([4, -2, 1]) * IntPolynomial([4, 3, 1])
    assert abs(spectral_radius(companion_matrix(p)) - 2.0) < 1e-6


def _linear(r):
    return IntPolynomial([-r, 1])


def _quadratic(b, c):
    # roots b +- ci, of modulus sqrt(b^2 + c^2)
    return IntPolynomial([b * b + c * c, -2 * b, 1])


def _root_family(rng, kind):
    """(polynomial, exact squared moduli of its roots) built from factors."""
    if kind == "linear":
        roots = [rng.randint(-9, 9) for _ in range(rng.randint(1, 7))]
        return math.prod(map(_linear, roots), start=IntPolynomial.one()), [r * r for r in roots]
    if kind == "negative":
        top = rng.randint(2, 12)
        roots = [-top] + [rng.randint(1 - top, top - 1) for _ in range(rng.randint(0, 5))]
        return math.prod(map(_linear, roots), start=IntPolynomial.one()), [r * r for r in roots]
    if kind == "tie":
        # a real root and a complex pair on one circle: 3-4-5 and 5-12-13
        b, c, r = rng.choice([(3, 4, 5), (4, 3, 5), (-3, 4, 5), (5, 12, 13), (-12, 5, 13)])
        rest = [rng.randint(1 - r, r - 1) for _ in range(rng.randint(0, 3))]
        p = _linear(rng.choice((r, -r))) * _quadratic(b, c)
        p = p * math.prod(map(_linear, rest), start=IntPolynomial.one())
        return p, [r * r] + [x * x for x in rest]
    # "quadratic": a dominant complex pair over smaller pairs and real roots
    b, c = rng.randint(-9, 9), rng.randint(1, 9)
    top = b * b + c * c
    p, squares = _quadratic(b, c), [top]
    for _ in range(rng.randint(0, 3)):
        if rng.random() < 0.5:
            r = rng.randint(0, math.isqrt(top - 1))
            p, squares = p * _linear(rng.choice((r, -r))), squares + [r * r]
        else:
            b2, c2 = rng.randint(-4, 4), rng.randint(1, 4)
            if b2 * b2 + c2 * c2 < top:
                p, squares = p * _quadratic(b2, c2), squares + [b2 * b2 + c2 * c2]
    return p, squares


def _decimal_largest_root(p, lo, hi):
    """Bisection in 40-digit decimals for the one sign change of p in [lo, hi]."""
    with localcontext() as ctx:
        ctx.prec = 40
        lo, hi = Decimal(lo), Decimal(hi)
        low_sign = p.evaluate(lo) > 0
        assert (p.evaluate(hi) > 0) != low_sign
        for _ in range(120):
            mid = (lo + hi) / 2
            if (p.evaluate(mid) > 0) == low_sign:
                lo = mid
            else:
                hi = mid
        return lo


@pytest.mark.parametrize("kind", ["linear", "negative", "quadratic", "tie"])
def test_spectral_radius_matches_moduli_known_by_construction(kind):
    rng = random.Random(f"spectral-radius:{kind}")
    tol = 1e-12
    for _ in range(40):
        p, squares = _root_family(rng, kind)
        with localcontext() as ctx:
            ctx.prec = 40
            expected = Decimal(max(squares)).sqrt()
        rho = spectral_radius(companion_matrix(p))
        assert abs(Decimal(rho) - expected) <= Decimal(tol), (p, rho)


def test_spectral_radius_of_polynomials_in_x_to_a_power():
    # every root of x^5 - 3 has modulus 3^(1/5), every root of x^4 + 16
    # modulus 2: one circle carries them all, and p(x) = q(x^k) reduces to q
    cases = [([-3, 0, 0, 0, 0, 1], 3 ** 0.2), ([16, 0, 0, 0, 1], 2.0),
             ([5, 0, 0, 0, -3, 0, 0, 0, 1], 5 ** 0.125)]
    for coeffs, expected in cases:
        rho = spectral_radius(companion_matrix(IntPolynomial(coeffs)))
        assert abs(rho - expected) <= 1e-12, coeffs


def test_spectral_radius_refuses_two_pairs_on_the_top_circle():
    # (x^2 - 2x + 4)(x^2 + 3x + 4): both pairs have modulus 2, which no
    # certificate here tells from two nearby moduli
    p = IntPolynomial([4, -2, 1]) * IntPolynomial([4, 3, 1])
    with pytest.raises(ArithmeticError):
        spectral_radius(companion_matrix(p))


def test_spectral_radius_of_rational_triangular_matrices():
    # the eigenvalues are the diagonal, under a unimodular change of basis
    rng = random.Random(1709)
    tol = 1e-12
    for _ in range(30):
        n = rng.randint(1, 5)
        diagonal = [Fraction(rng.randint(-12, 12), rng.randint(1, 4)) for _ in range(n)]
        rows = [[diagonal[i] if i == j else
                 (Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if j > i else 0)
                 for j in range(n)] for i in range(n)]
        u = random_unimodular(rng, n) if n > 1 else RatMatrix.identity(1)
        m = u * RatMatrix(rows) * u.inverse()
        expected = max(abs(x) for x in diagonal)
        rho = spectral_radius(m)
        assert abs(Fraction(rho) - expected) <= tol, (diagonal, rho)


@pytest.mark.parametrize("label", ["kron3", "kron4", "kron6", "lehmer", "T2-3-61"])
def test_spectral_radius_of_coxeter_matrices_to_twelve_digits(label):
    if label.startswith("kron"):
        k = int(label[4:])
        q = multi_kronecker(k)
        with localcontext() as ctx:
            ctx.prec = 40
            trace = k * k - 2  # Coxeter polynomial x^2 - (k^2 - 2) x + 1
            expected = (trace + Decimal(trace * trace - 4).sqrt()) / 2
    else:
        # E10 = T(2,3,7) has Lehmer's polynomial; T(2,3,61) has degree 64
        q = star_quiver((1, 2, 6) if label == "lehmer" else (1, 2, 60))
    phi = coxeter_matrix(cartan_path_algebra(q))
    if not label.startswith("kron"):
        expected = _decimal_largest_root(char_poly(phi), "1.1", "2")
    tol = 1e-9
    rho = spectral_radius(phi)
    assert abs(Decimal(rho) - expected) <= Decimal(tol)
    assert f"{rho:.12g}" == f"{expected:.12g}"
    if label == "lehmer":
        assert char_poly(phi) == IntPolynomial([1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1])
        assert f"{rho:.12g}" == "1.17628081826"
