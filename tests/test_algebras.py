"""Structure-constant algebras and the three builders.

Dimension and Cartan expectations: path algebras count paths; the two-loop
gentle algebra has the eight paths e1, e2, b1, b2, a, b1a, ab2, b1ab2; the
canonical algebra on weights (p_1..p_t) has dimension 2 + sum(p_i - 1) + t
+ (number of full paths shared) counted through its basis.
"""
import random
from fractions import Fraction

import pytest

from quiverlab import (
    CanonicalSpec,
    GentlePresentation,
    RatMatrix,
    canonical_algebra,
    cartan_matrix,
    gentle_algebra,
    parse_canonical_spec,
    parse_gentle,
    path_algebra,
    trivial_extension,
)
from quiverlab.scalgebra import BasisElement, SCAlgebra
from conftest import (
    BUILDERS,
    GENTLE_TWO_LOOP_DOC,
    count_multiplies,
    gentle_two_loop,
    index_of,
    multi_kronecker,
    path_quiver,
    verify_reference,
)


def test_path_algebra_dimensions():
    # A_n has n(n+1)/2 paths
    for n in (2, 3, 4, 5):
        assert path_algebra(path_quiver(n)).dim == n * (n + 1) // 2
    assert path_algebra(multi_kronecker(2)).dim == 4
    assert path_algebra(multi_kronecker(3)).dim == 5


def test_path_algebra_unit_and_idempotents():
    a = path_algebra(path_quiver(2))
    a.verify()
    unit = a.unit()
    for i in range(a.dim):
        x = {i: Fraction(1)}
        assert a.multiply(unit, x) == x
        assert a.multiply(x, unit) == x


def test_path_algebra_composition_direction():
    # product(i, j) composes j first, then i
    a = path_algebra(path_quiver(3))
    a1 = index_of(a, "a1")
    a2 = index_of(a, "a2")
    comp = a.product(a2, a1)
    assert comp == {index_of(a, "a2a1"): Fraction(1)}
    assert a.product(a1, a2) == {}


def test_cartan_matrix_of_path_algebra():
    a = path_algebra(multi_kronecker(2))
    assert cartan_matrix(a) == RatMatrix([[1, 0], [2, 1]])


def test_gentle_two_loop_shape():
    alg = gentle_two_loop()
    assert alg.dim == 8
    labels = {b.label for b in alg.basis}
    assert labels == {"e1", "e2", "b1", "b2", "a", "b1a", "ab2", "b1ab2"}
    assert cartan_matrix(alg) == RatMatrix([[2, 4], [0, 2]])


def test_gentle_relations_kill_products():
    alg = gentle_two_loop()
    b1 = index_of(alg, "b1")
    b2 = index_of(alg, "b2")
    a = index_of(alg, "a")
    assert alg.product(b1, b1) == {}
    assert alg.product(b2, b2) == {}
    assert alg.product(b1, a) == {index_of(alg, "b1a"): Fraction(1)}
    assert alg.product(a, b2) == {index_of(alg, "ab2"): Fraction(1)}


def test_gentle_axioms_rejected_when_violated():
    # three arrows out of one vertex
    doc = """{"vertices": [1, 2],
        "arrows": [{"id": "a", "from": 1, "to": 2},
                   {"id": "b", "from": 1, "to": 2},
                   {"id": "c", "from": 1, "to": 2}],
        "relations": []}"""
    with pytest.raises(ValueError):
        parse_gentle(doc)


def test_gentle_unrelieved_cycle_rejected():
    # a loop with no relation gives an infinite-dimensional algebra
    doc = '{"vertices": [1], "arrows": [{"id": "l", "from": 1, "to": 1}], "relations": []}'
    with pytest.raises(ValueError):
        gentle_algebra(parse_gentle(doc))


def test_gentle_relation_must_name_arrows():
    doc = GENTLE_TWO_LOOP_DOC.replace('"b1", "b1"', '"zz", "b1"')
    with pytest.raises(ValueError):
        gentle_algebra(parse_gentle(doc))


def _by_label(alg):
    """Basis, idempotents and products of alg, all named by basis label."""
    label = [b.label for b in alg.basis]
    basis = {b.label: (b.source, b.target, b.degree) for b in alg.basis}
    idempotents = [label[e] for e in alg.idempotents]
    products = {
        (label[i], label[j]): {label[k]: c for k, c in row.items()}
        for (i, j), row in alg.mult.items()
    }
    return basis, idempotents, products


@pytest.mark.parametrize("quiver", [path_quiver(3), multi_kronecker(2)], ids=["A3", "kron2"])
def test_gentle_without_relations_is_path_algebra(quiver):
    gentle = gentle_algebra(GentlePresentation(quiver, ()))
    assert _by_label(gentle) == _by_label(path_algebra(quiver))


def test_canonical_spec_validation():
    with pytest.raises(ValueError):
        CanonicalSpec((2,), ())
    with pytest.raises(ValueError):
        CanonicalSpec((2, 3, 5), ())
    with pytest.raises(ValueError):
        CanonicalSpec((2, 2, 2, 2), (1, 1))
    with pytest.raises(ValueError):
        CanonicalSpec((2, 2, 2), (0,))
    for weights, lambdas in ((5, ()), ((2, 3, 5), 3), ((True, 3), ()), ((2, 2, 2), (True,))):
        with pytest.raises(ValueError):
            CanonicalSpec(weights, lambdas)
    spec = CanonicalSpec((2, 3, 5), (1,))
    assert spec.lambdas == (Fraction(1),)


def test_parse_canonical_spec_document():
    spec = parse_canonical_spec('{"weights": [2, 3, 5], "lambdas": [1]}')
    assert spec.weights == (2, 3, 5)
    spec = parse_canonical_spec('{"weights": [3, 4]}')
    assert spec.weights == (3, 4)
    with pytest.raises(ValueError):
        parse_canonical_spec('{"lambdas": [1]}')
    with pytest.raises(ValueError):
        parse_canonical_spec("[1, 2]")
    # a rational lambda may be written as a string
    spec = parse_canonical_spec('{"weights": [2, 3, 5], "lambdas": ["5/2"]}')
    assert spec.lambdas == (Fraction(5, 2),)
    # neither field may be a scalar, and a JSON boolean is no weight or lambda,
    # as quiver_from_data refuses it as an arrow degree
    for document in ('{"weights": 5}', '{"weights": [2, 3, 5], "lambdas": 3}',
                     '{"weights": [true, 3]}', '{"weights": [2, 3.0]}',
                     '{"weights": [2, 3, 5], "lambdas": [true]}',
                     '{"weights": [2, 3, 5], "lambdas": [null]}',
                     '{"weights": [2, 3, 5], "lambdas": ["1/0"]}',
                     '{"weights": [2, 3, 5], "lambdas": [Infinity]}'):
        with pytest.raises(ValueError):
            parse_canonical_spec(document)


def test_canonical_dimensions():
    cases = [
        ((1, 1), (), 4),
        ((2, 2, 2), (1,), 13),
        ((2, 3, 5), (1,), 32),
        ((2, 3, 6), (1,), 39),
        ((2, 3, 7), (1,), 47),
        ((2, 2, 2, 2), (1, 2), 16),
    ]
    for weights, lambdas, dim in cases:
        assert canonical_algebra(CanonicalSpec(weights, lambdas)).dim == dim


def test_canonical_cartan_three_arms():
    a = canonical_algebra(CanonicalSpec((2, 2, 2), (1,)))
    assert a.vertices == ("0", "1_1", "2_1", "3_1", "inf")
    assert cartan_matrix(a) == RatMatrix(
        [
            [1, 0, 0, 0, 0],
            [1, 1, 0, 0, 0],
            [1, 0, 1, 0, 0],
            [1, 0, 0, 1, 0],
            [2, 1, 1, 1, 1],
        ]
    )


@pytest.mark.parametrize("weights, lambdas", [
    ((1, 3, 2), (Fraction(2, 3),)),
    ((2, 1, 2, 3), (Fraction(-1, 2), 3)),
    ((3, 2, 2, 1), (2, Fraction(5, 7))),
], ids=["weight-one-arm", "four-arms", "weight-one-extra-arm"])
def test_canonical_relation_and_labels(weights, lambdas):
    # arm i runs 0 -> i_1 -> ... -> inf; its segment from stop s to stop e
    # applies arrows s+1 .. e, the k-th of which is x{i}_{p_i-k+1}
    a = canonical_algebra(CanonicalSpec(weights, lambdas))

    def segment(i, s, e):
        p = weights[i - 1]
        return "".join(f"x{i}_{p - k + 1}" for k in range(e, s, -1))

    segments = {(i, s, e): segment(i, s, e)
                for i, p in enumerate(weights, start=1)
                for s in range(p) for e in range(s + 1, p + 1)}
    full = {i: segment(i, 0, p) for i, p in enumerate(weights, start=1)}
    in_basis = {key: label for key, label in segments.items()
                if key[0] <= 2 or label != full[key[0]]}
    idempotent_labels = {a.basis[e].label for e in a.idempotents}
    assert {b.label for b in a.basis} - idempotent_labels == set(in_basis.values())

    def expansion(i, s, e):
        if i >= 3 and (s, e) == (0, weights[i - 1]):
            return {index_of(a, full[2]): 1, index_of(a, full[1]): -lambdas[i - 3]}
        return {index_of(a, segment(i, s, e)): 1}

    for (i, s1, e1), x in in_basis.items():
        for (j, s2, e2), y in in_basis.items():
            product = a.product(index_of(a, x), index_of(a, y))
            if i == j and s1 == e2:
                assert product == expansion(i, s2, e1), (x, y)
            else:
                assert product == {}, (x, y)


def test_all_builders_produce_associative_tables():
    for alg in [
        path_algebra(path_quiver(4)),
        path_algebra(multi_kronecker(3)),
        gentle_two_loop(),
        canonical_algebra(CanonicalSpec((2, 3, 5), (1,))),
    ]:
        alg.verify()


def test_scalgebra_rejects_bad_table():
    verts = ("v",)
    basis = (
        BasisElement("e", "v", "v"),
        BasisElement("x", "v", "v"),
    )
    # x*x = e is not associative-compatible with x nilpotent elsewhere;
    # here the table is simply inconsistent: e is not a unit for x
    mult = {
        (0, 0): {0: Fraction(1)},
        (0, 1): {},
        (1, 0): {1: Fraction(1)},
        (1, 1): {},
    }
    with pytest.raises(ValueError, match="unit law"):
        SCAlgebra(verts, basis, (0,), mult).verify()


@pytest.mark.parametrize("extra, triple", [
    # x*w = w, yet x*x = 0: the first failing triple has b_i*b_j = 0
    ({(2, 2): {3: 1}, (1, 3): {3: 1}}, "('x', 'x', 'w')"),
    # w*x = w, yet y*x = 0: the first failing triple has b_j*b_k = 0
    ({(2, 2): {3: 1}, (3, 1): {3: 1}}, "('y', 'y', 'x')"),
])
def test_scalgebra_reports_first_non_associative_triple(extra, triple):
    verts = ("v",)
    basis = (
        BasisElement("e", "v", "v"),
        BasisElement("x", "v", "v"),
        BasisElement("y", "v", "v", 1),
        BasisElement("w", "v", "v", 2),
    )
    mult = {(0, k): {k: 1} for k in range(4)}
    mult.update({(k, 0): {k: 1} for k in range(4)})
    mult.update(extra)
    with pytest.raises(ValueError) as err:
        SCAlgebra(verts, basis, (0,), mult).verify()
    assert str(err.value) == f"associativity fails on {triple}"


def corrupted_tables(a, rng, count):
    """`count` copies of a's table, each with one entry corrupted.

    The corruptions cycle through adding a product (a term in the Hom space
    and degree of a composable pair, so that it can get past the typing
    laws), changing a coefficient, and dropping a product.
    """
    basis = a.basis
    idem = set(a.idempotents)
    keys = sorted(a.mult)
    radical = [m for m in range(a.dim) if m not in idem] or list(range(a.dim))
    for n in range(count):
        mult = {key: dict(row) for key, row in a.mult.items()}
        if n % 3 == 0:
            i = rng.choice(radical)
            bi = basis[i]
            j = rng.choice([j for j, bj in enumerate(basis) if bj.target == bi.source])
            bj = basis[j]
            fits = [
                k for k, bk in enumerate(basis)
                if bk.source == bj.source and bk.target == bi.target
                and bk.degree == bi.degree + bj.degree
            ]
            k = rng.choice(fits or range(a.dim))
            row = mult.setdefault((i, j), {})
            row[k] = row.get(k, 0) + 1 or 1
        elif n % 3 == 1:
            row = mult[rng.choice(keys)]
            k = rng.choice(sorted(row))
            row[k] = row[k] * rng.choice((2, -1, Fraction(1, 2)))
        else:
            del mult[rng.choice(keys)]
        yield SCAlgebra(a.vertices, a.basis, a.idempotents, mult)


def failure(check, a):
    try:
        check(a)
    except ValueError as exc:
        return str(exc)
    return None


CORRUPTION_CASES = [(name, extend) for name in BUILDERS for extend in (False, True)]


@pytest.mark.parametrize(
    "name, extend",
    CORRUPTION_CASES,
    ids=[f"{name}-{'trivext' if extend else 'base'}" for name, extend in CORRUPTION_CASES],
)
def test_verify_agrees_with_the_full_scan_on_corrupted_tables(name, extend):
    a = BUILDERS[name]()
    if extend:
        a = trivial_extension(a)
    rng = random.Random(f"{name}/{extend}")
    messages = []
    for corrupted in corrupted_tables(a, rng, 21):
        expected = failure(verify_reference, corrupted)
        assert failure(SCAlgebra.verify, corrupted) == expected
        messages.append(expected)
    if a.dim >= 12:
        # the corruptions reach the associativity scan, not only the typing laws
        assert any(m and m.startswith("associativity fails") for m in messages)


def test_verify_multiplies_only_where_a_side_can_be_nonzero(monkeypatch):
    ta = trivial_extension(path_algebra(path_quiver(12)))
    mult = ta.mult
    # over pairs of table entries: (b_i*b_j)*b_k needs b_m*b_k in the table for
    # some m in b_i*b_j, and b_i*(b_j*b_k) needs b_i*b_l for some l in b_j*b_k
    live = set()
    for (i, j), ij in mult.items():
        for m, k in mult:
            if m in ij:
                live.add((i, j, k))
    for (j, k), jk in mult.items():
        for i, l in mult:
            if l in jk:
                live.add((i, j, k))
    assert len(live) == 5460
    calls = count_multiplies(monkeypatch)
    ta.verify()
    assert len(calls) <= 2 * len(live)
