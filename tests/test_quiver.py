"""Quiver layer: parsing, Tits form classification, path-algebra Cartan and
Coxeter matrices.

The trichotomy expectations are the standard Dynkin/Euclidean tables; the
definiteness tests behind them are exact.
"""
import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from quiverlab import (
    CanonicalSpec,
    RatMatrix,
    canonical_algebra,
    cartan_matrix,
    cartan_path_algebra,
    classify_quiver,
    coxeter_matrix,
    has_oriented_cycle,
    parse_quiver,
    quiver_from_data,
    tits_matrix,
)
from quiverlab.quiver import CoxeterMap, K0Arithmetic
from quiverlab.serre import entropy_and_growth
from conftest import (
    bench_module,
    matrix_columns,
    multi_kronecker,
    path_quiver,
    quiver_on,
    rational_tits_type,
    star_quiver,
    unlabelled_trees,
    wild3_quiver,
)


def test_parse_minimal_document():
    q = parse_quiver('{"vertices": [1, 2], "arrows": [{"id": "a", "from": 1, "to": 2}]}')
    assert q.vertices == ("1", "2")
    assert len(q.arrows) == 1
    assert (q.arrows[0].source, q.arrows[0].target) == ("1", "2")
    assert q.arrows[0].degree == 0


def test_parse_degree_field():
    q = parse_quiver(
        '{"vertices": [1], "arrows": [{"id": "l", "from": 1, "to": 1, "degree": 2}]}'
    )
    assert q.arrows[0].degree == 2


def test_parse_rejects_unknown_vertex():
    with pytest.raises(ValueError):
        parse_quiver('{"vertices": [1, 2], "arrows": [{"id": "a", "from": 1, "to": 3}]}')


def test_parse_rejects_duplicate_arrow_id():
    doc = {
        "vertices": [1, 2],
        "arrows": [
            {"id": "a", "from": 1, "to": 2},
            {"id": "a", "from": 2, "to": 1},
        ],
    }
    with pytest.raises(ValueError):
        parse_quiver(json.dumps(doc))


def test_parse_rejects_malformed_json():
    with pytest.raises(ValueError):
        parse_quiver("{not json")


def test_connectivity_and_reversal():
    q = path_quiver(3)
    assert q.is_connected
    r = q.reversed()
    assert {(a.source, a.target) for a in r.arrows} == {("2", "1"), ("3", "2")}
    disconnected = quiver_from_data({"vertices": [1, 2], "arrows": []})
    assert not disconnected.is_connected
    assert disconnected.components() == [[0], [1]]
    # two paths and a loop, their vertices interleaved: each component's
    # positions increase, and the components come by their least position
    mixed = quiver_from_data({"vertices": ["a", "x", "b", "y", "c", "l"], "arrows": [
        {"id": "1", "from": "c", "to": "b"}, {"id": "2", "from": "a", "to": "b"},
        {"id": "3", "from": "y", "to": "x"}, {"id": "4", "from": "l", "to": "l"}]})
    assert mixed.components() == [[0, 2, 4], [1, 3], [5]]
    assert not mixed.is_connected
    assert q.components() == [[0, 1, 2]]


def test_tits_matrix_values():
    assert tits_matrix(path_quiver(2)) == RatMatrix([[2, -1], [-1, 2]])
    assert tits_matrix(multi_kronecker(2)) == RatMatrix([[2, -2], [-2, 2]])
    assert tits_matrix(multi_kronecker(3)) == RatMatrix([[2, -3], [-3, 2]])
    loop = quiver_from_data({"vertices": [1], "arrows": [{"id": "l", "from": 1, "to": 1}]})
    assert tits_matrix(loop) == RatMatrix([[0]])


def test_classify_finite_family():
    for q in [
        path_quiver(2),
        path_quiver(3),
        path_quiver(4),
        path_quiver(5),
        star_quiver((1, 1, 1)),
        star_quiver((1, 2, 2)),
        star_quiver((1, 2, 3)),
        star_quiver((1, 2, 4)),
    ]:
        t = classify_quiver(q)
        assert t.kind == "finite"
        assert t.radical_vector is None


def test_classify_affine_family_with_radicals():
    t = classify_quiver(multi_kronecker(2))
    assert (t.kind, t.radical_vector) == ("affine", (1, 1))

    t = classify_quiver(star_quiver((1, 1, 1, 1), center_last=True))
    assert (t.kind, t.radical_vector) == ("affine", (1, 1, 1, 1, 2))

    t = classify_quiver(star_quiver((2, 2, 2)))
    assert t.kind == "affine"
    # center carries 3, arm midpoints 2, tips 1
    assert sorted(t.radical_vector) == [1, 1, 1, 2, 2, 2, 3]
    assert t.radical_vector[0] == 3


def test_classify_orientation_independent():
    t = classify_quiver(path_quiver(4).reversed())
    assert t.kind == "finite"
    t = classify_quiver(multi_kronecker(2).reversed())
    assert (t.kind, t.radical_vector) == ("affine", (1, 1))


def test_classify_indefinite_family():
    assert classify_quiver(multi_kronecker(3)).kind == "indefinite"
    assert classify_quiver(star_quiver((1, 1, 1, 1, 1))).kind == "indefinite"


def test_classify_oriented_cycle_is_affine():
    cyc = quiver_from_data(
        {
            "vertices": [1, 2, 3],
            "arrows": [
                {"id": "a", "from": 1, "to": 2},
                {"id": "b", "from": 2, "to": 3},
                {"id": "c", "from": 3, "to": 1},
            ],
        }
    )
    t = classify_quiver(cyc)
    assert (t.kind, t.radical_vector) == ("affine", (1, 1, 1))


def test_classify_requires_connected():
    q = quiver_from_data({"vertices": [1, 2], "arrows": []})
    with pytest.raises(ValueError):
        classify_quiver(q)


def test_classify_is_the_rational_oracle_on_every_tree_up_to_ten_vertices():
    levels = unlabelled_trees(10)
    assert [len(level) for level in levels] == [1, 1, 1, 2, 3, 6, 11, 23, 47, 106]
    kinds = {"finite": 0, "affine": 0, "indefinite": 0}
    for n, level in enumerate(levels, 1):
        for edges in level:
            q = quiver_on(n, edges)
            found = classify_quiver(q)
            assert found == rational_tits_type(q), edges
            kinds[found.kind] += 1
    # A_1..A_10, D_4..D_10, E_6..E_8; and D~_4..D~_9, E~_6, E~_7, E~_8
    assert kinds == {"finite": 20, "affine": 9, "indefinite": 172}


def random_connected_quiver(rng: random.Random, max_vertices: int):
    """A random spanning tree on 1..max_vertices vertices, each edge oriented
    at random, plus up to three arrows between any two vertices, loops
    included."""
    n = rng.randint(1, max_vertices)
    arrows = []
    for v in range(1, n):
        u = rng.randrange(v)
        arrows.append((u, v) if rng.random() < 0.5 else (v, u))
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
        arrows.append((rng.randrange(n), rng.randrange(n)))
    return quiver_on(n, arrows)


def test_classify_is_the_rational_oracle_on_random_quivers():
    rng = random.Random(4501)
    seen = {"affine": 0, "loop": 0, "parallel": 0}
    for _ in range(1200):
        q = random_connected_quiver(rng, 10)
        found = classify_quiver(q)
        assert found == rational_tits_type(q), q
        ends = [frozenset((a.source, a.target)) for a in q.arrows]
        seen["affine"] += found.kind == "affine"
        seen["loop"] += any(a.source == a.target for a in q.arrows)
        seen["parallel"] += len(set(ends)) < len(ends)
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("q", [
    path_quiver(60), star_quiver((1, 1, 37)), star_quiver((1, 1, 77)),
    star_quiver((1, 2, 30)), star_quiver((1, 2, 6)), star_quiver((2, 2, 2)),
    multi_kronecker(2), multi_kronecker(3), multi_kronecker(4), wild3_quiver(),
], ids=["A60", "D40", "D80", "T(2,3,31)", "E10", "E6-affine", "kron2", "kron3", "kron4",
        "wild3"])
def test_classify_is_the_rational_oracle_on_named_quivers(q):
    assert classify_quiver(q) == rational_tits_type(q)


def test_has_oriented_cycle():
    assert not has_oriented_cycle(path_quiver(3))
    loop = quiver_from_data({"vertices": [1], "arrows": [{"id": "l", "from": 1, "to": 1}]})
    assert has_oriented_cycle(loop)
    cyc = quiver_from_data(
        {
            "vertices": [1, 2],
            "arrows": [
                {"id": "a", "from": 1, "to": 2},
                {"id": "b", "from": 2, "to": 1},
            ],
        }
    )
    assert has_oriented_cycle(cyc)
    assert not has_oriented_cycle(multi_kronecker(2))


def test_cartan_path_algebra_values():
    assert cartan_path_algebra(path_quiver(2)) == RatMatrix([[1, 0], [1, 1]])
    assert cartan_path_algebra(multi_kronecker(2)) == RatMatrix([[1, 0], [2, 1]])
    assert cartan_path_algebra(multi_kronecker(3)) == RatMatrix([[1, 0], [3, 1]])
    # columns are the dimension vectors of the indecomposable projectives
    c = cartan_path_algebra(path_quiver(3))
    assert matrix_columns(c) == [
        (1, 1, 1),
        (0, 1, 1),
        (0, 0, 1),
    ]


def test_cartan_path_algebra_rejects_cycle():
    loop = quiver_from_data({"vertices": [1], "arrows": [{"id": "l", "from": 1, "to": 1}]})
    with pytest.raises(ValueError):
        cartan_path_algebra(loop)


def dense_k0(q):
    """The dense oracle of K0Arithmetic: C = (I - N)^(-1) for the arrow
    counts N[t][s] of s -> t, Phi = coxeter_matrix(C) and Phi^(-1), each by
    RatMatrix.inverse."""
    n, index = len(q.vertices), q.vertex_index()
    steps = [[0] * n for _ in range(n)]
    for a in q.arrows:
        steps[index[a.target]][index[a.source]] += 1
    cartan = (RatMatrix.identity(n) - RatMatrix(steps)).inverse()
    phi = coxeter_matrix(cartan)
    return cartan, phi, phi.inverse()


def assert_k0_is_dense(q, iterations):
    """C, E, Phi and Phi^(-1) of K0Arithmetic, and the Coxeter orbit of the
    cogenerator walked with K0Arithmetic.forward, equal the dense oracle's,
    and entropy's trace is read off that orbit."""
    cartan, phi, inverse = dense_k0(q)
    k0 = K0Arithmetic(q)
    assert cartan_path_algebra(q) == k0.matrix(k0.paths) == cartan
    assert k0.matrix(k0.euler) == cartan.inverse().T
    assert (k0.matrix(k0.forward), k0.matrix(k0.inverse)) == (phi, inverse)
    assert k0.matrix(CoxeterMap(k0).apply) == phi
    orbit = [[sum(k0.paths(k0.unit(j))) for j in range(k0.n)]]
    expected = [tuple(sum(col) for col in matrix_columns(cartan))]
    for _ in range(iterations):
        orbit.append(k0.forward(orbit[-1]))
        expected.append(phi.apply(expected[-1]))
    assert list(map(tuple, orbit)) == expected
    trace = [math.log(sum(map(abs, v))) / k for k, v in enumerate(expected) if k]
    assert entropy_and_growth(q, iterations)[1] == trace


def random_acyclic_quiver(rng: random.Random, max_vertices: int):
    """An acyclic quiver on 1..max_vertices vertices with up to twice as
    many arrows, each pointing up a random order of the vertices, so
    parallel arrows and several components both come up."""
    n = rng.randint(1, max_vertices)
    rank = rng.sample(range(n), n)
    pairs = [sorted(rng.sample(range(n), 2), key=rank.__getitem__)
             for _ in range(rng.randint(0, 2 * n) if n > 1 else 0)]
    return quiver_from_data({
        "vertices": list(range(n)),
        "arrows": [{"id": f"x{k}", "from": s, "to": t} for k, (s, t) in enumerate(pairs)],
    })


def test_k0_arithmetic_is_the_dense_oracle_on_random_acyclic_quivers():
    rng = random.Random(43)
    seen = {"disconnected": 0, "parallel": 0, "wild": 0}
    for _ in range(80):
        q = random_acyclic_quiver(rng, 8)
        ends = [(a.source, a.target) for a in q.arrows]
        seen["disconnected"] += not q.is_connected
        seen["parallel"] += len(set(ends)) < len(ends)
        seen["wild"] += q.is_connected and classify_quiver(q).kind == "indefinite"
        assert_k0_is_dense(q, 20)
    assert min(seen.values()) >= 10, seen


def bench_quivers() -> dict:
    """File name -> quiver of every relation-free quiver document of the
    benchmark's workloads."""
    workloads = bench_module("workloads")
    out = {}
    for name in workloads.WORKLOADS:
        files, _ = workloads.build(name, 1401)
        for label, text in files.items():
            document = json.loads(text)
            if isinstance(document, dict) and "relations" not in document:
                out[label] = quiver_from_data(document)
    return out


@pytest.mark.parametrize("q", bench_quivers().values(), ids=bench_quivers())
def test_k0_arithmetic_is_the_dense_oracle_on_every_bench_quiver(q):
    assert_k0_is_dense(q, 60)


def test_k0_arithmetic_of_a_canonical_algebra_is_its_builder():
    # C, E, Phi and Phi^(-1) read off the weights alone, and dim Lambda as the
    # sum of C's entries, equal the builder's Cartan matrix, the dense
    # inverses and Coxeter matrix of it, and the builder's dimension, on
    # seeded weight types of 2-5 arms and weights 1-5 with lambdas drawn
    # away from the default 1, 2, ...
    rng = random.Random(47)
    scalars = sorted({Fraction(k, d) for k in range(-4, 5) if k for d in (1, 2, 3)})
    types, seen = set(), Counter()
    for _ in range(130):
        weights = tuple(rng.randint(1, 5) for _ in range(rng.randint(2, 5)))
        lambdas = tuple(rng.sample(scalars, len(weights) - 2))
        types.add(weights)
        seen[f"{len(weights)} arms"] += 1
        seen["weight-one arm"] += 1 in weights
        seen["other lambdas"] += lambdas != tuple(range(1, len(weights) - 1))
        algebra = canonical_algebra(CanonicalSpec(weights, lambdas))
        cartan = cartan_matrix(algebra)
        phi = coxeter_matrix(cartan)
        k0 = K0Arithmetic.canonical(weights)
        assert k0.matrix(k0.paths) == cartan, weights
        assert k0.matrix(k0.euler) == cartan.inverse().T, weights
        assert (k0.matrix(k0.forward), k0.matrix(k0.inverse)) == (phi, phi.inverse()), weights
        assert sum(sum(k0.paths(k0.unit(j))) for j in range(k0.n)) == algebra.dim, weights
    assert len(types) >= 100, len(types)
    assert min(seen.values()) >= 10, seen


def test_coxeter_matrix_values():
    assert coxeter_matrix(RatMatrix([[1, 0], [1, 1]])) == RatMatrix([[0, -1], [1, -1]])
    assert coxeter_matrix(RatMatrix([[1, 0], [2, 1]])) == RatMatrix([[3, -2], [2, -1]])
    assert coxeter_matrix(RatMatrix([[2, 4], [0, 2]])) == RatMatrix([[-1, 2], [-2, 3]])


def test_coxeter_periodicity_small_dynkin():
    for n, period in [(2, 3), (3, 4), (4, 5), (5, 6)]:
        phi = coxeter_matrix(cartan_path_algebra(path_quiver(n)))
        eye = RatMatrix.identity(n)
        assert phi ** period == eye
        assert all(phi ** k != eye for k in range(1, period))
