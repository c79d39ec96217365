"""Quiver layer: parsing, Tits form classification, path-algebra Cartan and
Coxeter matrices.

The trichotomy expectations are the standard Dynkin/Euclidean tables; the
definiteness tests behind them are exact.
"""
import json
import random

import pytest

from quiverlab import (
    RatMatrix,
    cartan_path_algebra,
    classify_quiver,
    coxeter_matrix,
    has_oriented_cycle,
    parse_quiver,
    quiver_from_data,
    tits_matrix,
)
from quiverlab.quiver import K0Arithmetic
from quiverlab.serre import entropy_orbit
from conftest import bench_module, matrix_columns, multi_kronecker, path_quiver, star_quiver


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
    """C, E, Phi and Phi^(-1) of K0Arithmetic, and the Coxeter orbit of
    entropy_orbit on a connected Q, equal the dense oracle's."""
    cartan, phi, inverse = dense_k0(q)
    k0 = K0Arithmetic(q)
    assert cartan_path_algebra(q) == k0.matrix(k0.paths) == cartan
    assert k0.matrix(k0.euler) == cartan.inverse().T
    assert (k0.matrix(k0.forward), k0.matrix(k0.inverse)) == (phi, inverse)
    if q.is_connected:
        _, _, got, orbit = entropy_orbit(q, iterations)
        expected = [tuple(sum(col) for col in matrix_columns(cartan))]
        for _ in range(iterations):
            expected.append(phi.apply(expected[-1]))
        assert (got, orbit) == (phi, expected)


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
