"""Exact matrix layer: arithmetic, elimination, kernels.

Expected values are hand computations on small matrices.
"""
import copy
import json
import random
from fractions import Fraction

import pytest

from quiverlab import (
    IntPolynomial,
    cartan_path_algebra,
    char_poly,
    classify_quiver,
    coxeter_matrix,
    cyclotomic_poly,
    jacobson_radical,
    min_poly,
    path_algebra,
    tits_matrix,
    trivial_extension,
)
from quiverlab.cyclo import _krylov_blocks, krylov_chain
from quiverlab.echelon import UNTRACKED, TrackedEchelon, l1_norm, vector
from quiverlab.ratmat import RatMatrix
from quiverlab.resolution import _FlatResolver
from conftest import (
    as_fraction,
    bench_module,
    builder_outputs,
    echelon_rows,
    engine_kernels,
    eval_matrix,
    from_columns,
    matrix_columns,
    multi_kronecker,
    path_quiver,
    solve,
    star_quiver,
    trace_form_radical,
    wild3_quiver,
)


def mat(rows):
    return RatMatrix(rows)


def test_as_fraction_accepts_strings_and_ints():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(1, 2)) == Fraction(1, 2)


def test_vector_and_l1_norm():
    v = vector([1, "-3/2", 0])
    assert v == (Fraction(1), Fraction(-3, 2), Fraction(0))
    assert l1_norm(v) == Fraction(5, 2)


def test_shape_and_entries():
    m = mat([[1, 2, 3], [4, 5, 6]])
    assert (m.rows, m.cols) == (2, 3)
    assert m[(1, 2)] == 6
    assert m.row(0) == (1, 2, 3)
    assert m.column(1) == (2, 5)
    assert not m.is_square


def test_ragged_rows_rejected():
    with pytest.raises(ValueError):
        mat([[1, 2], [3]])


def test_transpose_and_hstack():
    m = mat([[1, 2], [3, 4]])
    assert m.T == mat([[1, 3], [2, 4]])
    assert m.hstack(mat([[5], [6]])) == mat([[1, 2, 5], [3, 4, 6]])


def test_arithmetic():
    a = mat([[1, 2], [3, 4]])
    b = mat([[0, 1], [1, 0]])
    assert a + b == mat([[1, 3], [4, 4]])
    assert a - b == mat([[1, 1], [2, 4]])
    assert -a == mat([[-1, -2], [-3, -4]])
    assert a.scale(Fraction(1, 2)) == mat([["1/2", 1], ["3/2", 2]])
    assert a * b == mat([[2, 1], [4, 3]])


def test_matrix_vector_apply():
    a = mat([[1, 2], [3, 4]])
    assert a.apply(vector([1, 1])) == vector([3, 7])


def test_powers_including_negative():
    a = mat([[2, 0], [0, 3]])
    assert a ** 0 == RatMatrix.identity(2)
    assert a ** 3 == mat([[8, 0], [0, 27]])
    assert a ** -1 == mat([["1/2", 0], [0, "1/3"]])


def test_powers_make_one_product_per_square_and_per_set_bit_after_the_lowest(monkeypatch):
    # square-and-multiply from the lowest set bit: e.bit_length() - 1
    # squares and e.bit_count() - 1 products into the result, none by the
    # identity
    m = mat([[1, 1, 0], [0, 1, "1/2"], [2, 0, 1]])
    products = []
    mul = RatMatrix.__mul__

    def counting(self, other):
        products.append(1)
        return mul(self, other)

    expected = m
    for e in range(1, 71):
        products.clear()
        with monkeypatch.context() as patch:
            patch.setattr(RatMatrix, "__mul__", counting)
            power = m ** e
        assert power == expected, e
        assert len(products) == e.bit_count() + e.bit_length() - 2, e
        expected = mul(expected, m)


def test_determinant_hand_values():
    assert mat([[1, 2], [3, 4]]).det() == -2
    assert mat([[2, 0, 1], [1, 1, 0], [0, 3, 1]]).det() == 5
    assert RatMatrix.identity(4).det() == 1


def test_rank_and_rref():
    m = mat([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    assert m.rank() == 2
    reduced, pivots = m.rref()
    assert pivots == (0, 1)
    assert reduced.row(2) == (0, 0, 0)


def test_kernel_basis_annihilates():
    m = mat([[1, 2, 3], [2, 4, 6]])
    basis = m.kernel_basis()
    assert len(basis) == 2
    for vec in basis:
        assert m.apply(vec) == vector([0, 0])


def test_inverse_and_solve():
    m = mat([[2, 1], [1, 1]])
    assert m * m.inverse() == RatMatrix.identity(2)
    sol = solve(m, vector([3, 2]))
    assert m.apply(sol) == vector([3, 2])
    assert solve(mat([[1, 2], [2, 4]]), vector([1, 0])) is None
    # I - N of A12 (N[i+1][i] = 1) inverts to the path counts, ones on and below the diagonal
    n = 12
    unitriangular = mat([[int(i == j) - int(i == j + 1) for j in range(n)] for i in range(n)])
    assert unitriangular.inverse() == mat([[int(i >= j) for j in range(n)] for i in range(n)])


def test_singular_inverse_raises():
    with pytest.raises(ValueError):
        mat([[1, 2], [2, 4]]).inverse()


def test_empty_matrix():
    e = RatMatrix([])
    assert (e.rows, e.cols) == (0, 0)
    assert e.det() == 1
    assert from_columns([]) == e


def test_from_columns_round_trip():
    m = from_columns([vector([1, 3]), vector([2, 4])])
    assert m == mat([[1, 2], [3, 4]])
    assert matrix_columns(m) == [vector([1, 3]), vector([2, 4])]


def test_tracked_echelon_reports_relations():
    echelon = TrackedEchelon()
    assert echelon.insert({0: 2, 1: 4}, {"u": 1}) is None
    assert echelon.insert({1: 3, 2: -1}, {"v": 1}) is None
    # w = u/2 + v, so the exact relation w - u/2 - v comes back
    relation = echelon.insert({0: 1, 1: 5, 2: -1}, {"w": 1})
    assert relation == {"w": 1, "u": Fraction(-1, 2), "v": -1}
    assert echelon.add({0: 3, 1: 6}) is False
    assert echelon.add({2: 5}) is True
    assert len(echelon.pivots) == 3


def test_untrack_leaves_relations_on_later_inputs():
    # w = u/2 + v + x: tracked, the relation names u, v and x; after
    # untrack, only x, the one input inserted since, and in ints
    rows = [({0: 2, 1: 4}, "u"), ({1: 3, 2: -1}, "v")]
    tracked, untracked = TrackedEchelon(), TrackedEchelon()
    for echelon in (tracked, untracked):
        for vec, name in rows:
            assert echelon.insert(dict(vec), {name: 1}) is None
    untracked.untrack()
    assert all(expr is None for _, expr in untracked.pivots.values())
    for echelon in (tracked, untracked):
        assert echelon.insert({0: 1, 2: 3}, {"x": 1}) is None
    w = {0: 2, 1: 5, 2: 2}
    assert tracked.insert(dict(w), {"w": 1}) == {"w": 1, "x": -1, "u": Fraction(-1, 2), "v": -1}
    assert untracked.insert(dict(w), {"w": 1}) == {"w": 1, "x": -1}
    # a one-term row loses its expression too, and reduces as a unit
    untracked = TrackedEchelon()
    untracked.insert({3: 5}, {"z": 1})
    untracked.untrack()
    assert untracked.pivots == {3: UNTRACKED}
    assert untracked.insert({3: 2, 1: 1}, {"t": 1}) is None
    assert untracked.insert({3: 7, 1: 3}, {"s": 1}) == {"s": 1, "t": -3}


def test_tracked_echelon_keys_rows_by_their_lead():
    echelon = TrackedEchelon()
    assert echelon.insert({0: 3, 1: -1}, {"u": 1}) is None
    # v's largest coordinate is u's lead, so v is kept reduced, at lead 0
    assert echelon.insert({0: 4, 1: 2}, {"v": 1}) is None
    assert list(echelon.pivots) == [1, 0]
    for lead, (vec, expr) in echelon.pivots.items():
        assert lead == max(vec)
    # the lead 10 does not divide 4: the vector is scaled by 5, the row is
    # not divided, and the relation is divided by 5 once at the end
    relation = echelon.insert({0: 4}, {"w": 1})
    assert relation == {"w": 1, "v": Fraction(-2, 5), "u": Fraction(-4, 5)}
    # integral inputs keep int rows, and an integral relation comes back in ints
    relation = echelon.insert({0: 15, 1: 5}, {"x": 1})
    assert relation == {"x": 1, "u": -1, "v": -3}
    assert echelon_rows(echelon) == [{0: 3, 1: -1}, {0: 10}]
    stored = [x for vec, expr in echelon.pivots.values() for x in [*vec.values(), *expr.values()]]
    assert all(type(x) is int for x in stored + list(relation.values()))
    # Fraction inputs reduce by the exact ratio
    echelon = TrackedEchelon()
    echelon.insert({0: Fraction(1, 2), 1: Fraction(2, 3)}, {"u": 1})
    echelon.insert({0: Fraction(3, 4)}, {"v": 1})
    relation = echelon.insert({0: 1, 1: 2}, {"w": 1})
    assert relation == {"w": 1, "u": -3, "v": Fraction(2, 3)}
    assert type(relation["u"]) is int


def test_tracked_echelon_relations_are_the_rref_kernel_vectors():
    # the relation of a dependent column is 1 there and lives on earlier
    # independent columns, which is the RREF kernel vector of that free column
    rng = random.Random(1968)
    for trial in range(80):
        rational = trial % 2 == 1

        def number():
            if rational:
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return rng.randint(-3, 3)

        nrows = rng.randint(1, 6)
        columns = []
        for _ in range(rng.randint(1, 8)):
            roll = rng.random()
            if columns and roll < 0.4:
                coeffs = [number() for _ in columns]
                columns.append([sum(c * col[i] for c, col in zip(coeffs, columns)) for i in range(nrows)])
            elif roll < 0.5:
                columns.append([0] * nrows)
            else:
                columns.append([number() for _ in range(nrows)])
        m = from_columns(columns)
        echelon = TrackedEchelon()
        relations = []
        for j, col in enumerate(matrix_columns(m)):
            relation = echelon.insert({i: x for i, x in enumerate(col) if x}, {j: 1})
            if relation is not None:
                relations.append(tuple(relation.get(k, 0) for k in range(m.cols)))
        assert relations == m.kernel_basis(), (trial, columns)
        assert len(echelon.pivots) == m.rank()
        for x in _numbers(relations):
            assert x.denominator != 1 or type(x) is int, (trial, x)


def test_untracked_echelon_keeps_one_term_rows_as_units():
    # add() keeps a one-term row, an input at a free coordinate or one a
    # reduction leaves, as its lead alone, the shared one-term entry
    # UNTRACKED, and a reduction that reaches such a lead drops it; the span
    # and its rank are those of the inputs all the same
    rng = random.Random(2511)
    seen = {"new unit": 0, "repeated unit": 0, "one-term on a longer row": 0,
            "longer meets a unit": 0, "longer leaves a unit": 0}
    for trial in range(60):
        rational = trial % 2 == 1

        def number():
            x = rng.choice([-3, -2, -1, 1, 2, 3])
            return Fraction(x, rng.randint(1, 4)) if rational else x

        width = rng.randint(1, 7)

        def rank(vecs):
            return RatMatrix([[vec.get(k, 0) for k in range(width)] for vec in vecs]).rank()

        echelon = TrackedEchelon()
        inputs: list[dict] = []
        for _ in range(rng.randint(1, 12)):
            size = 1 if width == 1 or rng.random() < 0.5 else rng.randint(2, width)
            vec = {k: number() for k in rng.sample(range(width), size)}
            units = {k for k, held in echelon.pivots.items() if held is UNTRACKED}
            if size == 1:
                (k,) = vec
                if k in units:
                    seen["repeated unit"] += 1
                elif k in echelon.pivots:
                    seen["one-term on a longer row"] += len(echelon.pivots[k][0]) > 1
                else:
                    seen["new unit"] += 1
            else:
                seen["longer meets a unit"] += not units.isdisjoint(vec)
            before = rank(inputs)
            inputs.append(vec)
            grew = echelon.add(dict(vec))
            assert grew is (rank(inputs) > before), (trial, inputs)
            if grew and size > 1:
                seen["longer leaves a unit"] += next(reversed(echelon.pivots.values())) is UNTRACKED
        final = rank(inputs)
        assert len(echelon.pivots) == echelon.rank() == final
        # every one-term row is UNTRACKED, every other entry a row with no
        # expression, keyed by its lead
        for lead, held in echelon.pivots.items():
            assert held is UNTRACKED or (held[1] is None and len(held[0]) > 1
                                         and lead == max(held[0]))
        # the nilpotence oracle reads echelon_rows: they span every input
        rows = echelon_rows(echelon)
        assert len(rows) == rank(rows) == rank(rows + inputs) == final, (trial, inputs)
    assert all(seen.values()), seen


def test_one_term_entries_reduce_like_their_dict_rows():
    # the one-term entry (c, u) is the row ({k: c}, {u: 1}) and UNTRACKED
    # the row ({k: c}, None), for any c: two echelons that start from the
    # same one-term rows in the two forms and then take the same inputs
    # return the same relations and booleans and keep the same rank, and
    # popping pivots back to an earlier size restores the earlier echelon
    rng = random.Random(3511)
    seen = {"insert": 0, "add": 0, "relation": 0, "through (c, u)": 0, "through UNTRACKED": 0}
    for trial in range(120):
        rational = trial % 2 == 1

        def number():
            x = rng.choice([-3, -2, -1, 1, 2, 3])
            return Fraction(x, rng.randint(1, 4)) if rational else x

        width = rng.randint(1, 7)

        def rank(vecs):
            return RatMatrix([[vec.get(k, 0) for k in range(width)] for vec in vecs]).rank()

        compact, pairs = TrackedEchelon(), TrackedEchelon()
        inputs: list[dict] = []
        tracked, untracked = set(), set()
        for u, k in enumerate(rng.sample(range(width), rng.randint(1, width))):
            c = number()
            inputs.append({k: c})
            if rng.random() < 0.5:
                compact.pivots[k], pairs.pivots[k] = (c, u), ({k: c}, {u: 1})
                tracked.add(k)
            else:
                compact.pivots[k], pairs.pivots[k] = UNTRACKED, ({k: c}, None)
                untracked.add(k)
        history = []
        for j in range(len(inputs), len(inputs) + rng.randint(1, 8)):
            history.append((len(compact.pivots), copy.deepcopy(compact.pivots)))
            vec = {k: number() for k in rng.sample(range(width), rng.randint(1, width))}
            seen["through (c, u)"] += not tracked.isdisjoint(vec)
            seen["through UNTRACKED"] += not untracked.isdisjoint(vec)
            if rng.random() < 0.5:
                got, want = compact.insert(dict(vec), {j: 1}), pairs.insert(dict(vec), {j: 1})
                assert got == want, (trial, vec)
                if got is not None:
                    assert {k: type(x) for k, x in got.items()} == {
                        k: type(x) for k, x in want.items()}
                    seen["relation"] += 1
                seen["insert"] += 1
            else:
                assert compact.add(dict(vec)) is pairs.add(dict(vec)), (trial, vec)
                seen["add"] += 1
            inputs.append(vec)
            final = rank(inputs)
            assert compact.rank() == pairs.rank() == final
            rows = echelon_rows(compact)
            assert len(rows) == rank(rows) == rank(rows + inputs) == final, (trial, inputs)
        for size, pivots in reversed(history):
            while len(compact.pivots) > size:
                compact.pivots.popitem()
            assert compact.pivots == pivots
            assert list(compact.pivots) == list(pivots)
    assert all(seen.values()), seen


# --- integral matrices stay in ints ------------------------------------------


def _numbers(value):
    """Every number inside a matrix, a vector or a list of vectors."""
    if isinstance(value, RatMatrix):
        value = value.entries()
    if isinstance(value, (tuple, list)):
        for x in value:
            yield from _numbers(x)
    else:
        yield value


def test_integral_matrices_keep_int_entries_and_never_leak_floats():
    rng = random.Random(2026)
    cases = [
        mat([[2, 1], [1, 3]]),
        # pivot 3 in both the elimination and the Hessenberg reduction
        mat([[3, 1, 1], [3, 2, 1], [1, 1, 2]]),
        tits_matrix(star_quiver((1, 2, 4))),  # E8
        tits_matrix(wild3_quiver()),
        mat([[rng.randint(-4, 4) for _ in range(6)] for _ in range(6)]),
    ]
    # polynomials and algebras store the same plain form as matrices
    shared = {"cyclotomic_poly": [cyclotomic_poly(d).coeffs for d in (1, 2, 12, 30, 105)]}
    for name, a in builder_outputs():
        extended = [] if name.startswith("trivext") else [(f"T({name})", trivial_extension(a))]
        for label, alg in [(name, a)] + extended:
            shared[f"{label} mult"] = [tuple(row.values()) for row in alg.mult.values()]
            shared[f"{label} radical"] = jacobson_radical(alg)
            shared[f"{label} trace-form radical"] = trace_form_radical(alg)
    # the single echelon stays fraction-free on the Krylov chains behind
    # orbit_growth and on the engine's kernel relations
    int_only = {}
    for label, arms in (("D40", (1, 1, 37)), ("T(2,3,31)", (1, 2, 30))):
        cartan = cartan_path_algebra(star_quiver(arms))
        cogenerator = vector(sum(cartan.column(j)) for j in range(cartan.cols))
        local, chain = krylov_chain(coxeter_matrix(cartan), [cogenerator])
        int_only[f"Krylov chain of Phi({label})"] = [local.coeffs] + [
            [*vec.values(), *expr.values()] for vec, expr in chain.pivots.values()
        ]
    # and on the Krylov blocks of the conjugated Phi(D24) that check-coxeter
    # reads, dense with large entries
    files, _ = bench_module("workloads").build("spectral", 1401)
    conjugated = RatMatrix(json.loads(files["phi-D24.json"]))
    int_only["char_poly of the conjugated Phi(D24)"] = [char_poly(conjugated).coeffs] + [
        q.coeffs for _, q in _krylov_blocks(conjugated)
    ]
    a = trivial_extension(path_algebra(multi_kronecker(3)))
    engine = _FlatResolver(a)
    relations = []
    for vertex in range(len(a.vertices)):
        for kernel in engine_kernels(engine, vertex, 4):
            relations += [list(vec.values()) for vec in kernel]
    int_only["kernel_of_cover relations of T(kron3)"] = relations
    for name, value in int_only.items():
        assert value
        for x in _numbers(value):
            assert type(x) is int, (name, x)
    linear = IntPolynomial((1, 3))  # 3x + 1: dividing by it makes thirds
    for m in cases:
        n = m.rows
        inverse = m.inverse()
        rhs = vector(range(1, n + 1))
        cp, mp = char_poly(m), min_poly(m)
        results = {
            "det": m.det(),
            "rref": m.hstack(m.T).rref()[0],
            "inverse": inverse,
            "kernel_basis": m.hstack(m).kernel_basis(),
            "solve": solve(m, rhs),
            "apply": m.apply(rhs),
            "mul": m * m,
            "mul-inverse": inverse * m,
            "pow": m ** 3,
            "pow-negative": m ** -2,
            "char_poly": cp.coeffs,
            "min_poly": mp.coeffs,
            "poly-mul": (cp * mp).coeffs,
            "poly-divmod": [r.coeffs for r in divmod(cp * mp + linear, mp)],
            "poly-divmod-thirds": [r.coeffs for r in divmod(cp, linear)],
            "poly-gcd": cp.gcd(mp).coeffs,
            "poly-lcm": cp.lcm(mp * linear).coeffs,
            **shared,
        }
        # a float anywhere in the elimination would show as an inexact value
        assert results["det"] == (-1) ** n * char_poly(m).constant != 0
        assert eval_matrix(char_poly(m), m).is_zero()
        assert results["mul-inverse"] == RatMatrix.identity(n)
        for name, value in results.items():
            for x in _numbers(value):
                assert type(x) in (int, Fraction), (name, x)
                # an integral entry comes back as an int, not Fraction(k, 1)
                assert x.denominator != 1 or type(x) is int, (name, x)
        assert all(type(c) in (int, Fraction) for c in char_poly(m).coeffs)


def test_classify_verdicts_on_int_tits_forms():
    assert classify_quiver(path_quiver(8)).kind == "finite"
    assert classify_quiver(star_quiver((1, 2, 4))).kind == "finite"  # E8
    affine = classify_quiver(star_quiver((2, 2, 2)))  # affine E6
    assert (affine.kind, sorted(affine.radical_vector)) == ("affine", [1, 1, 1, 2, 2, 2, 3])
    # a float Schur complement calls these three finite or indefinite
    for arms, center_last in (((1, 3, 3), False), ((1, 2, 5), False), ((2, 2, 2), True)):
        assert classify_quiver(star_quiver(arms, center_last)).kind == "affine"
    assert classify_quiver(star_quiver((1, 2, 6))).kind == "indefinite"  # T(2,3,7)
    assert classify_quiver(wild3_quiver()).kind == "indefinite"
