"""Shared quiver and algebra fixtures, and the property checks the
acceptance gate reruns.

The heavy trivial-extension resolutions are session-scoped so the growth
suite and the property suite reuse one computation.  The dense resolution
oracle re-derives Betti traces with `projective_cover` and independent
linear algebra, for comparison with `minimal_resolution`.
"""
from __future__ import annotations

import functools
import importlib.util
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from quiverlab import (
    CanonicalSpec,
    RatMatrix,
    RepModule,
    ResolutionTrace,
    SCAlgebra,
    canonical_algebra,
    char_poly,
    companion_matrix,
    cyclotomic_poly,
    cyclotomic_profile,
    gentle_algebra,
    jacobson_radical,
    parse_gentle,
    path_algebra,
    projective_cover,
    quiver_from_data,
    resolve_simple_modules,
    simple_modules,
    trivial_extension,
)


BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """Fail a test that leaves a child process unreaped, say a resolution worker."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"the test left a child process behind (waitpid gave pid {pid})")


@functools.cache
def bench_module(name: str):
    """bench/<name>.py, loaded read-only: no bytecode is written next to it."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def path_quiver(n: int):
    """Linear A_n quiver 1 -> 2 -> ... -> n."""
    return quiver_from_data(
        {
            "vertices": list(range(1, n + 1)),
            "arrows": [{"id": f"a{i}", "from": i, "to": i + 1} for i in range(1, n)],
        }
    )


def multi_kronecker(k: int):
    """Two vertices joined by k parallel arrows."""
    return quiver_from_data(
        {
            "vertices": [1, 2],
            "arrows": [{"id": f"a{i}", "from": 1, "to": 2} for i in range(k)],
        }
    )


def wild3_quiver():
    """Three parallel arrows 1 -> 2 followed by 2 -> 3: wild, odd size."""
    return quiver_from_data(
        {
            "vertices": [1, 2, 3],
            "arrows": [{"id": f"a{i}", "from": 1, "to": 2} for i in range(3)]
            + [{"id": "b", "from": 2, "to": 3}],
        }
    )


def star_quiver(arm_lengths, center_last: bool = False):
    """Star-shaped tree: each arm is a chain of the given edge count.

    Arrows point toward the center, so the path algebra stays thin.
    """
    verts, arrows = [], []
    for i, length in enumerate(arm_lengths):
        prev = "c"
        for j in range(1, length + 1):
            v = f"{i}.{j}"
            verts.append(v)
            arrows.append({"id": f"x{i}.{j}", "from": v, "to": prev})
            prev = v
    verts = verts + ["c"] if center_last else ["c"] + verts
    return quiver_from_data({"vertices": verts, "arrows": arrows})


GENTLE_TWO_LOOP_DOC = json.dumps(
    {
        "vertices": [1, 2],
        "arrows": [
            {"id": "b1", "from": 1, "to": 1},
            {"id": "b2", "from": 2, "to": 2},
            {"id": "a", "from": 2, "to": 1},
        ],
        "relations": [["b1", "b1"], ["b2", "b2"]],
    }
)


def gentle_two_loop():
    return gentle_algebra(parse_gentle(GENTLE_TWO_LOOP_DOC))


def canonical_237():
    return canonical_algebra(CanonicalSpec((2, 3, 7), (1,)))


BUILDERS = {
    "A2": lambda: path_algebra(path_quiver(2)),
    "A3": lambda: path_algebra(path_quiver(3)),
    "kron2": lambda: path_algebra(multi_kronecker(2)),
    "kron3": lambda: path_algebra(multi_kronecker(3)),
    "gentle": gentle_two_loop,
    "canonical-237": canonical_237,
}


@pytest.fixture(scope="session")
def growth_suite():
    """Resolutions behind the complexity trichotomy, computed once.

    Keys map to (extension algebra, list of traces) at the standard
    steps=40, dim_cap=100000 settings.
    """
    out = {}
    for key, quiver in [
        ("A2", path_quiver(2)),
        ("A3", path_quiver(3)),
        ("kronecker", multi_kronecker(2)),
        ("kronecker3", multi_kronecker(3)),
    ]:
        ta = trivial_extension(path_algebra(quiver))
        out[key] = (ta, resolve_simple_modules(ta, steps=40, dim_cap=100000))
    return out


@pytest.fixture()
def canonical_235():
    return canonical_algebra(CanonicalSpec((2, 3, 5), (1,)))


def builder_outputs():
    yield "path-A4", path_algebra(path_quiver(4))
    yield "path-kronecker", path_algebra(multi_kronecker(2))
    yield "path-3kronecker", path_algebra(multi_kronecker(3))
    yield "path-star", path_algebra(star_quiver((1, 2, 2)))
    yield "gentle", gentle_two_loop()
    yield "canonical-222", canonical_algebra(CanonicalSpec((2, 2, 2), (Fraction(1),)))
    yield "canonical-235", canonical_algebra(CanonicalSpec((2, 3, 5), (Fraction(1),)))
    yield "trivext-A2", trivial_extension(path_algebra(path_quiver(2)))
    yield "trivext-kronecker", trivial_extension(path_algebra(multi_kronecker(2)))
    yield "trivext-gentle", trivial_extension(gentle_two_loop())


def count_multiplies(monkeypatch) -> list:
    """Patch `SCAlgebra.multiply` to log each call; returns the log."""
    calls = []
    multiply = SCAlgebra.multiply

    def counting(self, x, y):
        calls.append((x, y))
        return multiply(self, x, y)

    monkeypatch.setattr(SCAlgebra, "multiply", counting)
    return calls


# --- the original full-scan verify, the oracle for SCAlgebra.verify -------------

def verify_reference(a) -> None:
    """`SCAlgebra.verify` as it was before it skipped the triples whose sides
    are both zero: every later law visits all triples (i, j, k) with b_i*b_j
    or b_j*b_k nonzero, and every k when b_i*b_j is nonzero.
    """
    basis = a.basis
    dim = len(basis)
    for v, e in zip(a.vertices, a.idempotents):
        b = basis[e]
        if b.source != v or b.target != v or b.degree != 0:
            raise ValueError(f"idempotent for {v!r} has wrong endpoints or degree")
    for va, ea in zip(a.vertices, a.idempotents):
        for vb, eb in zip(a.vertices, a.idempotents):
            expected = {ea: 1} if va == vb else {}
            if a.product(ea, eb) != expected:
                raise ValueError(f"idempotents {va!r}, {vb!r} violate orthogonality")
    for k, b in enumerate(basis):
        if a.product(a.idempotent_index(b.target), k) != {k: 1}:
            raise ValueError(f"left unit law fails on {b.label!r}")
        if a.product(k, a.idempotent_index(b.source)) != {k: 1}:
            raise ValueError(f"right unit law fails on {b.label!r}")
    for (i, j), row in a.mult.items():
        bi, bj = basis[i], basis[j]
        if bi.source != bj.target:
            raise ValueError(
                f"nonzero product {bi.label!r}*{bj.label!r} of non-composable pair")
        for k in row:
            bk = basis[k]
            if bk.source != bj.source or bk.target != bi.target:
                raise ValueError(
                    f"product {bi.label!r}*{bj.label!r} leaves its Hom space")
            if bk.degree != bi.degree + bj.degree:
                raise ValueError(
                    f"product {bi.label!r}*{bj.label!r} breaks degree additivity")
    right_of: list[list[int]] = [[] for _ in range(dim)]
    for j, k in sorted(a.mult):
        right_of[j].append(k)
    for i in range(dim):
        for j in range(dim):
            ij = a.mult.get((i, j))
            for k in range(dim) if ij else right_of[j]:
                jk = a.mult.get((j, k))
                left = a.multiply(ij or {}, {k: 1})
                right = a.multiply({i: 1}, jk or {})
                if left != right:
                    raise ValueError(
                        f"associativity fails on "
                        f"({basis[i].label!r}, {basis[j].label!r}, {basis[k].label!r})")


# --- Cayley-Hamilton and the cyclotomic profile on random matrices -------------

def check_cayley_hamilton_on_random_rational_matrices():
    rng = random.Random(20260816)
    zero = RatMatrix.zeros(4, 4)
    for _ in range(200):
        m = RatMatrix(
            [
                [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
                for _ in range(4)
            ]
        )
        assert char_poly(m).eval_matrix(m) == zero


def random_unimodular(rng: random.Random, n: int) -> RatMatrix:
    """Product of integer shears and swaps; determinant is +-1."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(6):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.25:
            rows[i], rows[j] = rows[j], rows[i]
        else:
            f = Fraction(rng.randint(-2, 2))
            for c in range(n):
                rows[i][c] += f * rows[j][c]
    return RatMatrix(rows)


CYCLOTOMIC_BLOCKS = [
    cyclotomic_poly(1) * cyclotomic_poly(2),
    cyclotomic_poly(3),
    cyclotomic_poly(4) * cyclotomic_poly(1),
    cyclotomic_poly(6) * cyclotomic_poly(2),
    cyclotomic_poly(1) * cyclotomic_poly(1),
    cyclotomic_poly(2) * cyclotomic_poly(2) * cyclotomic_poly(1),
]


def check_profile_is_a_conjugation_invariant():
    rng = random.Random(0xC0C0)
    for i in range(100):
        block = CYCLOTOMIC_BLOCKS[i % len(CYCLOTOMIC_BLOCKS)]
        m = companion_matrix(block)
        base = cyclotomic_profile(m)
        assert base.is_cyclotomic
        u = random_unimodular(rng, m.rows)
        assert cyclotomic_profile(u * m * u.inverse()) == base


def power_radius_reference(p) -> float:
    """`cyclo._power_radius` with its original triple-loop squaring.

    The float operations and their order are the ones the faster squaring
    must reproduce bit for bit.
    """
    n = p.degree
    comp = [[float(x) for x in row] for row in companion_matrix(p).entries()]
    log_scale = 0.0
    for _ in range(60):
        norm = max(abs(x) for row in comp for x in row)
        if norm == 0.0:
            return 0.0
        inv = 1.0 / norm
        comp = [[x * inv for x in row] for row in comp]
        log_scale = 2.0 * (log_scale + math.log(norm))
        comp = [
            [sum(comp[i][k] * comp[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
    norm = max(abs(x) for row in comp for x in row)
    if norm == 0.0:
        return 0.0
    exponent = (log_scale + math.log(norm)) / (2.0 ** 60)
    return math.exp(exponent)


# --- dense resolution oracle ---------------------------------------------------

def radical_action_span(module: RepModule, rad) -> RatMatrix:
    """Columns spanning rad * module, computed through the action matrices.

    A vector lies in the span exactly when `solve` finds coefficients.
    """
    columns = []
    for element in rad:
        action = None
        for m, c in enumerate(element):
            if c:
                term = module.actions[m].scale(c)
                action = term if action is None else action + term
        if action is not None:
            columns.extend(action.columns())
    return RatMatrix.from_columns(columns)


def submodule_on_kernel(a, ambient: RepModule, kernel) -> RepModule:
    """Restrict the ambient action to the span of the kernel vectors.

    Coordinates are read off rows where the kernel basis is a unit vector
    (the echelon structure guarantees such rows); the product identity
    basis * coords == action * basis is then checked outright, so a wrong
    row choice cannot slip through.
    """
    basis = RatMatrix.from_columns(kernel)
    k = len(kernel)
    unit_rows = []
    for idx in range(k):
        row = next(
            r
            for r in range(basis.rows)
            if basis[r, idx] == 1
            and all(basis[r, j] == 0 for j in range(k) if j != idx)
        )
        unit_rows.append(row)
    actions = []
    for b in range(a.dim):
        image = ambient.actions[b] * basis
        coords = RatMatrix([[image[r, j] for j in range(k)] for r in unit_rows])
        if basis * coords != image:
            raise AssertionError("kernel is not closed under the algebra action")
        actions.append(coords)
    return RepModule(a, k, tuple(actions))


def dense_trace(a, module: RepModule, steps: int, rad) -> ResolutionTrace:
    """Betti trace of `module` from dense covers and kernel submodules.

    Stops like `minimal_resolution` without a dimension cap: a vanishing
    syzygy ends the trace with a 0, otherwise it holds `steps` entries.
    """
    betti = []
    current = module
    while True:
        proj, cover = projective_cover(a, current, rad)
        betti.append(proj.dim)
        kernel = cover.kernel_basis()
        if not kernel:
            return ResolutionTrace((*betti, 0), "resolution-terminated")
        if len(betti) >= steps:
            return ResolutionTrace(tuple(betti), "steps-exhausted")
        current = submodule_on_kernel(a, proj, kernel)


def walk_and_check_minimality(a, steps: int) -> int:
    """Resolve every simple for `steps` covers, asserting ker within rad*P.

    Returns the number of cover steps checked.
    """
    rad = jacobson_radical(a)
    checked = 0
    for simple in simple_modules(a):
        current = simple
        for _ in range(steps):
            if current.dim == 0:
                break
            proj, cover = projective_cover(a, current, rad)
            kernel = cover.kernel_basis()
            rad_span = radical_action_span(proj, rad)
            for vec in kernel:
                assert rad_span.solve(vec) is not None
            checked += 1
            if not kernel:
                break
            current = submodule_on_kernel(a, proj, kernel)
    return checked
