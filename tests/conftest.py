"""Shared quiver and algebra fixtures, and the property checks the
acceptance gate reruns.

The heavy trivial-extension resolutions are session-scoped so the growth
suite and the property suite reuse one computation.  The dense resolution
oracle lives here and nowhere in the package: `projective_cover` builds
each cover from action matrices, its top and its minimality check both
from one dense span of rad*M, and `dense_trace` re-derives Betti traces
from those covers with RREF kernels, for comparison with the sparse
engine behind `minimal_resolution`; its `from_columns` and `solve` are
the matrix helpers that only tests call.  The trace-form radical lives
here too, with its nilpotent-ideal check: it works on any basis, and is the oracle
for the one-pass certificate behind `jacobson_radical`.  So do the
symmetric pairing of a trivial extension and its associativity scan, the
oracle for `trivial_extension`'s dual action.
`rational_tits_type` is the Fraction classification that `classify_quiver`
replaced with an integer elimination: Schur complements over Fraction, and
the radical from `RatMatrix.kernel_basis`.  The cyclotomic layer's oracles
live here too: `dense_witness`, the matrix powers M^L and (M^(2n) - I)^l
that `cyclotomic_profile` replaced with a polynomial certificate;
`recursive_cyclotomic`, Phi_d by exact division of x^d - 1; and
`trial_division_factorization`, the factorization by dividing by every
recursive Phi_d that fits.  `unlabelled_trees` lists every tree up to a
size, for the classification and the profile alike, and the seeded
random quivers and `disjoint_union` feed the oracle tests of the Coxeter
route and of entropy's kind rule, and the seeded random gentle
presentations those of the string route.
"""
from __future__ import annotations

import functools
import gc
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
    GentlePresentation,
    RatMatrix,
    RepModule,
    ResolutionTrace,
    SCAlgebra,
    canonical_algebra,
    char_poly,
    combine_estimates,
    complexity_estimate,
    cyclotomic_poly,
    cyclotomic_profile,
    gentle_algebra,
    jacobson_radical,
    parse_gentle,
    parse_quiver,
    path_algebra,
    quiver_from_data,
    resolve_simple_modules,
    simple_modules,
    tits_matrix,
    trivial_extension,
)
from quiverlab.echelon import TrackedEchelon, vector
from quiverlab.intpoly import IntPolynomial, euler_phi
from quiverlab.quiver import QuiverType


BENCH = Path(__file__).resolve().parent.parent / "bench"


@functools.cache
def frozen_at_rest() -> int:
    """The freeze count with nothing frozen: 0, except on CPython 3.12, where
    a collection moves the tracked immortal objects it meets (375 on 3.12.1)
    to the permanent generation that gc.get_freeze_count() counts."""
    gc.unfreeze()
    gc.collect()
    return gc.get_freeze_count()


@pytest.fixture(autouse=True)
def no_state_left_behind():
    """Fail a test that leaves the cyclic collector off or frozen, or a
    child process unreaped; the package resolves in one process and leaves
    the collector alone, so nothing of it should fork, freeze or switch it
    off.  gc.freeze() moves every tracked object, so a freeze reads above
    frozen_at_rest()."""
    at_rest = frozen_at_rest()
    yield
    enabled, frozen = gc.isenabled(), max(gc.get_freeze_count() - at_rest, 0)
    gc.enable()
    gc.unfreeze()
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pid = None
    if pid is not None:
        pytest.fail(f"the test left a child process behind (waitpid gave pid {pid})")
    if not enabled or frozen:
        pytest.fail(f"the test left the collector enabled={enabled}, frozen objects={frozen}")


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


def bipartite_star(arm_lengths):
    """Star-shaped tree in its bipartite orientation: the vertices at even
    distance from the center, the center among them, are sources."""
    verts, arrows = ["c"], []
    for i, length in enumerate(arm_lengths):
        prev = "c"
        for j in range(1, length + 1):
            v = f"{i}.{j}"
            verts.append(v)
            source, target = (prev, v) if j % 2 else (v, prev)
            arrows.append({"id": f"x{i}.{j}", "from": source, "to": target})
            prev = v
    return quiver_from_data({"vertices": verts, "arrows": arrows})


def complete_bipartite(m: int, n: int):
    """K_{m,n}: one arrow from each of m sources to each of n sinks."""
    sources, sinks = [f"s{i}" for i in range(m)], [f"t{j}" for j in range(n)]
    return quiver_from_data({
        "vertices": sources + sinks,
        "arrows": [{"id": f"{s}{t}", "from": s, "to": t} for s in sources for t in sinks],
    })


def unlabelled_trees(max_vertices: int) -> list[list[list[tuple[int, int]]]]:
    """Level n - 1 holds every tree on n vertices up to isomorphism, as its
    edges (u, v) with u < v: each level grows the last one's trees by a
    leaf at every vertex, and keeps one tree of each canonical code, the
    least nested-bracket code of the tree rooted at one of its centres."""

    def code(n: int, edges) -> str:
        adj: list[list[int]] = [[] for _ in range(n)]
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
        degree = [len(a) for a in adj]
        layer, left = [v for v in range(n) if degree[v] <= 1], n
        while left > 2:  # peel the leaves down to the one or two centres
            left -= len(layer)
            peeled = []
            for v in layer:
                for w in adj[v]:
                    degree[w] -= 1
                    if degree[w] == 1:
                        peeled.append(w)
            layer = peeled

        def rooted(v: int, parent: int) -> str:
            return "(" + "".join(sorted(rooted(w, v) for w in adj[v] if w != parent)) + ")"

        return min(rooted(c, -1) for c in layer)

    levels = [[[]]]
    for n in range(2, max_vertices + 1):
        grown = {}
        for edges in levels[-1]:
            for u in range(n - 1):
                bigger = [*edges, (u, n - 1)]
                grown.setdefault(code(n, bigger), bigger)
        levels.append(list(grown.values()))
    return levels


def quiver_on(n: int, arrows):
    return quiver_from_data({
        "vertices": list(range(n)),
        "arrows": [{"id": f"x{k}", "from": s, "to": t} for k, (s, t) in enumerate(arrows)],
    })


def disjoint_union(*quivers):
    """The quivers side by side, the vertices and arrows of the k-th
    prefixed with k."""
    return quiver_from_data({
        "vertices": [f"{k}.{v}" for k, q in enumerate(quivers) for v in q.vertices],
        "arrows": [{"id": f"{k}.{a.id}", "from": f"{k}.{a.source}", "to": f"{k}.{a.target}"}
                   for k, q in enumerate(quivers) for a in q.arrows],
    })


def random_acyclic_quiver(rng: random.Random, max_vertices: int):
    """A connected acyclic quiver: a random tree on 2..max_vertices vertices
    plus up to 3 extra arrows, parallel ones allowed, each arrow pointing
    up a random order of the vertices."""
    n = rng.randint(2, max_vertices)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 3))]
    rank = rng.sample(range(n), n)
    return quiver_from_data({
        "vertices": list(range(n)),
        "arrows": [{"id": f"x{k}", "from": min(e, key=rank.__getitem__),
                    "to": max(e, key=rank.__getitem__)} for k, e in enumerate(edges)],
    })


def random_gentle_presentation(rng: random.Random, max_vertices: int, max_arrows: int):
    """A gentle presentation on 1..max_vertices vertices: up to max_arrows
    random arrows, loops included, each kept while its ends have fewer than
    two arrows out and in, and at each vertex the relations the gentle
    axioms leave a choice of, chosen at random.  Vertices may be isolated,
    and the presentation may be infinite-dimensional, which gentle_algebra
    refuses."""
    n = rng.randint(1, max_vertices)
    outs, ins, arrows = [0] * n, [0] * n, []
    for k in range(rng.randint(0, max_arrows)):
        s, t = rng.randrange(n), rng.randrange(n)
        if outs[s] < 2 and ins[t] < 2:
            outs[s] += 1
            ins[t] += 1
            arrows.append((f"x{k}", s, t))
    relations = []
    for v in range(n):
        into = [a for a, _, t in arrows if t == v]
        out = [a for a, s, _ in arrows if s == v]
        rng.shuffle(out)
        if len(into) == 2 and len(out) == 2:
            relations += [(into[0], out[0]), (into[1], out[1])]
        elif len(into) + len(out) == 3:
            relations.append((rng.choice(into), rng.choice(out)))
        elif len(into) == len(out) == 1 and rng.random() < 0.6:
            relations.append((into[0], out[0]))
    return GentlePresentation(quiver_from_data({
        "vertices": list(range(n)),
        "arrows": [{"id": a, "from": s, "to": t} for a, s, t in arrows],
    }), tuple(relations))


def random_tree_or_cycle_quiver(rng: random.Random, max_vertices: int):
    """A connected acyclic quiver on 2..max_vertices vertices, few of them
    more often: a random tree or a cycle, half the time each, plus up to 4
    extra arrows, fewer more often, parallel ones allowed, each arrow
    pointing up a random order of the vertices.  A cycle with no extra
    arrow is affine, A~(n-1)."""
    n = rng.randint(2, rng.randint(2, max_vertices))
    if rng.random() < 0.5:
        edges = [(rng.randrange(v), v) for v in range(1, n)]
    else:
        edges = [(v - 1, v) for v in range(1, n)] + [(n - 1, 0)]
    edges += [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, rng.randint(0, 4)))]
    rank = rng.sample(range(n), n)
    return quiver_from_data({
        "vertices": list(range(n)),
        "arrows": [{"id": f"x{k}", "from": min(e, key=rank.__getitem__),
                    "to": max(e, key=rank.__getitem__)} for k, e in enumerate(edges)],
    })


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


def rational_definiteness(sym: RatMatrix) -> str:
    """Positive "definite", "semidefinite" or "indefinite": the oracle of
    classify_quiver's integer elimination, by Schur complements over
    Fraction."""
    work = [list(row) for row in sym.entries()]
    active = list(range(sym.rows))
    while active:
        if any(work[i][i] < 0 for i in active):
            return "indefinite"
        pivot = next((i for i in active if work[i][i] > 0), None)
        if pivot is None:
            # zero diagonal throughout: PSD iff the whole block vanishes
            if all(work[i][j] == 0 for i in active for j in active):
                return "semidefinite"
            return "indefinite"
        d = work[pivot][pivot]
        active.remove(pivot)
        for i in active:
            if work[i][pivot]:
                f = Fraction(work[i][pivot], d)
                for j in active:
                    if work[pivot][j]:
                        work[i][j] -= f * work[pivot][j]
    return "definite"


def rational_tits_type(q) -> QuiverType:
    """The type of connected Q from its RatMatrix Tits matrix: definiteness
    by rational_definiteness, the radical from RatMatrix.kernel_basis,
    scaled to the primitive vector with positive sum."""
    m = tits_matrix(q)
    kind = rational_definiteness(m)
    if kind == "definite":
        return QuiverType("finite")
    if kind == "indefinite":
        return QuiverType("indefinite")
    (vec,) = m.kernel_basis()
    fracs = [as_fraction(x) for x in vec]
    scale = math.lcm(*(x.denominator for x in fracs))
    ints = [int(x * scale) for x in fracs]
    g = math.gcd(*ints) * (1 if sum(ints) > 0 else -1)
    return QuiverType("affine", tuple(x // g for x in ints))


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


def bench_ladder():
    """(name, base algebra) of each job of the benchmark's trivext workloads,
    read as the CLI reads its input, and canonical (2,3,7)."""
    workloads = bench_module("workloads")
    for name in ("trivext-wide", "trivext-deep"):
        files, jobs = workloads.build(name, 1401)
        for job in jobs:
            document = files[job.argv[1]]
            if "relations" in json.loads(document):
                yield job.id, gentle_algebra(parse_gentle(document))
            else:
                yield job.id, path_algebra(parse_quiver(document))
    yield "canonical-237", canonical_237()


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

def eval_matrix(p, m: RatMatrix) -> RatMatrix:
    """p(m) for an IntPolynomial p and a square matrix m, by Horner's rule."""
    if not m.is_square:
        raise ValueError("polynomial evaluation needs a square matrix")
    n = m.rows
    acc = RatMatrix.zeros(n, n)
    for c in reversed(p.coeffs):
        acc = acc * m
        if c:
            acc = acc + RatMatrix.identity(n).scale(c)
    return acc


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
        assert eval_matrix(char_poly(m), m) == zero


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


# --- the dense and recursive oracles of the cyclotomic layer --------------------

def dense_witness(m: RatMatrix, profile) -> tuple[bool, bool, bool]:
    """The matrix-power check cyclotomic_profile made before it certified
    its witness by polynomials: from one power M^L, whether
    (M^(2n) - I)^l = 0, whether (M^(2n) - I)^(l - 1) != 0, so that l is
    least for this n, and whether M^L = I."""
    n_wit, l_wit = profile.witness
    big_l = math.lcm(*(d for d, _ in profile.orders))
    assert 2 * n_wit == (big_l if big_l % 2 == 0 else 2 * big_l)
    power_l = m ** big_l
    power = power_l if big_l % 2 == 0 else power_l * power_l
    shifted = power - RatMatrix.identity(m.rows)
    least = l_wit == 1 or not (shifted ** (l_wit - 1)).is_zero()
    return (shifted ** l_wit).is_zero(), least, power_l.is_identity()


def assert_profile_is_the_dense_oracle(m: RatMatrix, profile) -> None:
    """A cyclotomic profile's witness holds and is least in l, and M^L = I
    exactly when the profile calls M periodic, with L its period."""
    assert profile.is_cyclotomic
    holds, least, identity = dense_witness(m, profile)
    assert holds and least
    assert identity == profile.periodic
    assert profile.period == (math.lcm(*(d for d, _ in profile.orders)) if identity else None)


@functools.cache
def recursive_cyclotomic(d: int):
    """Phi_d by its recursive definition: x^d - 1 divided exactly by Phi_e
    for every proper divisor e of d."""
    p = IntPolynomial([-1] + [0] * (d - 1) + [1])
    for e in range(1, d):
        if d % e == 0:
            p = p // recursive_cyclotomic(e)
    return p


def trial_division_factorization(p):
    """The cyclotomic factorization by trial division, kept as the oracle:
    divide by the recursive Phi_d for every d whose totient can still fit,
    up to d = 2 deg^2, as phi(d) >= sqrt(d / 2)."""
    if p.is_zero or not p.is_monic:
        raise ValueError("cyclotomic factorization expects a monic polynomial")
    if not p.is_integral:
        return None
    if p.evaluate(1) < 0 or (-1) ** p.degree * p.evaluate(-1) < 0:
        return None
    found = []
    d = 0
    while p.degree > 0:
        d += 1
        degree = p.degree
        if d > 2 * degree * degree:
            return None
        if euler_phi(d) > degree:
            continue
        phi_d = recursive_cyclotomic(d)
        mult = 0
        while True:
            quotient, remainder = divmod(p, phi_d)
            if not remainder.is_zero:
                break
            p = quotient
            mult += 1
        if mult:
            found.append((d, mult))
    return tuple(found)


# --- the symmetric form of a trivial extension, an oracle for its table ---------

def dual_pairing(ta, x, y):
    """Symmetric form ((a,f),(b,g)) -> f(b) + g(a) on a trivial extension.

    Assumes the layout produced by trivial_extension: basis element d+k is
    dual to basis element k, where d is the dimension of the original algebra.
    """
    if ta.dim % 2:
        raise ValueError("not a trivial extension basis layout")
    d = ta.dim // 2
    total = 0
    for i, c in x.items():
        partner = i - d if i >= d else i + d
        other = y.get(partner)
        if other:
            total += c * other
    return total


def is_symmetric_form_associative(ta) -> bool:
    """Check <xy, z> = <x, yz> on all basis triples."""
    dim = ta.dim
    for i in range(dim):
        for j in range(dim):
            ij = ta.mult.get((i, j), {})
            for k in range(dim):
                jk = ta.mult.get((j, k), {})
                left = dual_pairing(ta, ij, {k: 1})
                right = dual_pairing(ta, {i: 1}, jk)
                if left != right:
                    return False
    return True


# --- the trace-form radical, the oracle for jacobson_radical's certificate -----

def radical_vectors(a) -> list[tuple]:
    """Dense unit vectors of the basis elements that jacobson_radical
    certifies to span the radical, as the dense oracles read a radical."""
    return [tuple(int(k == m) for k in range(a.dim)) for m in jacobson_radical(a)]


def trace_form_radical(a) -> list:
    """Basis of the radical via the characteristic-zero trace-form criterion.

    Works on any basis.  x is radical exactly when the trace of left
    multiplication by b*x vanishes for every basis element b.  Gram columns
    that depend on earlier ones give the RREF kernel basis, one vector per
    free column.  The candidate is checked to be a nilpotent two-sided
    ideal before it is returned.
    """
    d = a.dim
    mult_trace = [0] * d
    for (m, k), row in a.mult.items():
        mult_trace[m] += row.get(k, 0)
    columns: list[dict] = [{} for _ in range(d)]
    for (i, j), prod in a.mult.items():
        value = sum(c * mult_trace[m] for m, c in prod.items())
        if value:
            columns[j][i] = value
    echelon = TrackedEchelon()
    relations = [echelon.insert(column, {j: 1}) for j, column in enumerate(columns)]
    basis = [tuple(r.get(k, 0) for k in range(d)) for r in relations if r is not None]
    verify_nilpotent_ideal(a, basis)
    return basis


def verify_nilpotent_ideal(a, basis) -> None:
    """Refuse a candidate basis that is not a nilpotent two-sided ideal.

    Products are formed only where the table can make them nonzero: b_i*x
    needs some l in x with b_i*b_l in the table, and x*y needs some i in x
    and l in y with b_i*b_l there.
    """
    d = a.dim
    sparse = [{k: v for k, v in enumerate(vec) if v} for vec in basis]
    left_of: list[list[int]] = [[] for _ in range(d)]
    right_of: list[list[int]] = [[] for _ in range(d)]
    for i, l in a.mult:
        left_of[l].append(i)
        right_of[i].append(l)
    holders: list[list[int]] = [[] for _ in range(d)]
    for n, x in enumerate(sparse):
        for k in x:
            holders[k].append(n)
    span = TrackedEchelon()
    for x in sparse:
        span.add(dict(x))
    for x in sparse:
        lefts = sorted({i for l in x for i in left_of[l]})
        rights = sorted({i for l in x for i in right_of[l]})
        if any(span.add(a.multiply({i: 1}, x)) for i in lefts) or any(
            span.add(a.multiply(x, {i: 1})) for i in rights
        ):
            raise RuntimeError("radical candidate is not a two-sided ideal")
    power = sparse
    for _ in range(d + 1):
        if not power:
            return
        nxt = TrackedEchelon()
        for x in power:
            partners = {n for i in x for l in right_of[i] for n in holders[l]}
            for n in sorted(partners):
                nxt.add(a.multiply(x, sparse[n]))
        power = echelon_rows(nxt)
    raise RuntimeError("radical candidate is not nilpotent")


def inverted_simples(a, rad) -> list[RepModule]:
    """The simple at each vertex on any basis of a basic algebra: each basis
    element acts by its idempotent coordinate once the basis is changed to
    the idempotents plus the radical basis rad."""
    columns = [[int(k == e) for k in range(a.dim)] for e in a.idempotents]
    change = from_columns(columns + list(rad)).inverse()
    return [
        RepModule(a, 1, tuple(RatMatrix([[c]]) for c in change.row(pos)))
        for pos in range(len(a.vertices))
    ]


# --- dense resolution oracle ---------------------------------------------------

def from_columns(cols) -> RatMatrix:
    """The matrix whose columns are cols, exact vectors of one length."""
    cols = [vector(c) for c in cols]
    if not cols:
        return RatMatrix([])
    return RatMatrix([[col[i] for col in cols] for i in range(len(cols[0]))])


def index_of(a, label: str) -> int:
    """The position of the basis element labelled `label` in a's basis."""
    return [b.label for b in a.basis].index(label)


def companion_matrix(p) -> RatMatrix:
    """Companion matrix of a monic polynomial (characteristic polynomial p)."""
    if p.is_zero or not p.is_monic or p.degree < 1:
        raise ValueError("companion matrix needs a monic polynomial of degree >= 1")
    n = p.degree
    rows = [[0] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = 1
    for i in range(n):
        rows[i][n - 1] = -p.coeffs[i]
    return RatMatrix(rows)


def as_fraction(value) -> Fraction:
    """value as a Fraction."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def echelon_rows(echelon: TrackedEchelon) -> list[dict]:
    """The rows an echelon stores, a one-term entry as its one-term dict,
    in the order they were made; they span its inputs."""
    return [{k: vec} if type(vec) is not dict else vec
            for k, (vec, _) in echelon.pivots.items()]


def serre_entropy(verdict, t) -> Fraction:
    """Entropy value (m/n) * t predicted by a verdict with exponents."""
    if not verdict.has_exponents:
        raise ValueError("verdict carries no exponents (m, n)")
    return Fraction(verdict.m, verdict.n) * as_fraction(t)


def matrix_columns(m: RatMatrix) -> list[tuple]:
    """The columns of m, as exact vectors."""
    return [m.column(j) for j in range(m.cols)]


def dim_vector(module: RepModule) -> tuple[int, ...]:
    """Dimension of each vertex component of a module, in vertex order."""
    if module.dim == 0:
        return tuple(0 for _ in module.algebra.vertices)
    return tuple(int(module.actions[e].trace()) for e in module.algebra.idempotents)


def solve(m: RatMatrix, rhs) -> tuple | None:
    """One solution of m * x = rhs, or None if inconsistent."""
    rhs = vector(rhs)
    if len(rhs) != m.rows:
        raise ValueError("right-hand side length does not match row count")
    augmented = RatMatrix([list(m.row(i)) + [rhs[i]] for i in range(m.rows)])
    reduced, pivots = augmented.rref()
    if m.cols in pivots:
        return None
    x = [0] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r, m.cols]
    return tuple(x)


def pivot_columns(columns) -> list[int]:
    """Indices of the columns outside the span of the columns before them."""
    return list(from_columns(columns).rref()[1]) if columns else []


def radical_action_span(module: RepModule, rad) -> list:
    """Nonzero columns spanning rad * module, computed through the action
    matrices."""
    columns = []
    for element in rad:
        terms = [module.actions[m].scale(c) for m, c in enumerate(element) if c]
        if terms:
            columns.extend(col for col in matrix_columns(sum(terms[1:], terms[0])) if any(col))
    return columns


def source_coords(a, v) -> list[int]:
    """Basis elements starting at v: a basis of the projective at v."""
    return [m for m, b in enumerate(a.basis) if b.source == v]


def top_lift(a, module: RepModule, rad) -> list[tuple]:
    """Vertex-tagged columns of the idempotents' actions lifting a basis of
    module / rad*module: those outside the span of rad*module and of the
    columns before them."""
    span = radical_action_span(module, rad)
    candidates = [
        (v, module.actions[e].column(k))
        for v, e in zip(a.vertices, a.idempotents)
        for k in range(module.dim)
    ]
    pivots = pivot_columns(span + [col for _, col in candidates])
    if len(pivots) != module.dim:
        raise RuntimeError("projective cover lifting failed")
    return [candidates[j - len(span)] for j in pivots if j >= len(span)]


def projective_sum(a, verts) -> RepModule:
    """Direct sum of the projectives generated at the given vertices."""
    coords = [(copy, m) for copy, v in enumerate(verts) for m in source_coords(a, v)]
    place = {c: i for i, c in enumerate(coords)}
    actions = []
    for b in range(a.dim):
        rows = [[0] * len(place) for _ in place]
        for (copy, m), col in place.items():
            for k, c in a.mult.get((b, m), {}).items():
                rows[place[copy, k]][col] = c
        actions.append(RatMatrix(rows))
    return RepModule(a, len(place), tuple(actions))


def cover_data(a, module: RepModule, rad):
    """Cover matrix (one column per basis element of P) and P's summand vertices."""
    gens = top_lift(a, module, rad)
    cols = [module.actions[m].apply(gen) for v, gen in gens for m in source_coords(a, v)]
    return from_columns(cols), [v for v, _ in gens]


def zero_module(a) -> RepModule:
    return RepModule(a, 0, ())


def projective_cover(a, module: RepModule, rad=None):
    """Projective cover (P, surjection matrix) of a module, from dense matrices.

    Columns of the surjection are indexed by the basis of P, rows by the
    basis of the module.  The kernel is checked to lie inside rad*P, which
    is what makes the cover minimal.
    """
    if module.algebra is not a:
        raise ValueError("module is defined over a different algebra")
    if module.dim == 0:
        return zero_module(a), RatMatrix([])
    if rad is None:
        rad = radical_vectors(a)
    matrix, verts = cover_data(a, module, rad)
    proj = projective_sum(a, verts)
    kernel = matrix.kernel_basis()
    if len(kernel) != proj.dim - module.dim:
        raise RuntimeError("projective cover is not surjective")
    span = radical_action_span(proj, rad)
    if any(j >= len(span) for j in pivot_columns(span + kernel)):
        raise RuntimeError("cover kernel escapes the radical")
    return proj, matrix


def submodule_on_kernel(a, ambient: RepModule, kernel) -> RepModule:
    """Restrict the ambient action to the span of the kernel vectors.

    Coordinates are read off rows where the kernel basis is a unit vector
    (the echelon structure guarantees such rows); the product identity
    basis * coords == action * basis is then checked outright, so a wrong
    row choice cannot slip through.
    """
    basis = from_columns(kernel)
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


def global_complexity_estimate(a, steps: int = 40, dim_cap: int = 100000):
    """Worst complexity over the simple modules of a: the estimates of
    resolve_simple_modules' traces, combined by combine_estimates."""
    traces = resolve_simple_modules(a, steps, dim_cap)
    return combine_estimates(complexity_estimate(trace) for trace in traces)


def sparse_vector(vec) -> dict:
    """An engine kernel vector or generator as a sparse dict: the engine
    passes a unit vector, one coordinate with coefficient 1, as that
    coordinate alone, an int, and any other as a flat tuple (lead, c_lead,
    x1, c1, ...)."""
    if type(vec) is int:
        return {vec: 1}
    return dict(zip(vec[::2], vec[1::2]))


def is_engine_vector(vec) -> bool:
    """Whether vec is in the engine's form: an int unit, or a flat tuple of
    two or more terms with distinct coordinates and nonzero coefficients
    that starts with its largest coordinate."""
    if type(vec) is int:
        return True
    if type(vec) is not tuple or len(vec) % 2 or len(vec) < 4:
        return False
    coords, coeffs = vec[::2], vec[1::2]
    return (all(type(x) is int for x in coords) and len(set(coords)) == len(coords)
            and coords[0] == max(coords) and all(coeffs))


def engine_kernels(engine, vertex: int, steps: int, tops: list | None = None):
    """Yield the kernels of the engine's first `steps` syzygy steps on the
    simple at vertex position `vertex`, made as minimal_resolution makes
    them, each vector as a sparse dict: the first is rad P_v, the engine's
    rad_coords as units, and each later one comes from kernel_of_cover.
    Each kernel is checked to hold units as ints and other vectors as
    lead-first tuples of two or more nonzero terms, yielded, then read by
    top_generators, which refuses it unless it is a minimal basis in lead
    form of the syzygy's dimension; the generators it returns are appended
    to `tops`, when given, as the engine returns them."""
    kernel = engine.rad_coords[vertex]
    dim = engine.proj_dim[vertex]
    covered = 1
    for _ in range(steps):
        syzygy = dim - covered
        if syzygy == 0:
            return
        if kernel is None:
            kernel = engine.kernel_of_cover(gens)
        assert all(is_engine_vector(vec) for vec in kernel)
        yield [sparse_vector(vec) for vec in kernel]
        gens, kernel = engine.top_generators(kernel, syzygy), None
        if tops is not None:
            tops.append(gens)
        dim = sum(engine.proj_dim[engine.vertex_of[max(sparse_vector(g)) % engine.dim]]
                  for g in gens)
        covered = syzygy


def walk_and_check_minimality(a, steps: int) -> int:
    """Resolve every simple for `steps` dense covers, each of which refuses
    a kernel outside rad*P.

    Returns the number of cover steps checked.
    """
    rad = radical_vectors(a)
    checked = 0
    for simple in simple_modules(a):
        current = simple
        for _ in range(steps):
            if current.dim == 0:
                break
            proj, cover = projective_cover(a, current, rad)
            kernel = cover.kernel_basis()
            checked += 1
            if not kernel:
                break
            current = submodule_on_kernel(a, proj, kernel)
    return checked
