"""Workload definitions: generated inputs, jobs and theory references.

Each workload is a list of jobs. A job is one `quiverlab <command> ... --json`
invocation on files this module writes; its reference comes from theory
(quiver type, closed-form spectral radii, the delta rule), never from the
program's own output. Three jobs are known defects at the time the
benchmark was written; they still count as failed, and the `Defect` record
names the ROADMAP item that owns each one and the exact way it fails.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

WORKLOADS = ("trivext-wide", "trivext-deep", "spectral")


# ---------------------------------------------------------------- inputs


def path_quiver(n: int) -> dict:
    """Linear A_n quiver 1 -> 2 -> ... -> n."""
    return {
        "vertices": list(range(1, n + 1)),
        "arrows": [{"id": f"a{i}", "from": i, "to": i + 1} for i in range(1, n)],
    }


def kronecker(k: int) -> dict:
    """Two vertices joined by k parallel arrows 1 -> 2."""
    return {
        "vertices": [1, 2],
        "arrows": [{"id": f"a{i}", "from": 1, "to": 2} for i in range(k)],
    }


def star_quiver(arms: tuple[int, ...]) -> dict:
    """Star-shaped tree with arms of the given edge counts, arrows toward the centre."""
    verts, arrows = ["c"], []
    for i, length in enumerate(arms):
        prev = "c"
        for j in range(1, length + 1):
            v = f"{i}.{j}"
            verts.append(v)
            arrows.append({"id": f"x{i}.{j}", "from": v, "to": prev})
            prev = v
    return {"vertices": verts, "arrows": arrows}


GENTLE_TWO_LOOP = {
    "vertices": [1, 2],
    "arrows": [
        {"id": "b1", "from": 1, "to": 1},
        {"id": "b2", "from": 2, "to": 2},
        {"id": "a", "from": 2, "to": 1},
    ],
    "relations": [["b1", "b1"], ["b2", "b2"]],
}

# three arrows 1 -> 2 plus one arrow 2 -> 3; chi = (x+1)(x^2 - 8x + 1)
WILD3 = {
    "vertices": [1, 2, 3],
    "arrows": [
        {"id": "a0", "from": 1, "to": 2},
        {"id": "a1", "from": 1, "to": 2},
        {"id": "a2", "from": 1, "to": 2},
        {"id": "b", "from": 2, "to": 3},
    ],
}


def coxeter_of_tree(doc: dict) -> list[list[int]]:
    """Coxeter matrix -C^T C^{-1} of an acyclic quiver, in exact integers.

    C = (I - N)^{-1} with N[target][source] counting arrows, so C^{-1} is
    I - N; C itself counts paths, found by walking forward from each vertex.
    """
    verts = [str(v) for v in doc["vertices"]]
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    succ: list[list[int]] = [[] for _ in verts]
    inv = [[int(i == j) for j in range(n)] for i in range(n)]
    for a in doc["arrows"]:
        s, t = pos[str(a["from"])], pos[str(a["to"])]
        succ[s].append(t)
        inv[t][s] -= 1
    cartan = [[0] * n for _ in range(n)]
    for i in range(n):
        stack = [i]
        while stack:
            j = stack.pop()
            cartan[j][i] += 1
            stack.extend(succ[j])
    return [
        [-sum(cartan[k][i] * inv[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def conjugate(matrix: list[list[int]], rng: random.Random) -> list[list[int]]:
    """U M U^{-1} for a unimodular U made of 2n elementary +-1 row moves."""
    n = len(matrix)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        # U <- (I + s e_ij) U and U^{-1} <- U^{-1} (I - s e_ij)
        u[i] = [a + s * b for a, b in zip(u[i], u[j])]
        for row in u_inv:
            row[j] -= s * row[i]
    prod = [[sum(u[i][k] * u_inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    if prod != [[int(i == j) for j in range(n)] for i in range(n)]:
        raise RuntimeError("conjugator inverse is wrong")
    um = [[sum(u[i][k] * matrix[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(um[i][k] * u_inv[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


# ------------------------------------------------------------ references


@dataclass(frozen=True)
class Outcome:
    """What one CLI child left behind."""

    exit_code: int
    stdout: bytes
    stderr: str

    def document(self) -> dict:
        """The parsed --json report; raises ValueError when there is none."""
        if self.exit_code != 0:
            last = self.stderr.strip().splitlines()[-1:] or [""]
            raise ValueError(f"exit {self.exit_code}: {last[0]}")
        try:
            doc = json.loads(self.stdout)
        except json.JSONDecodeError as exc:
            raise ValueError(f"unparsable JSON: {exc}") from exc
        if not isinstance(doc, dict) or not isinstance(doc.get("result"), dict):
            raise ValueError("JSON report has no result object")
        return doc


Check = Callable[[dict], "str | None"]


def _estimate_text(est: dict) -> str:
    degree = est.get("degree")
    return est.get("kind", "?") + ("" if degree is None else f" degree {degree}")


def expect_complexity(kind: str, degree: int | None) -> Check:
    """Every simple and the global estimate have the given verdict."""
    want = kind if degree is None else f"{kind} degree {degree}"

    def check(result: dict) -> str | None:
        got = [(s["vertex"], _estimate_text(s["estimate"])) for s in result["simples"]]
        bad = [f"{v}: {text}" for v, text in got if text != want]
        overall = _estimate_text(result["global_estimate"])
        if overall != want:
            bad.append(f"global: {overall}")
        return f"want {want}; got " + ", ".join(bad) if bad else None

    return check


def expect_entropy(log_rho: float | None) -> Check:
    """h0 = log(rho) within the job's tolerance; None means Dynkin, h0 exactly 0."""

    def check(result: dict) -> str | None:
        h0 = result["h0"]
        if log_rho is None:
            if h0 != {"exact": True, "value": "0"}:
                return f"want exact h0 = 0, got {h0}"
            return None
        if h0.get("exact") or abs(h0["value"] - log_rho) > h0["tol"]:
            return f"want h0 = {log_rho:.6f} within tol, got {h0}"
        return None

    return check


def expect_exponential_entropy(result: dict) -> str | None:
    """No closed form: h0 > 0 and exponential growth."""
    h0, growth = result["h0"], result["growth"]
    if h0.get("exact") or not h0["value"] > 0:
        return f"want h0 > 0, got {h0}"
    if growth is None or growth.get("kind") != "exponential":
        return f"want exponential growth, got {growth}"
    return None


def expect_classify(kind: str, period: int) -> Check:
    def check(result: dict) -> str | None:
        profile = result.get("cyclotomic_profile") or {}
        got_period = (profile.get("period") or {}).get("value")
        if result["kind"] != kind or got_period != period:
            return f"want {kind} with Coxeter period {period}, got {result['kind']} / {got_period}"
        return None

    return check


def expect_witness(n: int, l: int) -> Check:
    def check(result: dict) -> str | None:
        report = result["report"]
        got = (report.get("passed"), report.get("n"), report.get("l"))
        if got != (True, n, l):
            return f"want passed witness n={n}, l={l}, got {got}"
        return None

    return check


def expect_canonical(weights: tuple[int, ...]) -> Check:
    """Delta rule: p = lcm, delta = (t-2)p - sum p/p_i; its sign fixes the verdict."""
    p = math.lcm(*weights)
    delta = (len(weights) - 2) * p - sum(p // w for w in weights)
    if delta == 0:
        want = ("fractionally-calabi-yau", 1, p, p)
    else:
        sign = 1 if delta < 0 else -1
        want = ("serre-cyclotomic", 2, sign * p, sign * p)

    def check(result: dict) -> str | None:
        v = result["verdict"]
        got = (v["kind"], v["l"], v["m"], v["n"])
        if result["delta"]["value"] != delta or result["p"]["value"] != p or got != want:
            return f"want delta={delta}, p={p}, verdict {want}; got {result['delta']}, {got}"
        # the Coxeter polynomial of a canonical algebra is a product of cyclotomics
        if result["coxeter_check"]["cyclotomic"] is not True:
            return "want a cyclotomic Coxeter matrix"
        return None

    return check


def lehmer_log_radius() -> float:
    """log of Lehmer's number, the largest real root of Lehmer's polynomial."""
    coeffs = (1, 1, 0, -1, -1, -1, -1, -1, 0, 1, 1)  # x^10 + x^9 - x^7 - ... + 1

    def f(x: float) -> float:
        return sum(c * x ** (10 - i) for i, c in enumerate(coeffs))

    lo, hi = 1.1, 1.3  # f(lo) < 0 < f(hi)
    for _ in range(80):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) < 0 else (lo, mid)
    return math.log(lo)


# ----------------------------------------------------------------- jobs


@dataclass(frozen=True)
class Defect:
    """A failure present when the benchmark was written, and who owns it."""

    owner: str
    signature: str
    matches: Callable[[Outcome], bool]


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple[str, ...]  # arguments after `quiverlab`, without --json
    check: Check
    defect: Defect | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    def judge(self, outcome: Outcome) -> str | None:
        """Failure reason against the theory reference, or None when it holds."""
        try:
            doc = outcome.document()
            return self.check(doc["result"])
        except ValueError as exc:
            return str(exc)
        except (KeyError, TypeError, AttributeError) as exc:
            return f"report lacks an expected field: {exc!r}"

    def known_failure(self, outcome: Outcome) -> bool:
        """True when the outcome fails exactly as the recorded defect does."""
        if self.defect is None:
            return False
        try:
            return self.defect.matches(outcome)
        except (ValueError, KeyError, TypeError, AttributeError):
            return False


def _kron4_defect(outcome: Outcome) -> bool:
    return outcome.exit_code == 1 and "trace too short" in outcome.stderr


def _e10_defect(outcome: Outcome) -> bool:
    result = outcome.document()["result"]
    texts = {_estimate_text(s["estimate"]) for s in result["simples"]}
    return result["global_estimate"]["kind"] == "infinite" and texts == {
        "infinite", "finite degree 3"}


def _wild3_defect(outcome: Outcome) -> bool:
    h0 = outcome.document()["result"]["h0"]
    return not h0.get("exact") and abs(h0["value"] - math.log(8)) <= h0["tol"]


KRON4_DEFECT = Defect(
    "ROADMAP item 2", "exits 1: trace too short (dimension cap after 9 entries)", _kron4_defect)
E10_DEFECT = Defect(
    "ROADMAP item 2", "some simples get 'finite, degree 3'; global infinite", _e10_defect)
WILD3_DEFECT = Defect(
    "ROADMAP item 3", "h0 = log 8 (the Cauchy bound) instead of log(4 + sqrt 15)", _wild3_defect)

E8 = star_quiver((1, 2, 4))
E10 = star_quiver((1, 2, 6))  # T(2,3,7)
E6_AFFINE = star_quiver((2, 2, 2))
D40 = star_quiver((1, 1, 37))
T2_3_31 = star_quiver((1, 2, 30))
D24 = star_quiver((1, 1, 21))
# The cost of check-coxeter follows the size of the matrix entries, which
# ranged over 2x across seeds. Of a fixed number of seeded conjugates, the one
# whose total entry bit length is nearest the median of that size is used, so
# every seed asks for about the same work of the job, and the same number of
# draws of the set-up.
CONJUGATE_BITS = 640
CONJUGATE_DRAWS = 8


def build(name: str, seed: int) -> tuple[dict[str, str], list[Job]]:
    """Input files (name -> text) and jobs of a workload for a seed.

    The seed picks the unimodular conjugator of the check-coxeter matrix;
    the references hold for every seed.
    """
    files: dict[str, str] = {}
    jobs: list[Job] = []

    def quiver_file(label: str, doc: dict) -> str:
        files[f"{label}.json"] = json.dumps(doc, sort_keys=True)
        return f"{label}.json"

    def trivext(label, doc, check, *extra, defect=None):
        path = quiver_file(label, doc)
        jobs.append(Job(f"trivext:{label}", ("trivext", path, *extra), check, defect))

    finite1 = expect_complexity("finite", 1)
    finite2 = expect_complexity("finite", 2)
    infinite = expect_complexity("infinite", None)
    if name == "trivext-wide":
        trivext("A8", path_quiver(8), finite1)
        trivext("E8", E8, finite1)
        trivext("E10", E10, infinite, defect=E10_DEFECT)
        trivext("E6-affine", E6_AFFINE, finite2)
    elif name == "trivext-deep":
        trivext("kron2", kronecker(2), finite2, "--steps", "200")
        trivext("gentle", GENTLE_TWO_LOOP, finite2, "--steps", "200")
        trivext("kron3", kronecker(3), infinite)
        trivext("kron4", kronecker(4), infinite, defect=KRON4_DEFECT)
        trivext("A3", path_quiver(3), finite1)
    elif name == "spectral":
        a60 = quiver_file("A60", path_quiver(60))
        d40 = quiver_file("D40", D40)
        jobs.append(Job("classify:A60", ("classify", a60), expect_classify("finite", 61)))
        jobs.append(Job("classify:D40", ("classify", d40), expect_classify("finite", 78)))
        entropy_inputs = [
            ("A60", a60, expect_entropy(None), None),
            ("D40", d40, expect_entropy(None), None),
            ("T2-3-31", quiver_file("T2-3-31", T2_3_31), expect_exponential_entropy, None),
            ("kron3", quiver_file("kron3", kronecker(3)),
             expect_entropy(math.log((7 + 3 * math.sqrt(5)) / 2)), None),
            ("E10", quiver_file("E10", E10), expect_entropy(lehmer_log_radius()), None),
            ("wild3", quiver_file("wild3", WILD3),
             expect_entropy(math.log(4 + math.sqrt(15))), WILD3_DEFECT),
        ]
        for label, path, check, defect in entropy_inputs:
            jobs.append(Job(f"entropy:{label}", ("entropy", path), check, defect))
        rng = random.Random(f"check-coxeter:{seed}")
        phi = coxeter_of_tree(D24)
        matrix = min(
            (conjugate(phi, rng) for _ in range(CONJUGATE_DRAWS)),
            key=lambda m: abs(sum(abs(x).bit_length() for row in m for x in row)
                              - CONJUGATE_BITS))
        files["phi-D24.json"] = json.dumps([[str(x) for x in row] for row in matrix])
        jobs.append(Job("check-coxeter:D24", ("check-coxeter", "phi-D24.json", "--n-max", "100"),
                        expect_witness(23, 1)))
        for weights in ((2, 3, 7), (5, 6, 7)):
            text = ",".join(map(str, weights))
            jobs.append(Job(f"canonical:{text}", ("canonical", "--weights", text),
                            expect_canonical(weights)))
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return files, jobs


def write_inputs(files: dict[str, str], directory: Path) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")
