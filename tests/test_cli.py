"""Command line behavior: report shape, exactness envelopes, determinism,
exit codes, and the error paths for malformed or out-of-scope input.
"""
import argparse
import hashlib
import json
import math
import re
from pathlib import Path

import pytest

from quiverlab import cli, cyclo, quiver, resolution
from quiverlab.cli import main
from quiverlab.builders import parse_gentle
from quiverlab.echelon import TrackedEchelon
from quiverlab.quiver import K0Arithmetic, cartan_path_algebra, coxeter_matrix, parse_quiver
from quiverlab.ratmat import RatMatrix
from quiverlab.scalgebra import SCAlgebra
from quiverlab.serre import CanonicalSpec, parse_canonical_spec
from conftest import GENTLE_TWO_LOOP_DOC, bench_module, path_quiver


KRONECKER_DOC = json.dumps(
    {
        "vertices": [1, 2],
        "arrows": [
            {"id": "a", "from": 1, "to": 2},
            {"id": "b", "from": 1, "to": 2},
        ],
    }
)

KRONECKER3_DOC = json.dumps(
    {
        "vertices": [1, 2],
        "arrows": [{"id": f"a{i}", "from": 1, "to": 2} for i in range(3)],
    }
)

WILD3_DOC = json.dumps(
    {
        "vertices": [1, 2, 3],
        "arrows": [{"id": f"a{i}", "from": 1, "to": 2} for i in range(3)]
        + [{"id": "b", "from": 2, "to": 3}],
    }
)

CYCLE_DOC = json.dumps(
    {
        "vertices": [1, 2, 3],
        "arrows": [
            {"id": "a", "from": 1, "to": 2},
            {"id": "b", "from": 2, "to": 3},
            {"id": "c", "from": 3, "to": 1},
        ],
    }
)

PHI_GENTLE_DOC = '[["-1", "2"], ["-2", "3"]]'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, text):
    target = tmp_path / name
    target.write_text(text, encoding="utf-8")
    return str(target)


# --- classify ----------------------------------------------------------------

def test_classify_table_output(tmp_path, capsys):
    path = write(tmp_path, "kron.json", KRONECKER_DOC)
    code, out, err = run(capsys, "classify", path)
    assert code == 0
    assert err == ""
    assert "kind: affine" in out
    assert "radical_vector: 1, 1" in out
    assert "x^2 - 2x + 1" in out
    assert "warnings: (none)" in out


def test_classify_json_shape_and_digest(tmp_path, capsys):
    path = write(tmp_path, "kron.json", KRONECKER_DOC)
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == 0
    doc = json.loads(out)
    expected_digest = hashlib.sha256(KRONECKER_DOC.encode()).hexdigest()
    assert doc["command"] == "classify"
    assert doc["input_digest"] == expected_digest
    assert doc["warnings"] == []
    result = doc["result"]
    assert result["kind"] == "affine"
    assert result["radical_vector"] == {"exact": True, "value": [1, 1]}
    assert result["cartan_matrix"] == {"exact": True, "value": [["1", "0"], ["2", "1"]]}
    assert result["coxeter_matrix"]["value"] == [["3", "-2"], ["2", "-1"]]
    profile = result["cyclotomic_profile"]
    assert profile["is_cyclotomic"] is True
    assert profile["periodic"] is False
    assert profile["witness"] == {"exact": True, "value": [1, 2]}


def test_classify_deterministic_bytes(tmp_path, capsys):
    path = write(tmp_path, "kron.json", KRONECKER_DOC)
    _, first, _ = run(capsys, "classify", path, "--json")
    _, second, _ = run(capsys, "classify", path, "--json")
    assert first == second


def path_doc(n):
    return json.dumps(
        {
            "vertices": list(range(1, n + 1)),
            "arrows": [{"id": f"a{i}", "from": i, "to": i + 1} for i in range(1, n)],
        }
    )


def test_classify_computes_one_characteristic_polynomial(tmp_path, capsys, monkeypatch):
    real = cyclo.char_poly
    calls = []

    def counted(m):
        calls.append(m.rows)
        return real(m)

    monkeypatch.setattr(cyclo, "char_poly", counted)
    monkeypatch.setattr(cli, "char_poly", counted, raising=False)
    path = write(tmp_path, "a30.json", path_doc(30))
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == 0
    assert calls == [30]
    phi = coxeter_matrix(cartan_path_algebra(path_quiver(30)))
    assert json.loads(out)["result"]["char_poly"]["text"] == str(real(phi))


def test_classify_cyclic_warns_but_succeeds(tmp_path, capsys):
    path = write(tmp_path, "cycle.json", CYCLE_DOC)
    code, out, _ = run(capsys, "classify", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["kind"] == "affine"
    assert doc["result"]["cartan_matrix"] is None
    assert doc["result"]["cyclotomic_profile"] is None
    assert any("oriented cycle" in w for w in doc["warnings"])


def test_classify_cyclic_table_lists_its_warnings(tmp_path, capsys):
    path = write(tmp_path, "cycle.json", CYCLE_DOC)
    code, out, err = run(capsys, "classify", path)
    assert (code, err) == (0, "")
    assert out.endswith(
        "cartan_matrix: -\n"
        "coxeter_matrix: -\n"
        "char_poly: -\n"
        "cyclotomic_profile: -\n"
        "warnings:\n"
        "  - quiver has an oriented cycle, so the path algebra is "
        "infinite-dimensional; Cartan and Coxeter data are omitted\n"
    )


def test_classify_malformed_file_fails(tmp_path, capsys):
    path = write(tmp_path, "bad.json", "{oops")
    code, out, err = run(capsys, "classify", path)
    assert code == 1
    assert "error:" in err


def test_classify_missing_file_fails(tmp_path, capsys):
    code, _, err = run(capsys, "classify", str(tmp_path / "absent.json"))
    assert code == 1
    assert "error:" in err


# --- canonical -----------------------------------------------------------------

def test_canonical_json_shape(capsys):
    code, out, _ = run(capsys, "canonical", "--weights", "2,3,5", "--json")
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["delta"] == {"exact": True, "value": -1}
    assert result["p"] == {"exact": True, "value": 30}
    assert result["verdict"]["kind"] == "serre-cyclotomic"
    assert result["verdict"]["m"] == 30
    assert result["entropy_slope"] == {"exact": True, "value": "1"}
    assert result["algebra_dim"] == {"exact": True, "value": 32}
    assert result["coxeter_check"]["passed"] is True
    assert result["lambdas"] == {"exact": True, "value": ["1"]}


def test_canonical_default_lambdas(capsys):
    code, out, _ = run(capsys, "canonical", "--weights", "2,2,2,2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["lambdas"]["value"] == ["1", "2"]
    assert doc["result"]["verdict"]["kind"] == "fractionally-calabi-yau"


@pytest.mark.parametrize("weights, lambdas", [((2, 3, 7), (1,)), ((2, 3, 7, 5), (1, 2))])
def test_a_json_spec_without_lambdas_gets_the_cli_default(capsys, weights, lambdas):
    assert parse_canonical_spec(json.dumps({"weights": list(weights)})) == CanonicalSpec(
        weights, lambdas)
    code, out, _ = run(capsys, "canonical", "--weights", ",".join(map(str, weights)), "--json")
    assert code == 0
    assert json.loads(out)["result"]["lambdas"]["value"] == [str(x) for x in lambdas]
    # an explicit list is taken as it is: an empty one is short
    with pytest.raises(ValueError, match="one lambda per arm"):
        parse_canonical_spec(json.dumps({"weights": list(weights), "lambdas": []}))


def test_canonical_explicit_lambdas(capsys):
    code, out, _ = run(capsys, "canonical", "--weights", "2,2,2", "--lambdas", "1/2", "--json")
    assert code == 0
    assert json.loads(out)["result"]["lambdas"]["value"] == ["1/2"]


def test_canonical_rejects_bad_weights(capsys):
    code, _, err = run(capsys, "canonical", "--weights", "2,x")
    assert code == 1
    assert "error:" in err
    code, _, err = run(capsys, "canonical", "--weights", "2")
    assert code == 1


@pytest.mark.parametrize("lambdas", ["x", "1/0"])
def test_canonical_rejects_non_rational_lambdas(capsys, lambdas):
    code, out, err = run(capsys, "canonical", "--weights", "2,2,2", "--lambdas", lambdas)
    assert (code, out, err) == (
        1, "", "error: --lambdas must be a comma-separated list of rationals\n")


# --- trivext ---------------------------------------------------------------------

def test_trivext_quiver_input(tmp_path, capsys):
    path = write(tmp_path, "kron.json", KRONECKER_DOC)
    code, out, _ = run(capsys, "trivext", path, "--json")
    assert code == 0
    doc = json.loads(out)
    result = doc["result"]
    assert result["base_dim"] == {"exact": True, "value": 4}
    assert result["extension_dim"] == {"exact": True, "value": 8}
    assert len(result["simples"]) == 2
    first = result["simples"][0]
    assert first["trace"]["betti"][:3] == [4, 8, 12]
    assert first["trace"]["truncated_by"] == "steps-exhausted"
    assert first["estimate"] == {"kind": "finite", "degree": 2}
    assert result["global_estimate"] == {"kind": "finite", "degree": 2}


def test_trivext_gentle_input(tmp_path, capsys):
    path = write(tmp_path, "gentle.json", GENTLE_TWO_LOOP_DOC)
    code, out, _ = run(capsys, "trivext", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["base_dim"]["value"] == 8
    assert doc["result"]["extension_dim"]["value"] == 16


def test_trivext_table_prints_one_block_per_vertex(tmp_path, capsys):
    path = write(tmp_path, "a3.json", path_doc(3))
    code, out, err = run(capsys, "trivext", path, "--steps", "12")
    assert (code, err) == (0, "")
    block = (
        "  [vertex {}]\n"
        "    trace:\n"
        "      betti: 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4, 4\n"
        "      truncated_by: steps-exhausted\n"
        "    estimate:\n"
        "      kind: finite\n"
        "      degree: 1\n"
    )
    simples = "simples:\n" + "".join(block.format(v) for v in (1, 2, 3))
    assert simples + "global_estimate:\n" in out
    assert out.endswith("warnings: (none)\n")


def test_trivext_decodes_a_gentle_document_once(tmp_path, capsys, monkeypatch):
    real = json.loads
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return real(*args, **kwargs)

    monkeypatch.setattr(json, "loads", counted)
    path = write(tmp_path, "gentle.json", GENTLE_TWO_LOOP_DOC)
    code, _, _ = run(capsys, "trivext", path, "--steps", "12")
    assert code == 0
    assert calls == [GENTLE_TWO_LOOP_DOC]


def test_trivext_validates_a_gentle_document_once(tmp_path, capsys, monkeypatch):
    # the presentation the CLI reads is the one the route resolves
    from quiverlab.builders import GentlePresentation

    checks = []
    validate = GentlePresentation._post_init
    monkeypatch.setattr(GentlePresentation, "_post_init",
                        lambda self: checks.append(self) or validate(self))
    empty = json.dumps({**json.loads(KRONECKER_DOC), "relations": []})
    for name, document, count in (("gentle.json", GENTLE_TWO_LOOP_DOC, 1),
                                  ("empty.json", empty, 1), ("plain.json", KRONECKER_DOC, 0)):
        checks.clear()
        code, _, _ = run(capsys, "trivext", write(tmp_path, name, document), "--steps", "12")
        assert (code, len(checks)) == (0, count), name


def gentle_doc(vertices, arrows, relations):
    return json.dumps({
        "vertices": vertices,
        "arrows": [{"id": i, "from": s, "to": t} for i, s, t in arrows],
        "relations": relations,
    })


# a -> two continuations b, c; two predecessors a, b -> c
FORK = ([1, 2, 3, 4], [("a", 1, 2), ("b", 2, 3), ("c", 2, 4)])
JOIN = ([1, 2, 3, 4], [("a", 1, 3), ("b", 2, 3), ("c", 3, 4)])


@pytest.mark.parametrize("document, message", [
    (GENTLE_TWO_LOOP_DOC.replace('[["b1", "b1"]', '[["b1", "b1"], ["b1", "b1"]'),
     "duplicate relation"),
    (GENTLE_TWO_LOOP_DOC.replace('"b1", "b1"', '"zz", "b1"'),
     "relation ('zz', 'b1') names an unknown arrow"),
    (gentle_doc([1, 2, 3], [("a", 1, 2), ("b", 2, 3)], [["b", "a"]]),
     "relation ('b', 'a') is not composable"),
    (gentle_doc([1, 2], [("a", 1, 2), ("b", 1, 2), ("c", 1, 2)], []),
     "more than two arrows out of vertex '1'"),
    (gentle_doc([1, 2, 3, 4], [("a", 1, 4), ("b", 2, 4), ("c", 3, 4)], []),
     "more than two arrows into vertex '4'"),
    (gentle_doc(*FORK, [["a", "b"], ["a", "c"]]), "arrow 'a' has two relational continuations"),
    (gentle_doc(*FORK, []), "arrow 'a' has two plain continuations"),
    (gentle_doc(*JOIN, [["a", "c"], ["b", "c"]]), "arrow 'c' has two relational predecessors"),
    (gentle_doc(*JOIN, []), "arrow 'c' has two plain predecessors"),
    (gentle_doc([1], [], {}), "'relations' must be a list of arrow id pairs"),
    (gentle_doc([1, 2], [("a", 1, 2)], [["a"]]), "relation must be a pair of arrow ids, got ['a']"),
    (gentle_doc([1, 2], [("a", 1, 2)], ["a"]), "relation must be a pair of arrow ids, got 'a'"),
    (gentle_doc([1], [("l", 1, 1)], []),
     "presentation is infinite-dimensional: some cycle avoids every relation"),
], ids=["duplicate", "unknown-arrow", "not-composable", "three-out", "three-in",
        "two-relational-continuations", "two-plain-continuations",
        "two-relational-predecessors", "two-plain-predecessors",
        "relations-not-a-list", "short-relation", "relation-not-a-list", "unrelieved-loop"])
def test_trivext_refuses_a_presentation_that_is_not_gentle(tmp_path, capsys, document, message):
    path = write(tmp_path, "bad.json", document)
    code, out, err = run(capsys, "trivext", path)
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_a_malformed_gentle_document_has_one_name(tmp_path, capsys):
    # trivext cannot tell a gentle document apart before decoding it, so
    # parse_gentle names a malformed one as trivext does
    message = ("malformed quiver document: Expecting property name enclosed in double "
               "quotes: line 1 column 2 (char 1)")
    with pytest.raises(ValueError) as caught:
        parse_gentle("{")
    assert str(caught.value) == message
    code, out, err = run(capsys, "trivext", write(tmp_path, "bad.json", "{"))
    assert (code, out, err) == (1, "", f"error: {message}\n")


def test_trivext_refuses_a_plain_quiver_with_an_oriented_cycle(tmp_path, capsys):
    # kQ is infinite-dimensional, so no Coxeter orbit is read and the path
    # algebra builder refuses it, as it does with the engine
    code, out, err = run(capsys, "trivext", write(tmp_path, "cycle.json", CYCLE_DOC))
    assert (code, out) == (1, "")
    assert err == "error: quiver has an oriented cycle; its path algebra is infinite-dimensional\n"


@pytest.mark.parametrize("document", ["{oops", "[]", '{"vertices": ["a"], "arrows": [5]}'],
                         ids=["malformed", "not-an-object", "bad-arrow"])
def test_trivext_refuses_a_quiver_as_parse_quiver_does(tmp_path, capsys, document):
    with pytest.raises(ValueError) as caught:
        parse_quiver(document)
    path = write(tmp_path, "bad.json", document)
    code, out, err = run(capsys, "trivext", path)
    assert (code, out, err) == (1, "", f"error: {caught.value}\n")


def test_trivext_dimension_cap_warning(tmp_path, capsys):
    path = write(tmp_path, "kron.json", KRONECKER_DOC)
    code, out, _ = run(capsys, "trivext", path, "--dim-cap", "30", "--json")
    assert code == 0
    doc = json.loads(out)
    assert any("dimension cap" in w for w in doc["warnings"])
    assert all(
        s["trace"]["truncated_by"] == "dimension-cap" for s in doc["result"]["simples"]
    )


def test_trivext_output_is_the_same_run_after_run(tmp_path, capsys):
    # T(kron2) and T(kE8) read their traces off the Coxeter orbit, and the
    # gentle two-loop algebra off strings
    e8 = json.dumps(bench_module("workloads").E8)
    paths = [write(tmp_path, "kron.json", KRONECKER_DOC), write(tmp_path, "e8.json", e8),
             write(tmp_path, "gentle.json", GENTLE_TWO_LOOP_DOC)]
    for path in paths:
        _, baseline, _ = run(capsys, "trivext", path, "--json")
        _, again, _ = run(capsys, "trivext", path, "--json")
        assert baseline == again


def test_trivext_wide_path_algebra_is_finite_of_degree_one(tmp_path, capsys):
    # T(A12) has dimension 156, wider than any trivext input of the benchmark
    doc = json.dumps(
        {
            "vertices": list(range(1, 13)),
            "arrows": [{"id": f"a{i}", "from": i, "to": i + 1} for i in range(1, 12)],
        }
    )
    code, out, _ = run(capsys, "trivext", write(tmp_path, "a12.json", doc), "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["extension_dim"] == {"exact": True, "value": 156}
    assert len(result["simples"]) == 12
    for simple in result["simples"]:
        assert simple["estimate"] == {"kind": "finite", "degree": 1}
    assert result["global_estimate"] == {"kind": "finite", "degree": 1}


def test_trivext_on_a30_keeps_its_bytes(tmp_path, capsys):
    # T(kA30) has dimension 930, wider than any trivext input of the benchmark
    doc = json.dumps(bench_module("workloads").path_quiver(30))
    code, out, err = run(capsys, "trivext", write(tmp_path, "a30.json", doc), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dbe9f273259610be46147bb261a1a66ba7c381d3e9240847ae6167ce6f2b4f79")


def test_trivext_on_kron4_is_infinite(tmp_path, capsys):
    doc = json.dumps(bench_module("workloads").kronecker(4))
    code, out, _ = run(capsys, "trivext", write(tmp_path, "kron4.json", doc), "--json")
    assert code == 0
    assert json.loads(out)["result"]["global_estimate"] == {"kind": "infinite"}


def test_trivext_on_d20_is_periodic(tmp_path, capsys):
    # T(kD20), the star (1,1,17), is representation-finite, so every simple
    # is Omega-periodic; the fits left 2.11-2.17 and the global inconclusive
    doc = json.dumps(bench_module("workloads").star_quiver((1, 1, 17)))
    code, out, err = run(capsys, "trivext", write(tmp_path, "d20.json", doc), "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert [s["estimate"] for s in result["simples"]] == [{"kind": "finite", "degree": 1}] * 20
    assert result["global_estimate"] == {"kind": "finite", "degree": 1}


def test_trivext_short_uncertified_trace_is_inconclusive(tmp_path, capsys):
    # T(gentle) has no certified verdict, and 8 steps are too few to fit a
    # growth shape; T(kE10), sink-centred, reads every verdict off the
    # Coxeter orbit, whatever the number of steps
    path = write(tmp_path, "gentle.json", GENTLE_TWO_LOOP_DOC)
    code, out, err = run(capsys, "trivext", path, "--steps", "8", "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    short = {"kind": "inconclusive",
             "reason": "trace too short: need 12 entries or termination"}
    assert [s["estimate"] for s in result["simples"]] == [short] * 2
    assert result["global_estimate"] == short
    path = write(tmp_path, "e10.json", json.dumps(bench_module("workloads").E10))
    code, out, err = run(capsys, "trivext", path, "--steps", "8", "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert [s["estimate"] for s in result["simples"]] == [{"kind": "infinite"}] * 10
    assert result["global_estimate"] == {"kind": "infinite"}


def bipartite_a3_doc() -> str:
    """The affine A3 quiver, a square with two sources and two sinks."""
    arrows = [("a", 1, 2), ("b", 3, 2), ("c", 3, 4), ("d", 1, 4)]
    return json.dumps({"vertices": [1, 2, 3, 4],
                       "arrows": [{"id": i, "from": s, "to": t} for i, s, t in arrows]})


@pytest.mark.parametrize("document", [
    KRONECKER_DOC, bipartite_a3_doc(), path_doc(4), path_doc(12),
], ids=["kron2", "bipartite-A3-affine", "A4", "A12"])
def test_trivext_reads_empty_relations_as_none(tmp_path, capsys, document):
    # the Coxeter route reads the presentation, not whether the
    # document lists its relations
    with_relations = json.dumps({**json.loads(document), "relations": []})
    results = []
    for name, text in (("plain.json", document), ("gentle.json", with_relations)):
        code, out, err = run(capsys, "trivext", write(tmp_path, name, text), "--json")
        assert (code, err) == (0, ""), name
        results.append(json.loads(out)["result"])
    assert results[0] == results[1]


def bipartite_e10_doc() -> str:
    """E10 = T(2,3,7), arms of 1, 2 and 6 edges, with the vertices at even
    distance from the centre as sources."""
    vertices, arrows = ["c"], []
    for i, length in enumerate((1, 2, 6)):
        prev = "c"
        for j in range(1, length + 1):
            v = f"{i}.{j}"
            vertices.append(v)
            source, target = (prev, v) if j % 2 else (v, prev)
            arrows.append({"id": f"x{i}.{j}", "from": source, "to": target})
            prev = v
    return json.dumps({"vertices": vertices, "arrows": arrows})


def test_trivext_on_bipartite_e10_is_infinite(tmp_path, capsys):
    path = write(tmp_path, "e10.json", bipartite_e10_doc())
    code, out, _ = run(capsys, "trivext", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert [s["estimate"] for s in result["simples"]] == [{"kind": "infinite"}] * 10
    assert result["global_estimate"] == {"kind": "infinite"}


def test_commands_never_verify_and_certify_one_radical_per_trivext(
        tmp_path, capsys, monkeypatch):
    # builders and trivial_extension are right by construction; verify() is
    # the tests' oracle, and the radical certificate is the engine's, which
    # no command runs: T(kA3)'s traces come from the Coxeter orbit, and the
    # gentle job's from strings, whose premise is the arm certificate
    def refuse(self):
        raise AssertionError("SCAlgebra.verify ran on a command's path")

    monkeypatch.setattr(SCAlgebra, "verify", refuse)
    calls = []
    radical = resolution.jacobson_radical
    monkeypatch.setattr(resolution, "jacobson_radical", lambda a: calls.append(a) or radical(a))
    a3 = write(tmp_path, "a3.json", json.dumps(bench_module("workloads").path_quiver(3)))
    gentle = write(tmp_path, "gentle.json", GENTLE_TWO_LOOP_DOC)
    for path in (a3, gentle):
        code, _, err = run(capsys, "trivext", path, "--steps", "12", "--json")
        assert (code, err, len(calls)) == (0, "", 0), path
    code, _, err = run(capsys, "canonical", "--weights", "2,3,7", "--json")
    assert (code, err) == (0, "")


# --- entropy ----------------------------------------------------------------------

def test_entropy_zero_is_exact(tmp_path, capsys):
    path = write(tmp_path, "kron.json", KRONECKER_DOC)
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["h0"] == {"exact": True, "value": "0"}
    assert doc["result"]["growth"] == {"kind": "polynomial", "degree": 1}
    assert len(doc["result"]["trace"]["value"]) == 60


def test_entropy_positive_is_tolerance_bounded(tmp_path, capsys):
    path = write(tmp_path, "kron3.json", KRONECKER3_DOC)
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    doc = json.loads(out)
    h0 = doc["result"]["h0"]
    assert h0["exact"] is False
    assert abs(h0["value"] - 1.9248473) < 1e-4
    assert h0["tol"] == 1e-4
    assert doc["result"]["growth"] == {"kind": "exponential"}


def test_entropy_odd_size_wild_quiver(tmp_path, capsys):
    # Coxeter polynomial x^3 - 7x^2 - 7x + 1 = (x + 1)(x^2 - 8x + 1)
    path = write(tmp_path, "wild3.json", WILD3_DOC)
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    h0 = json.loads(out)["result"]["h0"]
    assert h0["exact"] is False
    assert abs(h0["value"] - math.log(4 + math.sqrt(15))) < 1e-4


def test_entropy_long_period_dynkin_is_exactly_bounded(tmp_path, capsys):
    # Phi(A30) has period 31, longer than half of the 60 iterations
    doc = {
        "vertices": list(range(1, 31)),
        "arrows": [{"id": f"a{i}", "from": i, "to": i + 1} for i in range(1, 30)],
    }
    path = write(tmp_path, "a30.json", json.dumps(doc))
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["h0"] == {"exact": True, "value": "0"}
    assert result["growth"] == {"kind": "polynomial", "degree": 0}


def test_entropy_walks_the_coxeter_orbit_once(tmp_path, capsys, monkeypatch):
    # the trace's 60 iterates of Phi(A60) are the Coxeter map's forward
    # passes, and a Dynkin quiver's h0 and growth are read off its kind, so
    # they are the command's only passes
    calls = []
    forward = K0Arithmetic.forward

    def counted(self, vec):
        calls.append(1)
        return forward(self, vec)

    monkeypatch.setattr(K0Arithmetic, "forward", counted)
    path = write(tmp_path, "a60.json", path_doc(60))
    code, out, _ = run(capsys, "entropy", path, "--iterations", "60", "--json")
    assert code == 0
    assert json.loads(out)["result"]["growth"] == {"kind": "polynomial", "degree": 0}
    assert len(calls) == 60


@pytest.mark.parametrize("label", ["D40", "E6_AFFINE", "T2_3_31"])
def test_entropy_eliminates_only_on_a_wild_quiver(label, tmp_path, capsys, monkeypatch):
    # a Dynkin or affine quiver's h0 and growth are read off its kind, so
    # entropy inserts nothing into any echelon; a wild one's radius comes
    # from one Krylov walk of the Coxeter map from the unit vectors, and
    # every insert of it either enlarges the span or closes a block
    doc = getattr(bench_module("workloads"), label)
    path = write(tmp_path, f"{label}.json", json.dumps(doc))
    cyclo.krylov_walk.cache_clear()
    enlarged = []
    insert = TrackedEchelon.insert

    def counted(self, vec, expr):
        relation = insert(self, vec, expr)
        enlarged.append(relation is None)
        return relation

    monkeypatch.setattr(TrackedEchelon, "insert", counted)
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    if label == "T2_3_31":
        assert sum(enlarged) == len(doc["vertices"])
    else:
        assert enlarged == []


# sha256 of the --json stdout of each seed-1401 job of the benchmark's
# spectral workload, as the Hessenberg characteristic polynomial wrote it
# (entropy:kron3 as the certified radius wrote it: the closed form to 12
# digits); a change of route inside cyclo, ratmat or serre must keep every byte
SPECTRAL_STDOUT_SHA256 = {
    "classify:A60": "cf1bc4ec448ef44abd13d36e16c125fb0d4bd0ae360fe55feb1bc11d08fc5c08",
    "classify:D40": "b24534ea8cdc0d58c42f95bde8adbd9d55ff733bd1d6f5364e8fbcfb7009952c",
    "entropy:A60": "1542eb9eb19b8776d527d7c161e9239379bfe9f987ec108468cd2e05c66dd6f9",
    "entropy:D40": "6814d18b68f2a36d5b5200acbfef71cabf6520b0ca125f8f9b3b02b4364ab022",
    "entropy:T2-3-31": "4a91f2aa9a33992ea47617f6b9d853200e59dd0f9fbb580296a04ec8effe6501",
    "entropy:kron3": "2df026cc22059d9c9d4053d8fd506f4805faa4db9275f02c8d602b8401d28ab2",
    "entropy:E10": "d73b0affbea66913e9103b44f86c414f44dddbc3f439b299cf0548b0a22bd8cf",
    "entropy:wild3": "7946d06aa3be2130fc2a3025e534aae8eab29fbe790ed8e4098bb3c41e31454f",
    "check-coxeter:D24": "2d25c71994b3a3ad6180d471d5d6cbad21982421b0ce378c40631c330c7ccfd1",
    "canonical:2,3,7": "4414c9178a00ceebc845f55b213625d630fc88c17e9a671850af09dc9818a559",
    "canonical:5,6,7": "81bebeeda59973312e4d6550539726401f75770c1ace3e0c242ac99901f3a8e9",
}


def test_entropy_kron3_prints_the_closed_form(tmp_path, capsys):
    # rho(Phi) = (7 + 3 sqrt 5) / 2; the certified enclosure is far narrower
    # than the 12 printed digits
    path = write(tmp_path, "kron3.json", json.dumps(bench_module("workloads").kronecker(3)))
    closed_form = float(f"{math.log((7 + 3 * math.sqrt(5)) / 2):.12g}")
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    assert json.loads(out)["result"]["h0"]["value"] == closed_form == 1.92484730024


def test_spectral_workload_keeps_its_bytes(tmp_path, capsys, monkeypatch):
    workloads = bench_module("workloads")
    files, jobs = workloads.build("spectral", 1401)
    workloads.write_inputs(files, tmp_path)
    monkeypatch.chdir(tmp_path)
    digests = {}
    for job in jobs:
        code, out, err = run(capsys, *job.argv, "--json")
        assert (code, err) == (0, ""), job.id
        digests[job.id] = hashlib.sha256(out.encode()).hexdigest()
    assert digests == SPECTRAL_STDOUT_SHA256


# (exit code, stderr, sha256 of the --json stdout) of each seed-1401 job of the
# benchmark's trivext workloads, as the serial resolution loop wrote them;
# trivext:E10 as the Coxeter orbit writes it, the same traces with every simple
# "infinite" (it read "finite, degree 3" on 7 simples from the fit)
TRIVEXT_OUTCOMES = {
    "trivext:A8": (0, "", "a5da500296bde7f36ad62bfd98ebc154c77547f0abafdf1013b9cf2aa6edefab"),
    "trivext:E8": (0, "", "257219b6f6c3d348ecf13c3ca397a73f4f64f689cf7e6e33b995c8adb575c1a3"),
    "trivext:E10": (0, "", "603f759f33c1fee01312cca5b15f5851c99957c1e5e65e48d4d4e1c5a2b2e041"),
    "trivext:E6-affine": (
        0, "", "1ec3a9d7533e2a927c1f1b01d2b99e38392a3fc3790393944e5b5d9b3a03a49a"),
    "trivext:kron2": (0, "", "d56e02893ad35064f59eb13d767feafdf846cef86cbc6a9e61b3d40fc3080c5b"),
    "trivext:gentle": (0, "", "da037fd4095ab717097dc8f6f55e16a4b3d7d7aaf9b41c6cbfe8eb5a647ea09f"),
    "trivext:kron3": (0, "", "5d29e19151a15e316146642996df9e84773f4184210ce8ecd8e317a094c7809b"),
    "trivext:kron4": (0, "", "e509a583a64e899bcb4e0183e9ae0ba6a302d21b32928c0c079c0012f56b423c"),
    "trivext:A3": (0, "", "b5b3627caa670f7187b1d37040e837e72716d93462838bd40396a282bda39617"),
}


def test_trivext_workloads_keep_their_bytes(tmp_path, capsys, monkeypatch):
    workloads = bench_module("workloads")
    monkeypatch.chdir(tmp_path)
    outcomes = {}
    for name in ("trivext-wide", "trivext-deep"):
        files, jobs = workloads.build(name, 1401)
        workloads.write_inputs(files, tmp_path)
        for job in jobs:
            code, out, err = run(capsys, *job.argv, "--json")
            outcomes[job.id] = (code, err, hashlib.sha256(out.encode()).hexdigest())
    assert outcomes == TRIVEXT_OUTCOMES


def test_path_algebra_commands_invert_no_matrix(tmp_path, capsys, monkeypatch):
    # classify, entropy and trivext read C, Phi and Phi^(-1) of kQ off
    # K0Arithmetic, and canonical reads C and Phi of its algebra off the
    # weights: with RatMatrix.inverse refused, each relation-free bench job
    # and each canonical one still prints its pinned bytes
    def refuse(self):
        raise AssertionError("RatMatrix.inverse on a path-algebra route")

    monkeypatch.setattr(RatMatrix, "inverse", refuse)
    workloads = bench_module("workloads")
    monkeypatch.chdir(tmp_path)
    pinned = {**SPECTRAL_STDOUT_SHA256, **{job: digest for job, (_, _, digest)
                                           in TRIVEXT_OUTCOMES.items()}}
    digests = {}
    for name in workloads.WORKLOADS:
        files, jobs = workloads.build(name, 1401)
        workloads.write_inputs(files, tmp_path)
        for job in jobs:
            command, *rest = job.argv
            if command == "canonical" or (command in ("classify", "entropy", "trivext") and
                                          "relations" not in json.loads(files[rest[0]])):
                code, out, err = run(capsys, *job.argv, "--json")
                assert (code, err) == (0, ""), job.id
                digests[job.id] = hashlib.sha256(out.encode()).hexdigest()
    assert len(digests) == 18
    assert digests == {job: pinned[job] for job in digests}


def test_each_trivext_job_classifies_its_quiver_at_most_once(tmp_path, capsys, monkeypatch):
    # one route decision per job: the gentle job has relations and is not
    # classified, every other bench base is classified once
    calls = []
    classify = quiver.classify_quiver

    def counted(q):
        calls.append(q)
        return classify(q)

    monkeypatch.setattr(quiver, "classify_quiver", counted)
    workloads = bench_module("workloads")
    monkeypatch.chdir(tmp_path)
    for name in ("trivext-wide", "trivext-deep"):
        files, jobs = workloads.build(name, 1401)
        workloads.write_inputs(files, tmp_path)
        for job in jobs:
            calls.clear()
            code, _, err = run(capsys, *job.argv, "--json")
            assert (code, err) == (0, ""), job.id
            assert len(calls) == (job.id != "trivext:gentle"), job.id


def test_entropy_few_iterations_reports_growth(tmp_path, capsys):
    # the growth verdict is exact, whatever the iteration count
    path = write(tmp_path, "kron.json", KRONECKER_DOC)
    code, out, _ = run(capsys, "entropy", path, "--iterations", "5", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["growth"] == {"kind": "polynomial", "degree": 1}
    assert doc["warnings"] == []
    code, out, _ = run(capsys, "entropy", path, "--iterations", "1", "--json")
    assert json.loads(out)["result"]["growth"] == doc["result"]["growth"]


def test_entropy_cyclic_fails_with_hint(tmp_path, capsys):
    path = write(tmp_path, "cycle.json", CYCLE_DOC)
    code, _, err = run(capsys, "entropy", path)
    assert code == 1
    assert "classify" in err


def test_classify_refuses_and_entropy_answers_a_disconnected_quiver(tmp_path, capsys):
    # trivext and entropy take a disconnected quiver component by component;
    # classify names the connectedness it needs
    path = write(tmp_path, "a2+a1.json", json.dumps(
        {"vertices": [1, 2, 3], "arrows": [{"id": "a", "from": 1, "to": 2}]}))
    assert run(capsys, "classify", path) == (
        1, "", "error: classification requires a connected quiver\n")
    code, out, err = run(capsys, "entropy", path, "--json")
    assert (code, err) == (0, "")
    result = json.loads(out)["result"]
    assert result["h0"] == {"exact": True, "value": "0"}
    assert result["growth"] == {"kind": "polynomial", "degree": 0}
    code, out, _ = run(capsys, "trivext", path, "--json")
    assert code == 0
    assert [simple["estimate"] for simple in json.loads(out)["result"]["simples"]] == \
        [{"kind": "finite", "degree": 1}] * 3


def test_entropy_of_a_disconnected_quiver_is_its_worst_components(tmp_path, capsys):
    # A3 + kron3 takes kron3's h0, log((7 + sqrt 45) / 2), and its
    # exponential growth; D40 + A1 is Dynkin throughout
    kron3 = {"vertices": ["k1", "k2"],
             "arrows": [{"id": f"k{n}", "from": "k1", "to": "k2"} for n in range(3)]}
    a3 = json.loads(path_doc(3))
    d40 = bench_module("workloads").D40
    a3_kron3 = {"vertices": [*a3["vertices"], *kron3["vertices"]],
                "arrows": [*a3["arrows"], *kron3["arrows"]]}
    d40_a1 = {"vertices": [*d40["vertices"], "z"], "arrows": d40["arrows"]}
    path = write(tmp_path, "a3+kron3.json", json.dumps(a3_kron3))
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["h0"]["value"] == float(f"{math.log((7 + math.sqrt(45)) / 2):.12g}")
    assert result["growth"] == {"kind": "exponential"}
    path = write(tmp_path, "d40+a1.json", json.dumps(d40_a1))
    code, out, _ = run(capsys, "entropy", path, "--json")
    assert code == 0
    result = json.loads(out)["result"]
    assert result["h0"] == {"exact": True, "value": "0"}
    assert result["growth"] == {"kind": "polynomial", "degree": 0}


# --- check-coxeter ------------------------------------------------------------------

def test_check_coxeter_passes_gentle_matrix(tmp_path, capsys):
    path = write(tmp_path, "phi.json", PHI_GENTLE_DOC)
    code, out, _ = run(capsys, "check-coxeter", path, "--json")
    assert code == 0
    doc = json.loads(out)
    report = doc["result"]["report"]
    assert report["cyclotomic"] is True
    assert report["passed"] is True
    assert (report["n"], report["l"]) == (1, 2)
    assert doc["result"]["size"] == {"exact": True, "value": [2, 2]}


def test_check_coxeter_bounds_warning(tmp_path, capsys):
    # A5 Coxeter matrix has witness n=3; n_max=2 leaves it unverified
    from quiverlab import cartan_path_algebra, coxeter_matrix
    from conftest import path_quiver

    phi = coxeter_matrix(cartan_path_algebra(path_quiver(5)))
    doc = json.dumps([[str(x) for x in row] for row in phi.entries()])
    path = write(tmp_path, "phi5.json", doc)
    code, out, _ = run(capsys, "check-coxeter", path, "--n-max", "2", "--json")
    assert code == 0
    parsed = json.loads(out)
    assert parsed["result"]["report"]["passed"] is None
    assert any("bounds" in w for w in parsed["warnings"])


def test_check_coxeter_rejects_numeric_entries(tmp_path, capsys):
    path = write(tmp_path, "phi.json", "[[1, 2], [3, 4]]")
    code, _, err = run(capsys, "check-coxeter", path)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("document, message", [
    ("[[", "malformed matrix document: "),
    ("[]", "matrix file must be a JSON array of arrays of rational strings\n"),
    ('{"rows": []}', "matrix file must be a JSON array of arrays of rational strings\n"),
    ('["1", "2"]', "matrix file must be a JSON array of arrays of rational strings\n"),
    ('[["1", 2], ["3", "4"]]', "matrix entries must be strings like '3/4', got 2\n"),
    ('[["1", "x"], ["3", "4"]]', "bad matrix entry 'x': "),
    ('[["1", "1/0"], ["3", "4"]]', "bad matrix entry '1/0': "),
], ids=["malformed", "empty", "object", "flat", "non-string", "bad-rational", "zero-denominator"])
def test_check_coxeter_refuses_bad_input(tmp_path, capsys, document, message):
    path = write(tmp_path, "phi.json", document)
    code, out, err = run(capsys, "check-coxeter", path)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}")
    assert err.count("\n") == 1


def test_check_coxeter_rejects_singular(tmp_path, capsys):
    path = write(tmp_path, "phi.json", '[["1", "2"], ["2", "4"]]')
    code, _, err = run(capsys, "check-coxeter", path)
    assert code == 1


# --- parser level ---------------------------------------------------------------------

def test_unknown_command_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        main(["no-such-command"])
    assert info.value.code == 2


def test_missing_required_flag_exits_with_usage():
    with pytest.raises(SystemExit) as info:
        main(["canonical"])
    assert info.value.code == 2


def test_readme_classify_transcript_is_the_cli_output(tmp_path, capsys):
    # the Kronecker example under "Command line", its document written with a
    # trailing newline, prints the transcript byte for byte, digest included
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    document = section.split("Example, the Kronecker quiver\n`", 1)[1].split("`", 1)[0]
    transcript = section.split("$ quiverlab classify kron.json\n", 1)[1].split("```", 1)[0]
    path = write(tmp_path, "kron.json", document + "\n")
    assert run(capsys, "classify", path) == (0, transcript, "")


def test_readme_canonical_transcript_is_the_cli_output(capsys):
    # the canonical example under "Command line" prints its transcript byte
    # for byte, the digest of the normalized weights and lambdas included
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("## Command line", 1)[1]
    transcript = section.split("$ quiverlab canonical --weights 2,3,6\n", 1)[1].split("```", 1)[0]
    assert run(capsys, "canonical", "--weights", "2,3,6") == (0, transcript, "")


def test_readme_usage_lists_the_parser():
    # the usage block under "Command line" names every subcommand once, each
    # with exactly its long options
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    listed = {}
    for line in lines:
        program, command, *rest = line.split()
        assert program == "quiverlab"
        listed[command] = set(re.findall(r"--[a-z][a-z-]*", " ".join(rest)))
    assert len(listed) == len(lines)
    parser = cli._build_parser()
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    options = {
        command: {
            option
            for action in p._actions
            for option in action.option_strings
            if option.startswith("--") and option != "--help"
        }
        for command, p in sub.choices.items()
    }
    assert listed == options
