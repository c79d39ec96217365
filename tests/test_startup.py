"""Start-up cost: each command loads only its own layers, and the package
resolves its public names lazily.

Every command is one short process, so what it imports is paid on every
run.  The guards run each command in a fresh interpreter and look at the
modules that appeared in `sys.modules` after the interpreter's own
start-up.
"""
import hashlib
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quiverlab
from conftest import bench_module

SRC = Path(__file__).resolve().parent.parent / "src"

KRONECKER_DOC = json.dumps(
    {"vertices": [1, 2], "arrows": [{"id": "a", "from": 1, "to": 2},
                                    {"id": "b", "from": 1, "to": 2}]}
)
A2_DOC = json.dumps({"vertices": [1, 2], "arrows": [{"id": "a", "from": 1, "to": 2}]})
PHI_DOC = '[["-1", "2"], ["-2", "3"]]'

# the bench's stars, every arrow toward the centre
E10_DOC = json.dumps(bench_module("workloads").E10)
E6_AFFINE_DOC = json.dumps(bench_module("workloads").E6_AFFINE)
# A~3 oriented 0 -> 1 -> 2 -> 3 with 0 -> 3, and a wild 8-cycle with two
# chords: no walk certifies the simples at 1 and 2 of the first, or at 0, 2
# and 5 of the second, as directing
A3_AFFINE_DOC = json.dumps(
    {"vertices": [0, 1, 2, 3], "arrows": [
        {"id": f"x{s}{t}", "from": s, "to": t} for s, t in ((0, 1), (1, 2), (2, 3), (0, 3))]}
)
CYCLE8_DOC = json.dumps(
    {"vertices": list(range(8)), "arrows": [
        {"id": f"x{s}{t}", "from": s, "to": t}
        for s, t in ((0, 1), (2, 1), (2, 3), (4, 3), (4, 5), (5, 6), (7, 6), (7, 0), (5, 2),
                     (7, 1))]}
)
A3_KRON3_DOC = json.dumps(
    {"vertices": [1, 2, 3, 4, 5], "arrows": [
        {"id": "a", "from": 1, "to": 2}, {"id": "b", "from": 2, "to": 3},
        *({"id": f"k{n}", "from": 4, "to": 5} for n in range(3))]}
)

# the modules new after start-up, once `import quiverlab.cli` is done and once
# `main` has run; the report goes to stdout, the module lists to argv[1]
RUN_COMMAND = """
import sys
before = set(sys.modules)
import quiverlab.cli
imported = sorted(set(sys.modules) - before)
status = quiverlab.cli.main(sys.argv[2:])
ran = sorted(set(sys.modules) - before)
import json
with open(sys.argv[1], "w", encoding="utf-8") as out:
    json.dump({"status": status, "import": imported, "run": ran}, out)
"""

# what each command must not load: no spectral command resolves, only
# canonical builds an algebra, and trivext on a relation-free acyclic quiver
# reads every simple off the Coxeter orbit, with neither
NO_RESOLUTION = {"quiverlab.resolution", "quiverlab.trivext"}
NO_ALGEBRA = NO_RESOLUTION | {"quiverlab.builders", "quiverlab.scalgebra"}
NO_SPECTRAL = {"quiverlab.serre", "quiverlab.cyclo", "quiverlab.intpoly"}
# trivext on a relation-free quiver runs on ints from parsing to rendering and
# fits nothing; neither does a bare `import quiverlab.cli`
NO_RATIONALS = {"fractions", "decimal", "numbers", "quiverlab.ratmat", "quiverlab.fitting"}
RELATION_FREE = NO_ALGEBRA | NO_SPECTRAL | NO_RATIONALS
# the input digest comes from the builtin sha256 module where the interpreter
# has one; hashlib would load OpenSSL's bindings, _hashlib
SHA256_BUILTIN = importlib.util.find_spec("_sha256") is not None


def fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=120)


def modules_loaded(tmp_path, argv, inputs) -> dict:
    """Run `quiverlab <argv> --json` in a fresh interpreter; the modules new
    after `import quiverlab.cli` ("import") and after `main` ("run")."""
    for name, text in inputs.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    record = tmp_path / "modules.json"
    argv = [str(tmp_path / a) if a in inputs else a for a in argv]
    child = fresh_python(["-c", RUN_COMMAND, str(record), *argv, "--json"])
    assert child.returncode == 0, child.stderr
    seen = json.loads(record.read_text(encoding="utf-8"))
    assert seen["status"] == 0
    assert json.loads(child.stdout)["command"] == argv[0]
    return seen


@pytest.mark.parametrize(
    "argv, inputs, forbidden",
    [
        (["classify", "kron.json"], {"kron.json": KRONECKER_DOC},
         NO_ALGEBRA | {"quiverlab.serre"}),
        (["entropy", "kron.json", "--iterations", "12"], {"kron.json": KRONECKER_DOC},
         NO_ALGEBRA),
        (["check-coxeter", "phi.json"], {"phi.json": PHI_DOC}, NO_ALGEBRA),
        (["canonical", "--weights", "2,3,5"], {}, NO_RESOLUTION),
        (["trivext", "a2.json", "--steps", "12"], {"a2.json": A2_DOC}, RELATION_FREE),
        # every trace is read off the Coxeter orbit and every verdict off the
        # component's kind and defect, the regular simples' too
        (["trivext", "e10.json"], {"e10.json": E10_DOC}, RELATION_FREE),
        (["trivext", "e6.json"], {"e6.json": E6_AFFINE_DOC}, RELATION_FREE),
        (["trivext", "a3-kron3.json"], {"a3-kron3.json": A3_KRON3_DOC}, RELATION_FREE),
        (["trivext", "kron.json", "--steps", "12"], {"kron.json": KRONECKER_DOC},
         RELATION_FREE),
        (["trivext", "a3.json"], {"a3.json": A3_AFFINE_DOC}, RELATION_FREE),
        (["trivext", "cycle8.json"], {"cycle8.json": CYCLE8_DOC}, RELATION_FREE),
    ],
    ids=["classify", "entropy", "check-coxeter", "canonical", "trivext", "trivext-E10",
         "trivext-E6-affine", "trivext-A3+kron3", "trivext-kron2", "trivext-A3-affine",
         "trivext-8-cycle"],
)
def test_command_loads_only_its_layers(tmp_path, argv, inputs, forbidden):
    seen = modules_loaded(tmp_path, argv, inputs)
    assert [m for m in seen["import"] if m.startswith("quiverlab")] == ["quiverlab",
                                                                        "quiverlab.cli"]
    assert NO_RATIONALS.isdisjoint(seen["import"]), sorted(NO_RATIONALS & set(seen["import"]))
    assert forbidden.isdisjoint(seen["run"])
    assert "dataclasses" not in seen["run"]
    if SHA256_BUILTIN:
        assert "_hashlib" not in seen["run"]


def test_trivext_on_a_koszul_base_loads_no_more_than_on_a2(tmp_path):
    # T(kron2) and T(kA2) both take the Coxeter orbit, classify their quiver
    # and read every verdict off its kind: neither builds an algebra, resolves
    # with the engine or loads the spectral layers
    a2 = modules_loaded(tmp_path, ["trivext", "a2.json", "--steps", "12"], {"a2.json": A2_DOC})
    kron = modules_loaded(tmp_path, ["trivext", "kron.json", "--steps", "12"],
                          {"kron.json": KRONECKER_DOC})
    assert set(kron["run"]) <= set(a2["run"]), sorted(set(kron["run"]) - set(a2["run"]))
    for seen in (a2, kron):
        assert RELATION_FREE.isdisjoint(seen["run"])


def test_input_digest_is_the_sha256_of_the_bytes():
    from quiverlab.cli import _digest_bytes

    for raw in (b"", KRONECKER_DOC.encode(), bytes(range(256)) * 300):
        assert _digest_bytes(raw) == hashlib.sha256(raw).hexdigest()
    # and the same through hashlib when the builtin module is missing
    script = """
import hashlib, sys
sys.modules["_sha256"] = None
from quiverlab.cli import _digest_bytes
raw = b"quiverlab" * 1000
assert _digest_bytes(raw) == hashlib.sha256(raw).hexdigest()
"""
    child = fresh_python(["-c", script])
    assert child.returncode == 0, child.stderr


def test_every_public_name_is_its_submodules_object():
    for name, submodule in quiverlab._EXPORTS.items():
        module = importlib.import_module(f"quiverlab.{submodule}")
        assert getattr(quiverlab, name) is getattr(module, name), name


def test_dir_and_star_import_list_every_public_name():
    assert set(quiverlab.__all__) <= set(dir(quiverlab))
    namespace: dict = {}
    exec("from quiverlab import *", namespace)
    for name in quiverlab.__all__:
        assert namespace[name] is getattr(quiverlab, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        quiverlab.no_such_name  # noqa: B018
    for name in ("projective_covers", "projective_cover"):
        assert not hasattr(quiverlab, name), name


def test_package_imports_a_submodule_on_first_use():
    script = """
import sys
import quiverlab
loaded = lambda: sorted(m for m in sys.modules if m.startswith("quiverlab"))
assert loaded() == ["quiverlab"], loaded()
assert "SerreVerdict" in dir(quiverlab)
quiverlab.RatMatrix
assert loaded() == ["quiverlab", "quiverlab.ratmat"], loaded()
from quiverlab import serre
assert serre is sys.modules["quiverlab.serre"]
assert "quiverlab.resolution" not in sys.modules
"""
    child = fresh_python(["-c", script])
    assert child.returncode == 0, child.stderr
