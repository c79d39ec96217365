"""The traced replay of `bench/run.py --trace 1` still finds every layer.

`bench/replay.py` wraps quiverlab functions and methods by name, so a
refactor that renames or removes one breaks the traced benchmark, and so
does one that binds a layer where the wrappers cannot reach it.  The
module is loaded read-only, without writing bytecode next to it.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conftest import GENTLE_TWO_LOOP_DOC, bench_module
from quiverlab import cli

REPLAY = Path(__file__).resolve().parent.parent / "bench" / "replay.py"


def test_every_traced_layer_exists_and_is_callable(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_replay", REPLAY)
    replay = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(replay)
    targets = [(owner, attr) for layer in replay.LAYERS.values() for owner, attr, _ in layer]
    assert targets
    missing = [f"{owner.__name__}.{attr}" for owner, attr in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []


KRONECKER3_DOC = json.dumps(
    {"vertices": [1, 2], "arrows": [{"id": f"a{i}", "from": 1, "to": 2} for i in range(3)]}
)


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["entropy", "kron3.json", "--iterations", "12"], "cyclo.spectral_radius"),
        # a gentle document is the one trivext input that builds T(A), which
        # the string route walks
        (["trivext", "gentle.json", "--steps", "12"], "trivext.extend"),
        # T(kron3) takes the Coxeter orbit, and its verdict classifies the quiver
        (["trivext", "kron3.json", "--steps", "12"], "quiver.classify"),
    ],
    ids=["entropy", "trivext", "trivext-koszul"],
)
def test_replay_runs_the_cli_and_times_its_layers(tmp_path, monkeypatch, capsys, argv, layer):
    # the commands import their layers when they run, so the replay must
    # still see its wrappers there
    (tmp_path / "kron3.json").write_text(KRONECKER3_DOC, encoding="utf-8")
    (tmp_path / "gentle.json").write_text(GENTLE_TWO_LOOP_DOC, encoding="utf-8")
    replay = bench_module("replay")
    tracer = replay.Tracer()
    got = replay.run(tracer, [*argv, "--json"], tmp_path)
    monkeypatch.chdir(tmp_path)
    status = cli.main([*argv, "--json"])
    out, err = capsys.readouterr()
    assert got == (status, out.encode("utf-8"), err)
    assert status == 0
    assert [span for span in tracer.spans if span[0] == layer]
