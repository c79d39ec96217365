"""The traced replay of `bench/run.py --trace 1` still finds every layer.

`bench/replay.py` wraps quiverlab functions and methods by name, so a
refactor that renames or removes one breaks the traced benchmark.  The
module is loaded read-only, without writing bytecode next to it.
"""
import importlib.util
import sys
from pathlib import Path

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
