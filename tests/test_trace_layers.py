"""The benchmark's traced runs wrap package functions by name: each must resolve."""

import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_every_traced_layer_resolves_in_the_package(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "bench"))
    layers = importlib.import_module("spans").LAYERS
    assert layers
    for mod_name, fn_name, _ in layers:
        module = importlib.import_module(f"embalign.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"embalign.{mod_name}.{fn_name}"
