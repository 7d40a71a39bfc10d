"""The repository benchmark's traced patch points still resolve.

``perfbench/run.py --trace 1`` wraps library functions and methods by
name, and ``LayerTracer.replace`` reads a class attribute from the class's
own ``__dict__``. A method moved to a base class or renamed would raise
``KeyError`` only in the traced benchmark run. Here each workload's
``_install`` runs on a fresh tracer and is undone, and every attribute it
patched must be wrapped while installed and come back as it was.
"""

import importlib
import os
import sys

import pytest

PERFBENCH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench"
)


def _import(name):
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)


def _current(owner, attribute):
    if isinstance(owner, type):
        return owner.__dict__[attribute]
    return getattr(owner, attribute)


@pytest.mark.parametrize("workload", ["message_passing", "decentralized_n1024"])
def test_patch_points_resolve_and_restore(workload):
    install = _import(workload)._install
    tracer = _import("common").LayerTracer()
    try:
        install(tracer)
        patched = list(tracer._patches)
        wrapped = [_current(owner, attribute) is not original
                   for owner, attribute, original in patched]
    finally:
        tracer.restore()
    assert patched and all(wrapped)
    for owner, attribute, original in patched:
        assert _current(owner, attribute) is original, (owner, attribute)
