"""Self-time arithmetic and the tracer's wrapping, on hand-built inputs.

Run with: python3 -m pytest benchmarks/test_spans.py
"""

import json
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from spans import Tracer, self_times, totals_by_run  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def test_self_time_subtracts_children_once():
    # 0 root [0, 10]
    # |- 1 [1, 3]
    # |- 2 [2, 5]        overlaps 1: [1, 5] is covered once
    # |  `- 4 [2.5, 3]   a grandchild does not touch the root
    # `- 3 [9, 12]       runs past the root's end: clipped to [9, 10]
    parent = [-1, 0, 0, 0, 2]
    start = [0.0, 1.0, 2.0, 9.0, 2.5]
    end = [10.0, 3.0, 5.0, 12.0, 3.0]
    assert self_times(parent, start, end) == pytest.approx([5.0, 2.0, 2.5, 3.0, 0.5])


def test_self_time_ignores_span_order():
    parent = [-1, 0, 0]
    start = [0.0, 6.0, 1.0]
    end = [10.0, 8.0, 4.0]
    assert self_times(parent, start, end) == pytest.approx([5.0, 2.0, 3.0])


def test_totals_sum_self_time_per_name():
    tracer = Tracer()
    tracer.begin_run("r")
    tracer.begin_run("s")
    for name, parent, run, lo, hi in (("a.f", -1, 0, 0.0, 4.0), ("b.g", 0, 0, 1.0, 2.0),
                                      ("b.g", 0, 0, 2.5, 3.0), ("b.g", -1, 1, 5.0, 6.0)):
        tracer.name.append(tracer.name_id(name))
        tracer.parent.append(parent)
        tracer.run.append(run)
        tracer.start.append(lo)
        tracer.end.append(hi)
    own = self_times(tracer.parent, tracer.start, tracer.end)
    assert totals_by_run(tracer, own) == {
        0: {"a.f": [1, 2.5, 4.0], "b.g": [2, 1.5, 1.5]},
        1: {"b.g": [1, 1.0, 1.0]}}


def test_install_wraps_imported_bindings_and_uninstall_restores():
    lib = types.ModuleType("pkg.lib")

    def leaf(x):
        return x + 1

    leaf.__module__ = "pkg.lib"
    lib.leaf = leaf
    user = types.ModuleType("pkg.user")
    user.leaf = leaf  # a `from .lib import leaf` binding

    def caller(x):
        return user.leaf(x) * 2

    caller.__module__ = "pkg.user"
    user.caller = caller

    tracer = Tracer()
    tracer.begin_run("r")
    tracer.install([lib, user])
    assert user.caller(1) == 4
    tracer.uninstall()
    assert lib.leaf is leaf and user.leaf is leaf and user.caller is caller
    names = [tracer.names[i] for i in tracer.name]
    assert names == ["user.caller", "lib.leaf"]
    assert list(tracer.parent) == [-1, 0]


def test_benchmark_json_lists_the_metrics_run_py_reports():
    import layers
    import run
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.metric_units()
