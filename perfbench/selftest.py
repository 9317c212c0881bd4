"""Self-test of the benchmark: `python3 perfbench/selftest.py` from the root
of a checkout.  Runs each workload on a few of its cheapest hosts."""

from __future__ import annotations

import json
import sys
import unittest
from pathlib import Path

import run
import tracing

# a few cheap hosts of each workload, by position in its host list
SMOKE_HOSTS = {
    "dense_sweep": (3, 4),
    "unit_route": (0, 1),
    "small_exhaustive": (2, 6, 7, 8, 9),
}


def smoke(workload: str, trace: bool) -> dict:
    picks = SMOKE_HOSTS[workload]
    return run.run(workload, 7, 0.0, trace,
                   hosts_filter=lambda hosts: [hosts[i] for i in picks])


def declared() -> dict:
    return json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def balsub_bindings() -> dict:
    """Every (module, name) -> object binding inside the imported package,
    plus the methods of Graph."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "balsub" or key.startswith("balsub."):
            for name, value in vars(module).items():
                out[(key, name)] = value
    graph = sys.modules["balsub.graph"].Graph
    for name, value in vars(graph).items():
        out[("Graph", name)] = value
    return out


class SmokeRuns(unittest.TestCase):
    def test_every_metric_is_emitted_with_its_unit(self):
        spec = declared()
        e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END_UNITS)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                plain = smoke(workload, trace=False)
                self.assertTrue(plain["correct"], plain["errors"])
                self.assertEqual(plain["failed"], 0)
                self.assertEqual(
                    {k: m["unit"] for k, m in plain["metrics"].items()}, e2e)
                self.assertEqual(plain["metrics"]["verified_rate"]["value"], 1.0)
                traced = smoke(workload, trace=True)
                self.assertTrue(traced["correct"], traced["errors"])
                self.assertEqual(
                    {k: m["unit"] for k, m in traced["metrics"].items()}, layers)

    def test_unit_route_never_calls_drc(self):
        traced = smoke("unit_route", trace=True)
        self.assertEqual(traced["metrics"]["drc.dense_tk2.calls"]["value"], 0)
        self.assertGreater(traced["metrics"]["gadgets.build_unit.calls"]["value"], 0)

    def test_counts_repeat_exactly(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                a, b = smoke(workload, False), smoke(workload, False)
                for name in ("k_sum", "verified_rate"):
                    self.assertEqual(a["metrics"][name], b["metrics"][name])
                a, b = smoke(workload, True), smoke(workload, True)
                counts = [k for k, m in a["metrics"].items() if m["unit"] == "count"]
                self.assertTrue(counts)
                for name in counts:
                    self.assertEqual(a["metrics"][name], b["metrics"][name], name)


class Restore(unittest.TestCase):
    def test_tracer_restores_every_binding(self):
        bs = run.fresh_import()
        hosts = run.build_hosts(bs, run.WORKLOADS["small_exhaustive"], 3)[6:]
        before = balsub_bindings()
        with tracing.Tracer() as tracer:
            self.assertIsNot(bs.assemble.dense_tk2, before[("balsub.assemble", "dense_tk2")])
            self.assertIsNot(bs.graph.Graph.induced, before[("Graph", "induced")])
            run.run_pass(bs, hosts, tracer)
        after = balsub_bindings()
        self.assertEqual(before.keys(), after.keys())
        for key, value in before.items():
            self.assertIs(after[key], value, key)
        self.assertTrue(tracer.spans)

    def test_traced_run_leaves_no_wrapper(self):
        smoke("small_exhaustive", trace=True)
        for key, value in balsub_bindings().items():
            self.assertFalse(hasattr(value, "__wrapped__"), key)


class Setup(unittest.TestCase):
    def test_missing_source_tree_is_refused(self):
        saved = run.SRC
        run.SRC = Path(run.BENCH / "no-such-src")
        try:
            with self.assertRaises(run.SetupError):
                run.fresh_import()
        finally:
            run.SRC = saved

    def test_seed_names_the_hosts(self):
        bs = run.fresh_import()
        wl = run.WORKLOADS["small_exhaustive"]
        a = [h.text for h in run.build_hosts(bs, wl, 5)]
        self.assertEqual(a, [h.text for h in run.build_hosts(bs, wl, 5)])
        self.assertNotEqual(a, [h.text for h in run.build_hosts(bs, wl, 6)])

    def test_tail_has_ten_samples_beyond_it(self):
        xs = [float(i) for i in range(40)]
        value, pct = run.tail(xs)
        self.assertEqual(sum(x > value for x in xs), 10)
        self.assertEqual(pct, 75.0)
        self.assertEqual(run.tail([3.0, 1.0, 2.0]), (3.0, 100.0))


if __name__ == "__main__":
    unittest.main()
