"""Self-tests of the benchmark harness.

    python3 bench/selftest.py

Kept out of the engine's test suite on purpose (the name does not match
``test_*.py``): the last test starts child processes and takes a few
seconds.
"""

from __future__ import annotations

import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from answers import parse_render  # noqa: E402
from nodalcat import nodal  # noqa: E402


def rosters():
    return {d: nodal.build_context(d).generators for d in range(2, 14)}


class PercentileRule(unittest.TestCase):
    def test_highest_percentile_with_ten_beyond(self):
        # 235 samples: p99 leaves 2 beyond, p95 leaves 11
        self.assertEqual(run.tail_percentile(range(235)), (95, 223, 11))
        # 1000 samples: p99 leaves exactly 10, p99.5 only 5
        self.assertEqual(run.tail_percentile(range(1000)), (99, 989, 10))
        # 20 samples: only the median leaves 10 beyond
        self.assertEqual(run.tail_percentile(range(20)), (50, 9, 10))

    def test_too_few_samples_fall_back_to_median(self):
        self.assertEqual(run.tail_percentile([5, 1, 3]), (50, 3, 1))


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # A [0,10] holds B [1,4] (which holds C [2,3]) and D [5,7]
        s = [["A", 0.0, 10.0, None, 0], ["B", 1.0, 4.0, 0, 0],
             ["C", 2.0, 3.0, 1, 0], ["D", 5.0, 7.0, 0, 0]]
        self.assertEqual(spans.self_times(s), [5.0, 2.0, 1.0, 2.0])

    def test_overlapping_children_are_merged(self):
        s = [["A", 0.0, 10.0, None, 0], ["B", 1.0, 5.0, 0, 0], ["C", 3.0, 8.0, 0, 0]]
        self.assertEqual(spans.self_times(s)[0], 3.0)

    def test_tracer_links_parents_and_phases(self):
        tracer = spans.Tracer()
        inner = tracer.wrap("quadric.chi_quadric", lambda x: x + 1)
        outer = tracer.wrap("nodal.verify_dim", lambda x: inner(x) * 2)
        self.assertEqual(outer(1), 4)
        tracer.op = 7
        outer(2)
        names = [(name, parent, op) for name, _, _, parent, op in tracer.spans]
        self.assertEqual(names, [("nodal.verify_dim", None, None), ("quadric.chi_quadric", 0, None),
                                 ("nodal.verify_dim", None, 7), ("quadric.chi_quadric", 2, 7)])
        layers = spans.summarize(tracer.spans, tracer.counts)["layers"]
        self.assertEqual(layers["nodal.verify_dim"]["calls"], 2)
        self.assertEqual(layers["nodal.verify_dim"]["setup_calls"], 1)


class Answers(unittest.TestCase):
    def test_runs_and_prefixes(self):
        text = "j*O + j*O + j*O(1) + j*S' + j*S'' + cone(j*S' -> j*O(1)[1] + j*O(1)[1])[-1]\n"
        self.assertEqual(parse_render(text), [
            [["g", "j*O", 0], 2], [["g", "j*O(1)", 0], 1], [["g", "j*S'", 0], 1],
            [["g", "j*S''", 0], 1],
            [["c", [[["g", "j*S'", 0], 1]], [[["g", "j*O(1)", 1], 2]], -1], 1],
        ])
        self.assertEqual(parse_render("0\n"), [])

    def test_oracle_rejects_a_wrong_mutation(self):
        argv = ["mutate", "--context", "nodal:5", "--dir", "right", "--through", "j*O(-1)", "j*S'(-1)"]
        check = oracle.QueryOracle().check
        right = {"rc": 0, "tree": parse_render("j*S''[-1]")}
        wrong = {"rc": 0, "tree": parse_render("j*S''")}
        self.assertEqual(check(argv, right), "ok")
        self.assertEqual(check(argv, wrong), "wrong")


class Seeds(unittest.TestCase):
    def test_same_seed_same_ops(self):
        r = rosters()
        for workload in run.WORKLOADS:
            self.assertEqual(workloads.make_ops(workload, 3, r), workloads.make_ops(workload, 3, r))

    def test_other_seed_other_script(self):
        r = rosters()
        self.assertNotEqual(workloads.make_ops("query-mix", 3, r),
                            workloads.make_ops("query-mix", 4, r))

    def test_same_seed_same_ratios(self):
        r = rosters()
        checker = run.Checker()
        ops = workloads.make_ops("query-mix", 5, r)
        ratios = []
        for _ in range(2):
            out, _, _ = run.run_child("query-mix", ops, traced=False)
            statuses = checker.statuses("query-mix", ops, out["records"])
            c = run.counts(statuses)
            ratios.append((c["fail_ratio"], c["undecided_ratio"]))
        self.assertEqual(ratios[0], ratios[1])
        self.assertGreater(ratios[0][1], 0)


if __name__ == "__main__":
    unittest.main()
