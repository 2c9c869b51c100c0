"""Tests of the benchmark itself. Run from the root of a ghd checkout:

    python3 perfbench/test_perfbench.py

They build the binaries like a benchmark run does (a no-op when built).
"""

import os
import shutil
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

ROOT = os.getcwd()
GHD, PROBE = run.build(ROOT)
BASE = os.path.join(ROOT, ".bench_work", "base")


CONTEXTS = []


def ctx_for(workload, seed, workdir):
    CONTEXTS.append(run.Ctx(workload, seed, GHD, PROBE, workdir, BASE))
    return CONTEXTS[-1]


class BenchTest(unittest.TestCase):
    def setUp(self):
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="test-", dir=os.path.join(ROOT, ".bench_work"))

    def tearDown(self):
        while CONTEXTS:
            CONTEXTS.pop().close()
        shutil.rmtree(self.tmp)

    def workdir(self, name):
        path = os.path.join(self.tmp, name)
        os.makedirs(path)
        return path

    def inputs_of(self, workload, seed, name):
        """Every input byte the workload sends, for one seed."""
        ctx = ctx_for(workload, seed, self.workdir(name))
        if workload == "serve-blocks":
            ctx.pool = [run.inputs.parse_dimacs(run.inputs.base_text(GHD, s, BASE)) for s in run.BLOCK_POOL]
            ctx.block_width = [0] * len(ctx.pool)
            ctx.seen, ctx.chains = set(), []
            ctx.chain_rng = run.random.Random("%s:%d:chains" % (workload, seed))
            return [run.chain_at(ctx, i)[0] for i in range(50)]
        entries = run.CLI_LARGE if workload == "cli-large" else run.WARM_HITS
        tasks = run.make_tasks(ctx, entries, "t")
        order = run.inputs.weighted_cycle(entries, ctx.rng, 3)
        return [run.read(t.path) for t in tasks] + [str(order)]

    def test_same_seed_gives_identical_inputs(self):
        for w in run.WORKLOADS:
            a = self.inputs_of(w, 7, w + "-a")
            b = self.inputs_of(w, 7, w + "-b")
            c = self.inputs_of(w, 8, w + "-c")
            self.assertEqual(a, b, w)
            self.assertNotEqual(a, c, w)

    def test_no_reference_solve_expires_its_budget(self):
        # each prepare raises unless every reference answer is exact and
        # certified; serve-blocks also checks chains against a full solve
        for w in run.WORKLOADS:
            ctx = ctx_for(w, 3, self.workdir(w))
            run.PREPARE[w](ctx)
            if w != "serve-blocks":
                self.assertTrue(all(r["exact"] and r["certified"] for r in ctx.refs.values()), w)

    def test_setup_boots_replay_the_unchanged_boot_log(self):
        # the serving daemon appends every chain it is sent; set-up boots
        # spread over the run must still replay the log as prepared, or
        # set-up would grow with the requests sent before it
        ctx = ctx_for("serve-blocks", 6, self.workdir("blocks"))
        run.PREPARE["serve-blocks"](ctx)
        with open(ctx.boot_log, "rb") as f:
            before = f.read()
        e2e, _ = run.blocks_run(ctx, 3.0, False)
        with open(ctx.boot_log, "rb") as f:
            self.assertEqual(f.read(), before)
        self.assertGreater(e2e["setup_s"][0], 0.0)
        self.assertEqual(ctx.failed, 0)

    def test_persistent_and_connection_samples_are_not_pooled(self):
        # a hit over a new connection waits for the accept loop (~20 ms),
        # one over the persistent connection takes about a millisecond: the
        # end-to-end figures must come from the persistent stream alone
        ctx = ctx_for("serve-warm", 5, self.workdir("warm"))
        run.PREPARE["serve-warm"](ctx)
        persistent, connect = [], []
        serve_loop, one_shot = run.serve_loop, run.one_shot

        def spy_loop(*args):
            out = serve_loop(*args)
            persistent.extend(out[0])
            return out

        def spy_one_shot(port, line):
            out = one_shot(port, line)
            if '"ping"' not in line:
                connect.append(out[0])
            return out

        run.serve_loop, run.one_shot = spy_loop, spy_one_shot
        try:
            e2e, serve = run.warm_run(ctx, 4.0, True)
        finally:
            run.serve_loop, run.one_shot = serve_loop, one_shot
        self.assertTrue(persistent and connect)
        cpu = [s[3] for s in persistent]
        self.assertEqual(e2e["cpu_p50_s"][0], run.statistics.median(cpu))
        self.assertEqual(e2e["cpu_p90_s"][0], run.pct(cpu, 0.9))
        self.assertEqual(e2e["requests_per_cpu_s"][0], len(cpu) / sum(cpu))
        self.assertEqual(serve["serve.connect_p50_s"], run.statistics.median(connect))
        self.assertLess(run.statistics.median(s[0] for s in persistent), serve["serve.connect_p50_s"])
        self.assertEqual(ctx.failed, 0)

    def test_speed_scales_each_sample_by_the_references_around_it(self):
        class Fixed:
            def __init__(self, timings):
                self.timings = list(timings)

            def reference(self):
                return self.timings.pop(0)

        speed = run.Speed(Fixed([run.REF_S, 3 * run.REF_S, 2 * run.REF_S]))
        speed.tick()
        speed.add(1.0)
        speed.last = None  # as if TICK_S had passed
        speed.tick()
        speed.add(4.0)
        speed.add(6.0)
        for got, want in zip(speed.scaled(), [0.5, 1.6, 2.4], strict=True):
            self.assertAlmostEqual(got, want)
        self.assertEqual(speed.scaled(), [])

if __name__ == "__main__":
    unittest.main()
