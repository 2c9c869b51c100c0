#!/usr/bin/env python3
"""The ghd benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a ghd checkout. It builds the release `ghd` binary
and the in-process `perfprobe` companion (into $CARGO_TARGET_DIR, default
`.bench_build`), makes the workload's inputs from the seed, computes every
expected answer in-process, then measures the `ghd` binary from outside
for S seconds with one closed-loop client. Times are CPU seconds of the
`ghd` processes, scaled to a fixed machine speed by a reference
computation timed between requests (see `Speed`). With `--trace 1` it spends half
of S on the same untraced loop and half on the traced in-process pass, and
reports per-layer metrics instead of end-to-end ones. The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
Work files go to `.bench_work/`.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from collections import namedtuple

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import layers  # noqa: E402
from ghdproc import BenchError, Calibrator, Daemon, one_shot, run_process, solve_line  # noqa: E402

Entry = namedtuple("Entry", "cmd spec method weight")

# Each pool is sent as a seeded shuffle of a multiset in which an entry
# appears `weight` times. The weights put p50 and p90 of the mix inside one
# entry's cluster of latencies, not on the edge between two clusters,
# where a small shift of either would move the percentile a lot.

# cli-large: large instances of small width. Search expands few nodes, so
# parsing, separators, bounds and certification carry much of the cost.
CLI_LARGE = [
    Entry("ghw", "adder 150", "astar", 4),
    Entry("ghw", "adder 200", "bb", 4),
    Entry("ghw", "bridge 80", "astar", 2),
    Entry("ghw", "bridge 100", "bb", 2),
    Entry("ghw", "clique 40", "astar", 2),
    Entry("ghw", "clique 50", "bb", 2),
    # its A* search expands ~900 nodes, so the cover cache is used
    Entry("ghw", "grid2d-h 6", "astar", 2),
    Entry("tw", "chain 24 queen 4", "bb", 2),
    Entry("tw", "chain 40 myciel 3", "bb", 2),
]

# serve-warm: replayed cache hits on instances of 0.4-30 KB.
WARM_HITS = [
    Entry("tw", "gnm 20 50 3", "astar", 4),
    Entry("ghw", "clique 10", "astar", 2),
    Entry("tw", "queen 5", "astar", 2),
    Entry("tw", "myciel 4", "bb", 2),
    Entry("ghw", "adder 50", "bb", 2),
    Entry("ghw", "bridge 50", "astar", 2),
    Entry("ghw", "clique 30", "bb", 2),
    Entry("ghw", "adder 100", "astar", 2),
    Entry("ghw", "clique 40", "bb", 2),
    Entry("ghw", "bridge 100", "astar", 2),
    Entry("ghw", "adder 200", "bb", 4),
]
# The rest of the multi-MB boot log: complete graphs with their
# decompositions, cheap to solve and large on disk.
WARM_BULK_SIZES = range(40, 101)

# serve-blocks: chains of 3-4 blocks drawn from this pool, each holding at
# least one queen 5, which sets the chain's width. Where a smaller block
# sets it, the whole-instance witness search can run past the 10 s solve
# budget (seen with myciel 4 and with gnm-only chains), and a
# budget-capped request times the budget, not the program.
BLOCK_POOL = ["queen 5", "gnm 24 60 7", "gnm 20 50 3", "myciel 4"]
QUEEN = 0
BLOCKS_CACHE_MB = 4
# the first chains of the stream make up the daemon's boot log; the timed
# stream starts after them, so every chain it sends is a miss
BLOCK_LOG_CHAINS = 300

# Set-up is sampled in SETUP_SEGMENTS bursts spread over the timed loop,
# not in one burst before it: a shared machine's speed can drift within a
# run, and set-up should see the same drift as the requests.
SETUP_SEGMENTS = 12
SETUP_BOOTS = 2
SETUP_SPAWNS = 10
TRIVIAL_GRAPH = "p edge 2 1\ne 1 2\n"

WORKLOADS = ["cli-large", "serve-warm", "serve-blocks"]

# CPU seconds `perfprobe calibrate` spends on one reference run, timed
# between requests as the loops time it, on the machine the bounds were
# set on (a 2-vCPU Intel Xeon VM at 2.0 GHz: a median of 3.64 ms over
# runs of cli-large and serve-warm, rounded); and the longest the loops go
# between two reference runs.
REF_S = 0.0036
TICK_S = 0.010

Task = namedtuple("Task", "key cmd path args")


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def pct(xs, q):
    """Linear-interpolated percentile, q in [0, 1]."""
    s = sorted(xs)
    if not s:
        raise BenchError("no samples")
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


class Speed:
    """Follows the speed of the machine. The reference work is timed at
    least every TICK_S between requests, and each CPU-time sample is scaled
    by REF_S over the mean of the reference timings just before and just
    after it. The samples then read in CPU seconds of the machine REF_S was
    set on: on a shared host the speed of a virtual CPU drifts by tens of
    percent within seconds, and the scaled samples do not follow it.
    Taking CPU time rather than wall time also leaves out time the virtual
    CPU spends descheduled by its host."""

    def __init__(self, cal):
        self.cal = cal
        self.refs = []
        self.raw = []  # (cpu_s, index of the reference timing before it)
        self.last = None

    def tick(self):
        """Times the reference if TICK_S has passed since the last time."""
        if self.last is None or time.perf_counter() - self.last >= TICK_S:
            self.refs.append(self.cal.reference())
            self.last = time.perf_counter()

    def add(self, cpu_s):
        self.raw.append((cpu_s, len(self.refs) - 1))

    def scaled(self):
        """Closes the series with a last reference timing and returns the
        samples since the previous call, scaled."""
        if self.raw and self.raw[-1][1] == len(self.refs) - 1:
            self.last = None
            self.tick()
        out = [c * 2.0 * REF_S / (self.refs[k] + self.refs[k + 1]) for c, k in self.raw]
        self.raw = []
        return out


# ---------------------------------------------------------------------------
# build and run record

def build(root):
    if not (os.path.isfile(os.path.join(root, "Cargo.toml"))
            and os.path.isfile(os.path.join(root, "crates", "cli", "Cargo.toml"))):
        raise BenchError("run from the root of a ghd checkout (no Cargo.toml / crates/cli here)")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for argv in (["cargo", "build", "--release", "--offline", "-p", "ghd-cli", "--bin", "ghd"],
                 ["cargo", "build", "--release", "--offline", "--manifest-path",
                  os.path.join(HERE, "probe", "Cargo.toml")]):
        r = subprocess.run(argv, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(argv))
    return os.path.join(target, "release", "ghd"), os.path.join(target, "release", "perfprobe")


def run_record(root):
    """What was measured and where: revision, source digest, cores."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return {"git_revision": rev, "source_sha256": h.hexdigest(), "nproc": os.cpu_count(),
            "python": sys.version.split()[0]}


# ---------------------------------------------------------------------------
# inputs and references

class Ctx:
    def __init__(self, workload, seed, ghd, probe, workdir, basedir):
        self.workload = workload
        self.seed = seed
        self.ghd = ghd
        self.probe = probe
        self.workdir = workdir
        self.basedir = basedir
        self.rng = random.Random("%s:%d" % (workload, seed))
        self.attempted = 0
        self.failed = 0
        self.next_req = 0  # index of the next request of the timed stream
        self.cal = Calibrator(probe)

    def close(self):
        self.cal.close()

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)


def block_spec_text(ctx, spec):
    """Base text of a pool spec; `chain K family params` glues K copies."""
    words = spec.split()
    if words[0] != "chain":
        return inputs.base_text(ctx.ghd, spec, ctx.basedir)
    block = inputs.parse_dimacs(inputs.base_text(ctx.ghd, " ".join(words[2:]), ctx.basedir))
    return inputs.chain([block] * int(words[1]), random.Random(spec))


def make_tasks(ctx, entries, name):
    """One seeded copy per entry, written under inputs/; returns tasks."""
    os.makedirs(ctx.path("inputs"), exist_ok=True)
    tasks = []
    for i, e in enumerate(entries):
        if e.spec.startswith("chain "):
            text = inputs.reorder_graph(block_spec_text(ctx, e.spec), ctx.rng)
        else:
            text = inputs.variant(ctx.ghd, e.cmd, e.spec, ctx.rng, ctx.basedir)
        path = ctx.path("inputs", "%s-%02d.%s" % (name, i, "hg" if e.cmd == "ghw" else "col"))
        with open(path, "w") as f:
            f.write(text)
        tasks.append(Task("%s-%02d %s %s %s" % (name, i, e.cmd, e.spec, e.method), e.cmd, path,
                          ["--method", e.method]))
    return tasks


def write_tasks(path, tasks):
    with open(path, "w") as f:
        for t in tasks:
            f.write("%s\t%s\t%s\t%s\n" % (t.key, t.cmd, t.path, " ".join(t.args)))


def references(ctx, tasks, name):
    """Expected answers from the in-process solve path. Every one must be
    exact (no budget expired) and certified."""
    listing = ctx.path(name + ".tsv")
    write_tasks(listing, tasks)
    r = subprocess.run([ctx.probe, "reference", listing], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("reference solve failed: " + r.stderr.strip())
    refs = {}
    for line in r.stdout.splitlines():
        d = json.loads(line)
        if not (d["exact"] and d["certified"] and d["cacheable"]):
            raise BenchError("reference for %s is not exact and certified" % d["key"])
        refs[d["key"]] = d
    if len(refs) != len(tasks):
        raise BenchError("reference solve answered %d of %d tasks" % (len(refs), len(tasks)))
    return refs


def read(path):
    with open(path) as f:
        return f.read()


# ---------------------------------------------------------------------------
# one-shot CLI workloads

def cli_prepare(ctx):
    ctx.tasks = make_tasks(ctx, CLI_LARGE, ctx.workload)
    ctx.order = inputs.weighted_cycle(CLI_LARGE, ctx.rng, 200)
    ctx.refs = references(ctx, ctx.tasks, "reference")


def cli_setup(ctx):
    """Start-up cost of `ghd` processes: spawn, solve a one-edge graph, exit."""
    trivial = ctx.path("trivial.col")
    with open(trivial, "w") as f:
        f.write(TRIVIAL_GRAPH)
    speed = Speed(ctx.cal)
    for _ in range(SETUP_SPAWNS):
        speed.tick()
        _, code, out, _, cpu = run_process([ctx.ghd, "tw", trivial], ctx.path("trivial.stderr"))
        if code != 0 or "width = 1 (exact)" not in out:
            raise BenchError("trivial solve failed: %r" % out)
        speed.add(cpu)
    return speed.scaled()


def cli_loop(ctx, seconds):
    """Closed loop of one-shot processes; returns ((key, wall latency)
    samples, their scaled CPU times, elapsed, peak rss kb)."""
    lat, rss = [], 0
    speed = Speed(ctx.cal)
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        t = ctx.tasks[ctx.order[ctx.next_req % len(ctx.order)]]
        ctx.next_req += 1
        ctx.attempted += 1
        speed.tick()
        wall, code, out, rss_kb, cpu = run_process([ctx.ghd, t.cmd, t.path, *t.args], ctx.path("cli.stderr"))
        if code != 0:
            ctx.failed += 1
            log("%s exited %d: %s" % (t.key, code, read(ctx.path("cli.stderr")).strip()))
            continue
        if out != ctx.refs[t.key]["body"]:
            raise BenchError("wrong answer for %s: %r" % (t.key, out))
        lat.append((t.key, wall))
        speed.add(cpu)
        rss = max(rss, rss_kb)
    elapsed = time.perf_counter() - t0
    return lat, speed.scaled(), elapsed, rss


def with_setups(seconds, setup, loop):
    """Runs `loop(s)` for `seconds` of loop time in SETUP_SEGMENTS parts,
    with one `setup()` burst of samples before each part. Returns (the
    loop results, the set-up samples); set-up time is not loop time."""
    results, setups = [], []
    for _ in range(SETUP_SEGMENTS):
        setups.extend(setup())
        results.append(loop(seconds / SETUP_SEGMENTS))
    return results, setups


def cli_run(ctx, seconds):
    parts, setups = with_setups(seconds, lambda: cli_setup(ctx), lambda s: cli_loop(ctx, s))
    lat = [x for p in parts for x in p[0]]
    cpu = [x for p in parts for x in p[1]]
    elapsed = sum(p[2] for p in parts)
    rss = max(p[3] for p in parts)
    m, wall = e2e(cpu, [s for _, s in lat], elapsed, rss, setups)
    return m, {"wall": wall, "entries": by_entry(zip((k for k, _ in lat), cpu))}


def by_entry(tagged):
    """Median scaled CPU time and sample count of each pool entry: where
    p50 and p90 of the mix fall."""
    out = {}
    for key, s in tagged:
        out.setdefault(key, []).append(s)
    return {k: {"median_cpu_s": statistics.median(v), "samples": len(v)} for k, v in sorted(out.items())}


def e2e(cpu, lat, elapsed, rss_kb, setups):
    """End-to-end metrics from the scaled CPU times `cpu` of the requests;
    `setup_s` only where set-up was sampled (traced runs report per-layer
    metrics and sample none). The wall-clock figures `lat` and `elapsed`
    go only to the run record: on a shared host they follow its load."""
    m = {
        "cpu_p50_s": (statistics.median(cpu), "s"),
        "cpu_p90_s": (pct(cpu, 0.9), "s"),
        "requests_per_cpu_s": (len(cpu) / sum(cpu), "1/s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    if setups:
        m["setup_s"] = (statistics.median(setups), "s")
    wall = {"wall_p50_s": statistics.median(lat), "wall_p90_s": pct(lat, 0.9),
            "wall_throughput_per_s": len(lat) / elapsed}
    return m, wall


# ---------------------------------------------------------------------------
# daemon workloads

def check_reply(ctx, resp, ref_digest, key, want_hit):
    """Counts a failed reply; aborts on a wrong or uncertified answer."""
    if not resp.get("ok"):
        ctx.failed += 1
        log("%s: %s (code %s)" % (key, resp.get("error"), resp.get("code")))
        return False
    if inputs.fnv1a(resp["body"]) != ref_digest:
        raise BenchError("wrong answer for %s: %r" % (key, resp["body"]))
    if not (resp.get("exact") and resp.get("certified")):
        raise BenchError("answer for %s not exact and certified" % key)
    if resp.get("cache_hit") != want_hit:
        raise BenchError("%s: cache_hit=%s, expected %s" % (key, resp.get("cache_hit"), want_hit))
    if want_hit and resp.get("nodes_expanded") != 0:
        raise BenchError("%s: a cache hit expanded %s nodes" % (key, resp.get("nodes_expanded")))
    return True


def serve_loop(ctx, d, seconds, next_request, want_hit):
    """Closed loop over the persistent connection to daemon `d`.
    `next_request(i)` gives (key, line, digest) of the stream's i-th
    request. Returns samples of (round trip, wall_s, queue_wait_s, scaled
    CPU time), their request keys, and the elapsed time. A request's CPU
    time is all the daemon used since the reply before it, so work it does
    after replying is counted once, with the next request."""
    samples, keys = [], []
    speed = Speed(ctx.cal)
    speed.tick()
    cpu0 = d.cpu_s()
    t0 = time.perf_counter()
    while time.perf_counter() - t0 < seconds:
        key, line, digest = next_request(ctx.next_req)
        ctx.next_req += 1
        ctx.attempted += 1
        speed.tick()
        rt, resp = d.conn.roundtrip(line)
        cpu1 = d.cpu_s()
        if check_reply(ctx, resp, digest, key, want_hit):
            samples.append((rt, resp.get("wall_s", 0.0), resp.get("queue_wait_s", 0.0)))
            keys.append(key)
            speed.add(cpu1 - cpu0)
        cpu0 = cpu1
    elapsed = time.perf_counter() - t0
    return [s + (c,) for s, c in zip(samples, speed.scaled())], keys, elapsed


def serve_layers(ctx, daemon, samples, connect_lat):
    """serve.* metrics: from response fields, pings and per-connection hits."""
    persist, fresh = [], []
    for _ in range(20):
        persist.append(daemon.conn.roundtrip('{"cmd": "ping"}')[0])
        fresh.append(one_shot(daemon.port, '{"cmd": "ping"}')[0])
    rts = [s[0] for s in samples]
    # the daemon reports queue_wait_s and wall_s in whole microseconds:
    # means keep the digits a median of rounded values would lose
    return {
        "serve.accept_wait_s": statistics.median(fresh) - statistics.median(persist),
        "serve.wire_s": statistics.mean(s[0] - s[1] - s[2] for s in samples),
        "serve.server_s": statistics.mean(s[1] + s[2] for s in samples),
        "serve.queue_wait_s": statistics.mean(s[2] for s in samples),
        "serve.connect_p50_s": statistics.median(connect_lat),
        "serve.connect_p90_s": pct(connect_lat, 0.9),
        "trace.untraced_latency_s": statistics.mean(rts),
    }


def write_boot_log(ctx, path, requests):
    """An untimed daemon session writes the cache log that set-up replays:
    every request, given as (key, line, digest), is a miss that is solved,
    admitted and appended."""
    d = Daemon(ctx.ghd, ctx.workdir, "prep", ["--log", path])
    try:
        d.wait_ready()
        for key, line, digest in requests:
            _, resp = d.conn.roundtrip(line)
            if not check_reply(ctx, resp, digest, key, False):
                raise BenchError("preparation solve failed for %s" % key)
        d.shutdown()
    finally:
        d.kill()
    ctx.boot_log, ctx.records = path, len(requests)
    log("boot log: %d records, %d bytes" % (ctx.records, os.path.getsize(path)))


def boot(ctx, name, log_path, flags):
    """Spawns a daemon on `log_path`. Returns it and the CPU seconds it
    used from spawn until it answered its first ping, which it does once
    it has replayed the log."""
    d = Daemon(ctx.ghd, ctx.workdir, name, ["--log", log_path, *flags])
    try:
        d.wait_ready()
        ready = d.cpu_s()
        line = "cache-log replayed %d entries (0 rejected by verification)" % ctx.records
        if line not in read(d.err_path):
            raise BenchError("%s: boot did not replay the log cleanly: %s" % (name, read(d.err_path)))
    except BaseException:
        d.kill()
        raise
    return d, ready


def boot_samples(ctx, flags):
    """Set-up samples: boots on the boot log, each pinged and drained."""
    speed = Speed(ctx.cal)
    for _ in range(SETUP_BOOTS):
        speed.tick()
        d, ready = boot(ctx, "boot", ctx.boot_log, flags)
        try:
            d.shutdown()
        finally:
            d.kill()
        speed.add(ready)
    return speed.scaled()


def serve_daemon(ctx, flags):
    """The daemon of the timed stream. It boots on a copy of the boot log,
    since it may append, and set-up boots must all replay the same log."""
    path = ctx.path("serve.cachelog")
    shutil.copyfile(ctx.boot_log, path)
    return boot(ctx, "serve", path, flags)[0]


def serve_stream(ctx, d, seconds, next_request, want_hit, flags, trace):
    """The timed stream to `d`; untraced, with set-up boots spread over it.
    Returns (samples, keys, elapsed) as `serve_loop` does, and the set-up
    samples."""
    def loop(s):
        return serve_loop(ctx, d, s, next_request, want_hit)
    if trace:
        return loop(seconds), []
    parts, setups = with_setups(seconds, lambda: boot_samples(ctx, flags), loop)
    samples = [x for p in parts for x in p[0]]
    keys = [k for p in parts for k in p[1]]
    return (samples, keys, sum(p[2] for p in parts)), setups


def warm_prepare(ctx):
    ctx.tasks = make_tasks(ctx, WARM_HITS, "hit")
    os.makedirs(ctx.path("inputs"), exist_ok=True)
    bulk = []
    for n in WARM_BULK_SIZES:
        text = inputs.variant(ctx.ghd, "tw", "complete %d" % n, ctx.rng, ctx.basedir)
        path = ctx.path("inputs", "bulk-%03d.col" % n)
        with open(path, "w") as f:
            f.write(text)
        for method in ("astar", "bb"):
            bulk.append(Task("bulk-%03d tw complete %d %s --td" % (n, n, method), "tw", path,
                             ["--method", method, "--td"]))
    ctx.order = inputs.weighted_cycle(WARM_HITS, ctx.rng, 2000)
    ctx.refs = references(ctx, ctx.tasks + bulk, "reference")
    ctx.texts = {t.key: read(t.path) for t in ctx.tasks}
    write_boot_log(ctx, ctx.path("warm.cachelog"),
                   [(t.key, solve_line(i, t.cmd, read(t.path), t.args), ctx.refs[t.key]["digest"])
                    for i, t in enumerate(bulk + ctx.tasks)])


def warm_request(ctx, i):
    t = ctx.tasks[ctx.order[i % len(ctx.order)]]
    return t.key, solve_line(i, t.cmd, ctx.texts[t.key], t.args), ctx.refs[t.key]["digest"]


def warm_run(ctx, seconds, trace):
    """Replayed hits to a daemon booted on the log; untraced, set-up boots
    on the same log are spread over the run."""
    d = serve_daemon(ctx, [])
    try:
        (samples, keys, elapsed), setups = serve_stream(
            ctx, d, seconds * (0.8 if trace else 1.0), lambda i: warm_request(ctx, i), True, [], trace)
        extra = by_entry(zip(keys, (s[3] for s in samples)))
        if trace:
            connect = []
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < seconds * 0.2:
                key, line, digest = warm_request(ctx, ctx.next_req)
                ctx.next_req += 1
                ctx.attempted += 1
                rt, resp = one_shot(d.port, line)
                if check_reply(ctx, resp, digest, key, True):
                    connect.append(rt)
            extra = serve_layers(ctx, d, samples, connect)
            extra["serve.cache_hit_rate"] = 1.0
        d.shutdown()
    finally:
        d.kill()
    # only the persistent stream: a new connection waits for the accept
    # loop, and pooling the two would swamp the persistent-connection tail
    m, wall = e2e([s[3] for s in samples], [s[0] for s in samples], elapsed, d.peak_rss_kb, setups)
    if not trace:
        extra = {"wall": wall, "entries": extra}
    return m, extra


def blocks_prepare(ctx):
    ctx.pool = [inputs.parse_dimacs(inputs.base_text(ctx.ghd, s, ctx.basedir)) for s in BLOCK_POOL]
    os.makedirs(ctx.path("inputs"), exist_ok=True)
    pool_tasks = []
    for i, spec in enumerate(BLOCK_POOL):
        path = ctx.path("inputs", "block-%d.col" % i)
        with open(path, "w") as f:
            f.write(inputs.base_text(ctx.ghd, spec, ctx.basedir))
        pool_tasks.append(Task("block-%d tw %s bb" % (i, spec), "tw", path, ["--method", "bb"]))
    refs = references(ctx, pool_tasks, "blocks")
    ctx.block_width = [refs[t.key]["width"] for t in pool_tasks]
    # warm-up: one chain holding every pool block
    ctx.warm_text = inputs.chain(ctx.pool, random.Random("warm-up"))
    ctx.seen = {ctx.warm_text}
    ctx.chain_rng = random.Random("%s:%d:chains" % (ctx.workload, ctx.seed))
    ctx.chains = []
    # the theorem behind the expected answers (treewidth of a cut-vertex
    # gluing is the maximum over the blocks), checked against the full
    # in-process solve on the first chains of the stream
    check = [chain_at(ctx, i) for i in range(3)]
    tasks = []
    for i, (text, _) in enumerate(check):
        path = ctx.path("inputs", "check-%d.col" % i)
        with open(path, "w") as f:
            f.write(text)
        tasks.append(Task("check-%d" % i, "tw", path, ["--method", "bb"]))
    full = references(ctx, tasks, "check")
    for t, (_, body) in zip(tasks, check):
        if full[t.key]["body"] != body:
            raise BenchError("chain reference disagrees with the full solve: %r vs %r"
                             % (body, full[t.key]["body"]))
    write_boot_log(ctx, ctx.path("blocks.cachelog"), [chain_request(ctx, i) for i in range(BLOCK_LOG_CHAINS)])


def chain_at(ctx, i):
    """The i-th distinct chain: (text, expected body)."""
    while len(ctx.chains) <= i:
        k = ctx.chain_rng.choice([3, 4])
        picks = [ctx.chain_rng.randrange(len(ctx.pool)) for _ in range(k)]
        if QUEEN not in picks:
            continue
        text = inputs.chain([ctx.pool[p] for p in picks], ctx.chain_rng)
        if text in ctx.seen:
            continue
        ctx.seen.add(text)
        n, edges = inputs.parse_dimacs(text)
        width = max(ctx.block_width[p] for p in picks)
        body = "graph: %d vertices, %d edges\nBB-tw: width = %d (exact)\n" % (n, len(edges), width)
        ctx.chains.append((text, body))
    return ctx.chains[i]


def chain_request(ctx, i):
    text, body = chain_at(ctx, i)
    return "chain-%d" % i, solve_line(i + 1, "tw", text, ["--method", "bb"]), inputs.fnv1a(body)


def blocks_request(ctx, i):
    """The i-th request of the timed stream: a chain after the boot log's."""
    return chain_request(ctx, BLOCK_LOG_CHAINS + i)


def blocks_run(ctx, seconds, trace):
    """Distinct chains to a daemon booted on the log, after an untimed
    warm-up chain put every pool block in its block cache; untraced,
    set-up boots on the same log are spread over the run."""
    # a response cache this small fills within seconds, so the daemon's
    # memory stops growing with the number of requests the run manages
    flags = ["--cache-mb", str(BLOCKS_CACHE_MB)]
    d = serve_daemon(ctx, flags)
    try:
        _, resp = d.conn.roundtrip(solve_line(0, "tw", ctx.warm_text, ["--method", "bb"]))
        if not (resp.get("ok") and resp.get("exact") and resp.get("certified")) or resp.get("cache_hit"):
            raise BenchError("warm-up failed: %r" % resp)
        (samples, _, elapsed), setups = serve_stream(
            ctx, d, seconds * (0.8 if trace else 1.0), lambda i: blocks_request(ctx, i), False, flags, trace)
        extra = {}
        if trace:
            # re-sent chains are whole-instance hits, one connection each;
            # newest first, since the small response cache evicts the oldest
            connect = []
            t0 = time.perf_counter()
            i = ctx.next_req
            while time.perf_counter() - t0 < seconds * 0.2 and i > 0:
                i -= 1
                key, line, digest = blocks_request(ctx, i)
                ctx.attempted += 1
                rt, resp = one_shot(d.port, line)
                if check_reply(ctx, resp, digest, key, True):
                    connect.append(rt)
            extra = serve_layers(ctx, d, samples, connect)
            extra["serve.cache_hit_rate"] = 0.0
        summary = d.shutdown()
    finally:
        d.kill()
    appended = "%d entries appended this session" % (len(samples) + 1)
    if appended not in read(d.err_path):
        raise BenchError("serve: expected %s in the access log" % appended)
    log(summary)
    m, wall = e2e([s[3] for s in samples], [s[0] for s in samples], elapsed, d.peak_rss_kb, setups)
    if not trace:
        extra = {"wall": wall}
    return m, extra


# ---------------------------------------------------------------------------
# traced pass

def cli_serve_probe(ctx):
    """serve.* numbers for the CLI workloads: their instances sent once to a
    daemon (misses) and once more over one connection each (hits)."""
    d = Daemon(ctx.ghd, ctx.workdir, "probe")
    try:
        d.wait_ready()
        samples, connect = [], []
        for i, t in enumerate(ctx.tasks):
            line = solve_line(i, t.cmd, read(t.path), t.args)
            ctx.attempted += 1
            rt, resp = d.conn.roundtrip(line)
            if check_reply(ctx, resp, ctx.refs[t.key]["digest"], t.key, False):
                samples.append((rt, resp["wall_s"], resp["queue_wait_s"]))
            ctx.attempted += 1
            rt, resp = one_shot(d.port, line)
            if check_reply(ctx, resp, ctx.refs[t.key]["digest"], t.key, True):
                connect.append(rt)
        extra = serve_layers(ctx, d, samples, connect)
        d.shutdown()
    finally:
        d.kill()
    extra["serve.cache_hit_rate"] = 0.0
    return extra


def traced_pass(ctx, seconds):
    """Runs `perfprobe trace` over the workload's requests; returns
    (per-layer metrics, summary)."""
    tasks_path = ctx.path("trace.tsv")
    extra = []
    if ctx.workload == "serve-blocks":
        os.makedirs(ctx.path("trace-inputs"), exist_ok=True)
        tasks, digests = [], {}
        for i in range(400):
            key, _, digest = blocks_request(ctx, i)
            path = ctx.path("trace-inputs", "chain-%03d.col" % i)
            with open(path, "w") as f:
                f.write(chain_at(ctx, BLOCK_LOG_CHAINS + i)[0])
            tasks.append(Task(key, "tw", path, ["--method", "bb"]))
            digests[key] = digest
        warm = ctx.path("inputs", "warm.col")
        with open(warm, "w") as f:
            f.write(ctx.warm_text)
        write_tasks(ctx.path("warm.tsv"), [Task("warm", "tw", warm, ["--method", "bb"])])
        extra = ["--warm", ctx.path("warm.tsv")]
    else:
        firsts = list(dict.fromkeys(ctx.order))
        tasks = [ctx.tasks[k] for k in firsts + ctx.order[:400]]
        digests = {t.key: ctx.refs[t.key]["digest"] for t in tasks}
    if ctx.workload == "serve-warm":
        extra = ["--replay", ctx.boot_log]
    write_tasks(tasks_path, tasks)
    spans_path = ctx.path("spans.jsonl")
    r = subprocess.run([ctx.probe, "trace", tasks_path, "--seconds", "%.3f" % seconds, "--spans", spans_path,
                        "--log", ctx.path("trace.cachelog"), *extra], capture_output=True, text=True)
    if r.returncode != 0:
        raise BenchError("traced pass failed: " + r.stderr.strip())
    spans = layers.read_spans(spans_path)
    for s in spans:
        if s["name"] == "cli.solve_text" and digests[s["key"]] != s["digest"]:
            raise BenchError("traced pass: wrong answer for %s" % s["key"])
    return layers.metrics(spans, ctx.workload)


# ---------------------------------------------------------------------------

PREPARE = {"cli-large": cli_prepare, "serve-warm": warm_prepare, "serve-blocks": blocks_prepare}


def measure(ctx, seconds, trace):
    """(metrics dict name -> (value, unit), extra record)."""
    if not trace:
        if ctx.workload.startswith("cli-"):
            return cli_run(ctx, seconds)
        run = warm_run if ctx.workload == "serve-warm" else blocks_run
        return run(ctx, seconds, False)
    half = seconds / 2.0
    if ctx.workload.startswith("cli-"):
        lat, _, _, _ = cli_loop(ctx, half)
        serve = cli_serve_probe(ctx)
        serve["trace.untraced_latency_s"] = statistics.mean(s for _, s in lat)
    else:
        run = warm_run if ctx.workload == "serve-warm" else blocks_run
        _, serve = run(ctx, half, True)
    m, summary = traced_pass(ctx, half)
    m.update(serve)
    m["trace.layer_sum_s"] = sum(summary["layer_mean_s"][k] for k in summary["on_path"])
    units = declared("per_layer")
    return {k: (v, units[k]) for k, v in m.items() if k in units}, summary


def declared(section):
    """Metric name -> unit, as BENCHMARK.json declares them."""
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec[section]}


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    root = os.getcwd()
    ghd, probe = build(root)
    record = run_record(root)
    log("run record: %s" % json.dumps(record))
    workdir = os.path.join(root, ".bench_work", "%s-s%d-t%d-%d" % (a.workload, a.seed, a.trace, os.getpid()))
    os.makedirs(workdir)
    ctx = Ctx(a.workload, a.seed, ghd, probe, workdir, os.path.join(root, ".bench_work", "base"))
    try:
        t0 = time.perf_counter()
        PREPARE[a.workload](ctx)
        log("prepared in %.2fs" % (time.perf_counter() - t0))
        metrics, extra = measure(ctx, a.seconds, bool(a.trace))
    finally:
        ctx.close()
    want = declared("per_layer" if a.trace else "end_to_end")
    if {k: u for k, (_, u) in metrics.items()} != want:
        raise BenchError("metrics %s do not match BENCHMARK.json %s" % (sorted(metrics), sorted(want)))
    result = {
        "correct": True,
        "attempted": ctx.attempted,
        "failed": ctx.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["reference_median_s"] = statistics.median(ctx.cal.timings)
    log("reference work: median %.6f s over %d runs (REF_S %.6f s)"
        % (record["reference_median_s"], len(ctx.cal.timings), REF_S))
    with open(os.path.join(workdir, "result.json"), "w") as f:
        json.dump({"args": vars(a), "record": record, "result": result, "detail": extra}, f, indent=1)
    if a.trace:
        log("layer summary: %s" % json.dumps(extra))
    # keep the record and the spans; the inputs and logs are regenerated
    # from the seed
    for sub in ("inputs", "trace-inputs"):
        shutil.rmtree(os.path.join(workdir, sub), ignore_errors=True)
    for f in os.listdir(workdir):
        if f.endswith((".cachelog", ".stderr", ".tsv")):
            os.remove(os.path.join(workdir, f))
    print(json.dumps(result))


if __name__ == "__main__":
    try:
        main()
    except BenchError as e:
        log("error: %s" % e)
        sys.exit(1)
