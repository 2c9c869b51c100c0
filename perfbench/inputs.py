"""Seeded workload inputs.

Every instance is a seeded copy of a base instance that `ghd gen` prints.
The copy has the same internal numbering as the base, so it costs the
program the same work, but different bytes: graph edges are listed in a
seeded order with seeded endpoint order, and hypergraph vertices and edges
get seeded names. The seed also fixes the order requests are sent in and
how blocks are glued into chains. The same seed gives byte-identical
files; the program under test only ever sees the generated files.
"""

import os
import random
import subprocess

# Families whose `ghd gen` output is a hypergraph (the rest are graphs).
HYPERGRAPH_FAMILIES = {"adder", "bridge", "clique", "grid2d-h", "grid3d-h", "circuit"}


def base_text(ghd, spec, cache_dir):
    """`ghd gen <spec>`, cached per spec (generation is deterministic)."""
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, spec.replace(" ", "_") + ".txt")
    if not os.path.exists(path):
        out = subprocess.run([ghd, "gen", *spec.split()], capture_output=True, text=True, check=True).stdout
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            f.write(out)
        os.replace(tmp, path)
    with open(path) as f:
        return f.read()


def parse_dimacs(text):
    """(n, edges) of a DIMACS `p edge` graph, 0-indexed."""
    n, edges = 0, []
    for line in text.splitlines():
        parts = line.split()
        if not parts:
            continue
        if parts[0] == "p":
            n = int(parts[2])
        elif parts[0] == "e":
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
    return n, edges


def write_dimacs(n, edges):
    return "p edge %d %d\n" % (n, len(edges)) + "".join("e %d %d\n" % (u + 1, v + 1) for u, v in edges)


def reorder_graph(text, rng):
    """The same graph with its edges listed in a seeded order."""
    n, edges = parse_dimacs(text)
    out = [(v, u) if rng.random() < 0.5 else (u, v) for u, v in edges]
    rng.shuffle(out)
    return write_dimacs(n, out)


def rename_hypergraph(text, rng):
    """The same hypergraph under seeded vertex and edge names. Vertices are
    numbered by first appearance, so the numbering does not change."""
    body = text.strip()
    assert body.endswith("."), "hypergraph text must end with `.`"
    names = {}

    def fresh(old, prefix):
        if old not in names:
            while True:
                name = prefix + "%06x" % rng.randrange(1 << 24)
                if name not in names.values():
                    break
            names[old] = name
        return names[old]

    lines = []
    for line in body[:-1].split("\n"):
        line = line.strip().rstrip(",")
        if not line:
            continue
        edge, args = line[:-1].split("(")
        vs = [fresh("v:" + v.strip(), "v") for v in args.split(",")]
        lines.append("%s(%s)" % (fresh("e:" + edge.strip(), "e"), ",".join(vs)))
    return ",\n".join(lines) + ".\n"


def variant(ghd, cmd, spec, rng, cache_dir):
    """A seeded copy of `ghd gen <spec>`."""
    text = base_text(ghd, spec, cache_dir)
    if spec.split()[0] in HYPERGRAPH_FAMILIES:
        assert cmd == "ghw", spec
        return rename_hypergraph(text, rng)
    assert cmd == "tw", spec
    return reorder_graph(text, rng)


def chain(blocks, rng):
    """Glues graph blocks into a chain at cut vertices.

    `blocks` is a list of (n, edges). Block i+1 is attached by identifying
    its vertex 0 with a seeded vertex of block i. Each block keeps its own
    vertex order, with the shared vertex first, so its compact text is the
    same in every chain and the daemon's block cache can recognise it.
    Treewidth of the result is the maximum over the blocks.
    """
    n_total, edges, prev = 0, [], None
    for n, bedges in blocks:
        if prev is None:
            ids = list(range(n))
        else:
            ids = [rng.choice(prev)] + list(range(n_total, n_total + n - 1))
        n_total += n if prev is None else n - 1
        edges.extend((ids[u], ids[v]) for u, v in bedges)
        prev = ids
    return write_dimacs(n_total, edges)


def weighted_cycle(entries, rng, rounds):
    """`rounds` shuffled copies of the multiset in which entry i appears
    `entries[i].weight` times, concatenated: every prefix of one cycle
    keeps the mix close to the intended proportions."""
    order = []
    for _ in range(rounds):
        cycle = [i for i, e in enumerate(entries) for _ in range(e.weight)]
        rng.shuffle(cycle)
        order.extend(cycle)
    return order


def fnv1a(text):
    """FNV-1a digest of the UTF-8 bytes, as `perfprobe` computes it."""
    h = 0xCBF29CE484222325
    for b in text.encode():
        h ^= b
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return "%016x" % h
