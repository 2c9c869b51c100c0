"""Per-layer metrics from the traced pass's spans.

A span is one JSON object per line: id, parent, req, name, start_s, end_s
and optional attributes. A layer's self time is its span's duration minus
the part of that interval its child spans cover; times below are means
per traced request, so on-path layers add up to the traced request time.
"""

import json

# Span name -> per-layer time metric.
LAYER_TIMES = {
    "hypergraph.parse": "hypergraph.parse_s",
    "hypergraph.separators": "hypergraph.separators_s",
    "core.canon_key": "core.canon_key_s",
    "core.cache_probe": "core.cache_probe_s",
    "core.cachelog_append": "core.cachelog_append_s",
    "core.certify": "core.certify_s",
    "bounds.lower": "bounds.lower_s",
    "bounds.upper": "bounds.upper_s",
    "search.preprocess": "search.preprocess_s",
    "search.solve": "search.solve_s",
    "search.witness": "search.witness_s",
    "cli.solve_text": "cli.solve_text_s",
}

# The layers each workload's requests really pass through. The traced pass
# re-runs every layer on every workload's inputs; only these decide which
# layer dominates the workload.
ON_PATH = {
    "cli-large": ["hypergraph.parse", "hypergraph.separators", "search.preprocess", "bounds.lower",
                  "bounds.upper", "search.solve", "core.certify"],
    "serve-warm": ["hypergraph.parse", "core.canon_key", "core.cache_probe"],
    "serve-blocks": ["hypergraph.parse", "core.canon_key", "core.cache_probe", "hypergraph.separators",
                     "search.preprocess", "bounds.lower", "bounds.upper", "search.solve", "core.certify",
                     "core.cachelog_append"],
}


def read_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def self_times(spans):
    """Self time of every span, by span id."""
    child = {}
    for s in spans:
        if s["parent"]:
            child[s["parent"]] = child.get(s["parent"], 0.0) + s["end_s"] - s["start_s"]
    return {s["id"]: s["end_s"] - s["start_s"] - child.get(s["id"], 0.0) for s in spans}


def metrics(spans, workload):
    """(per-layer metrics, summary) of one traced pass."""
    selft = self_times(spans)
    reqs = sorted({s["req"] for s in spans if s["name"] == "request"})
    n = len(reqs)
    total = {name: 0.0 for name in LAYER_TIMES}
    by_req = {}
    for s in spans:
        if s["name"] in total:
            total[s["name"]] += selft[s["id"]]
            by_req.setdefault(s["req"], {}).setdefault(s["name"], 0.0)
            by_req[s["req"]][s["name"]] += selft[s["id"]]
    m = {LAYER_TIMES[k]: v / n for k, v in total.items()}

    def spans_named(name):
        return [s for s in spans if s["name"] == name]

    seps = spans_named("hypergraph.separators")
    m["hypergraph.blocks"] = sum(s["blocks"] for s in seps) / len(seps)
    pre = spans_named("search.preprocess")
    m["search.preprocess_eliminated"] = sum(s["eliminated"] for s in pre) / len(pre) if pre else 0.0
    search = spans_named("search.solve")
    nodes = sum(s["nodes"] for s in search)
    m["search.nodes_expanded"] = nodes / n
    m["search.nodes_per_s"] = nodes / total["search.solve"] if total["search.solve"] > 0 else 0.0
    m["search.seen_peak_bytes"] = max((s.get("seen_peak_bytes", 0) for s in search), default=0)
    m["search.open_peak_bytes"] = max((s.get("open_peak_bytes", 0) for s in search), default=0)
    hits = sum(s.get("cover_hits", 0) for s in search)
    looks = hits + sum(s.get("cover_misses", 0) for s in search)
    m["core.cover_cache_hit_rate"] = hits / looks if looks else 0.0
    blocks = sum(s.get("split_blocks", 0) for s in search)
    m["search.block_cache_hit_rate"] = sum(s.get("block_hits", 0) for s in search) / blocks if blocks else 0.0
    wit = spans_named("search.witness")
    m["search.witness_nodes"] = sum(s["nodes"] for s in wit) / len(wit) if wit else 0.0
    # the witness share of the slowest tenth of requests: the tail
    # `cpu_p90_s` sees on serve-blocks
    solve = sorted(reqs, key=lambda r: by_req[r].get("cli.solve_text", 0.0), reverse=True)
    tail = solve[: max(1, n // 10)]
    tail_solve = sum(by_req[r].get("cli.solve_text", 0.0) for r in tail)
    tail_witness = sum(by_req[r].get("search.witness", 0.0) for r in tail)
    m["search.witness_share"] = tail_witness / tail_solve if tail_solve > 0 else 0.0
    replays = spans_named("core.cachelog_replay")
    durs = sorted(s["end_s"] - s["start_s"] for s in replays)
    m["core.cachelog_replay_s"] = durs[len(durs) // 2]
    m["core.cachelog_records"] = replays[-1]["records"]
    m["core.cachelog_bytes"] = replays[-1]["bytes"]

    on_path = ON_PATH[workload]
    path_times = {k: total[k] / n for k in on_path}
    dominant = max(path_times, key=path_times.get)
    summary = {
        "workload": workload,
        "traced_requests": n,
        "layer_mean_s": {k: total[k] / n for k in total},
        "on_path": on_path,
        "dominant_on_path": dominant,
        "dominant_share_of_path": path_times[dominant] / sum(path_times.values()),
        "tail_witness_share": m["search.witness_share"],
        "search_runs_on_path": "search.solve" in on_path,
    }
    return m, summary
