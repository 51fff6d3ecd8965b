"""One workload in one single-threaded process; run.py starts it.

Runs untraced passes for the given seconds, checks every output (the
same on every pass, and right by the reference checks), and with
``--trace 1`` then runs one traced pass whose outputs must equal the
untraced ones.  Prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
from pathlib import Path
from time import perf_counter

import tracing
from calibrate import SpeedSampler
from workloads import WORKLOADS, Op

MIN_PASSES = 2
SEGMENT_S = 0.5
SAMPLE_INTERVAL_S = 0.02
MAX_REASONS = 5


def run_pass(ops: list[Op], speed: SpeedSampler):
    """Call every op once, timing each.

    Ops are grouped into segments of at least SEGMENT_S seconds, and each
    op's time is also given scaled by the machine speed sampled during
    its segment.  Returns (results by name, names that raised, wall
    seconds per op, scaled seconds per op).
    """
    results: dict = {}
    raised: set[str] = set()
    seconds: list[float] = []
    scaled: list[float] = []
    mark, segment = speed.mark(), 0.0
    for i, op in enumerate(ops):
        start = perf_counter()
        try:
            results[op.name] = op.call(results)
        except Exception as e:  # an op that raises is a failed op, not a crash
            results[op.name] = f"raised {type(e).__name__}: {e}"
            raised.add(op.name)
        seconds.append(perf_counter() - start)
        segment += seconds[-1]
        if segment >= SEGMENT_S or i == len(ops) - 1:
            scale = speed.scale(mark)
            scaled += [t * scale for t in seconds[len(scaled):]]
            mark, segment = speed.mark(), 0.0
    return results, raised, seconds, scaled


def cycle_rank(n: int, edges) -> int:
    parent = list(range(n))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    components = n
    for a, b in edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            components -= 1
    return len(edges) - n + components


def layer_metrics(tracer: tracing.Tracer, traced_s: float, overhead_ratio: float) -> dict[str, float]:
    """Self time per layer and per named function, plus work counters.

    Times are raw wall seconds of the traced pass, so the self times and
    ``trace.uncovered_s`` add up to ``trace.pass_s``.
    """
    self_s = tracer.self_times()
    calls = tracer.calls()
    out: dict[str, float] = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = sum(v for k, v in self_s.items() if k.split(".")[0] == layer)
    for name in (
        "perm.enumerate_reduced_words", "rwgraph.build_word_graph", "rwgraph.count_four_cycles",
        "rwgraph.structure_report", "layered.build_layered_graph", "layered.is_isomorphic",
        "chroma.chromatic_polynomial", "chroma.chromatic_number", "chroma.closed_form_report",
        "identities.graver_basis", "identities.subidentity_report",
        "toric.standard_monomial_counts", "toric.groebner_basis", "toric.hilbert",
        "toric.audit_separation_ideal", "toric.audit_quadric_chain_ideal",
        "binomial.normal_form", "report.render", "cli.main",
    ):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0)

    def done(name):
        return [s for s in tracer.of(name) if s[5] is not None]

    out["perm.words"] = sum(len(s[5]) for s in done("perm.enumerate_reduced_words"))
    out["rwgraph.edges"] = sum(len(s[5].edges) for s in done("rwgraph.build_word_graph"))
    out["layered.iso_false"] = sum(1 for s in done("layered.is_isomorphic") if s[5] is False)
    graphs = [s[4][0] for s in tracer.of("chroma.chromatic_polynomial")]
    out["chroma.cycle_rank_sum"] = sum(cycle_rank(g.n, g.edges) for g in graphs)
    distinct = len({(g.n, tuple(g.edges)) for g in graphs})
    out["chroma.distinct_input_ratio"] = distinct / len(graphs) if graphs else 0.0
    out["identities.graver_elements"] = sum(len(s[5]) for s in done("identities.graver_basis"))
    out["toric.basis_elements"] = sum(len(s[5]) for s in done("toric.groebner_basis"))
    out["toric.hilbert_gens"] = sum(len(s[4][0].gens) for s in tracer.of("toric.hilbert"))
    renders = done("report.render")
    out["report.rows"] = sum(len(s[4][0].rows) for s in renders)
    out["report.bytes"] = sum(len(s[5].encode("utf-8")) for s in renders)
    out["trace.pass_s"] = traced_s
    out["trace.uncovered_s"] = traced_s - tracer.top_level_s()
    out["trace.overhead_ratio"] = overhead_ratio
    return out


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args()

    ops = WORKLOADS[args.workload](args.seed, args.tiny)
    times: list[float] = []  # wall seconds per pass
    scaled: list[list[float]] = []  # seconds per op at the nominal machine speed
    pass_failures: list[set[str]] = []
    reasons: list[str] = []
    first: dict = {}
    first_fp: dict[str, str] = {}
    start = perf_counter()
    with SpeedSampler(SAMPLE_INTERVAL_S) as speed:
        while True:
            results, raised, seconds, op_scaled = run_pass(ops, speed)
            times.append(sum(seconds))
            scaled.append(op_scaled)
            fp = {name: repr(value) for name, value in results.items()}
            if not first:
                first, first_fp = results, fp
            bad = set(raised)
            for name in fp:
                if fp[name] != first_fp[name]:
                    bad.add(name)
                    reasons.append(f"{name}: output differs from the first pass")
            reasons += [f"{name}: {results[name]}" for name in sorted(raised)]
            pass_failures.append(bad)
            if len(times) == MIN_PASSES:
                # Freed memory is not all returned, so the high-water mark
                # creeps up with the pass count; reading it after a fixed
                # number of passes keeps it independent of machine speed.
                peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = perf_counter() - start
            if len(times) >= MIN_PASSES and elapsed + statistics.median(times) * 1.05 > args.seconds:
                break
    # Each op's median over the passes, summed: a slowdown that hits a
    # few ops of one pass moves no median, where it would move that
    # pass's total.  With one op per pass this is the median pass.
    pass_s = sum(statistics.median(op_times) for op_times in zip(*scaled))

    wrong = set()
    for op in ops:
        if op.name in pass_failures[0]:
            continue
        reason = op.check(first[op.name], first)
        if reason:
            wrong.add(op.name)
            reasons.append(f"{op.name}: {reason}")
    failed = sum(len(bad | wrong) for bad in pass_failures)
    attempted = len(ops) * len(times)

    out = {
        "pass_s": pass_s,
        "pass_times": times,
        "scaled_pass_times": [sum(p) for p in scaled],
        "peak_rss_mib": peak_rss_mib,
    }
    if args.trace:
        tracer = tracing.Tracer()
        with SpeedSampler(SAMPLE_INTERVAL_S) as speed, tracing.installed(tracer):
            results, raised, seconds, op_scaled = run_pass(ops, speed)
        traced_s = sum(seconds)
        attempted += len(ops)
        mismatched = {name for name, value in results.items() if repr(value) != first_fp[name]}
        failed += len(mismatched | raised | wrong)
        reasons += [f"{name}: traced output differs from untraced" for name in sorted(mismatched)]
        out["per_layer"] = layer_metrics(tracer, traced_s, sum(op_scaled) / pass_s)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            tracer.dump(args.spans)
    out.update(attempted=attempted, failed=failed, reasons=reasons[:MAX_REASONS])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
