"""One replay of one workload instance, in a fresh interpreter.

``run.py`` starts this script once per replay and reads the JSON object
it prints last.  Modes:

* ``reference`` — compute what the instance must reproduce (and, for
  ``grub_m5_shed``, its CPU capacity) and write it to ``--out``;
* ``timed``     — set up, replay untraced, check against the reference;
* ``traced``    — the same replay with every layer wrapped in spans,
  checked the same way; writes the spans to ``--spans`` and prints the
  per-layer metrics.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this interpreter, so ``setup_s`` runs from a fresh interpreter to the
first serviced tuple (the moment the runtime's run call begins).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time

from probe import host_probe
from workloads import (
    WORKLOADS,
    Outcome,
    arrival_order,
    drive,
    result_digest,
)


def peak_rss_mb(children: bool) -> float:
    """Largest resident set of this process (and of its reaped
    children, when asked) in MiB; Linux reports ``ru_maxrss`` in KiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(
            peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        )
    return peak / 1024.0


def percentile(values, q: float) -> float:
    import numpy as np

    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def check(keys, prep: dict) -> str | None:
    """``None`` when ``keys`` is the reference set, else the mismatch."""
    keys = list(keys)
    if len(keys) != len(set(keys)):
        return f"duplicate results ({len(keys) - len(set(keys))})"
    digest = result_digest(keys)
    if len(keys) != prep["count"] or digest != prep["digest"]:
        return (
            f"result set differs from the reference: {len(keys)} results "
            f"vs {prep['count']}"
        )
    return None


def timed(workload, seed: int, prep: dict, spawned: float,
          budget: float) -> dict:
    """Set up once from a fresh interpreter, then replay the instance
    until ``budget`` seconds have passed (at least once), rebuilding the
    operator for every replay and timing the host-speed probe after each
    one.  Every replay is checked."""
    traces = workload.generate(seed)
    runs: list[dict] = []
    setup_s = None
    started = time.monotonic()
    while not runs or time.monotonic() - started < budget:
        built = workload.build(seed, traces, prep)
        outcome = built.run()
        if setup_s is None:
            setup_s = outcome.started - spawned
            output_rate = outcome.output_rate
        mismatch = check(outcome.keys, prep)
        if mismatch:
            return {"tuples": outcome.tuples, "error": mismatch}
        runs.append({
            "run_s": outcome.run_s,
            "tuples": outcome.tuples,
            "results": outcome.results,
            "probe_s": host_probe(workload.cores),
        })
        del built, outcome
    return {
        "setup_s": setup_s,
        "runs": runs,
        "tuples": sum(r["tuples"] for r in runs),
        "output_rate": output_rate,
        "rss_mb": peak_rss_mb(children=workload.name == "procs_k2_uniform"),
        "error": None,
    }


# ----------------------------------------------------------------------
# traced replay
# ----------------------------------------------------------------------


def inproc_baseline(workload, traces, make_shard) -> tuple[list, list]:
    """The procs job in one process: route with the same hash router
    ``run_procs`` builds, then drive each shard's operator over its
    routed tuples in order.  Returns the shard operators and the keys."""
    from repro.parallel.router import RouterOperator

    p = workload.params
    router = RouterOperator(
        num_streams=p["m"], num_shards=p["workers"],
        rebalance_threshold=None,
    )
    routed = [[] for _ in range(p["workers"])]
    for tup in arrival_order(traces):
        routed[router.shard_of(tup)].append(tup)
    operators = [make_shard(k) for k in range(p["workers"])]
    keys: list = []
    for operator, tuples in zip(operators, routed):
        keys.extend(drive(operator, tuples, p["adaptation_interval_s"]))
    return operators, keys


def traced(workload, seed: int, prep: dict, spans_path: str) -> dict:
    import tracing

    tracer = tracing.Tracer()
    tracing.install_setup_layers(tracer)
    procs = workload.name == "procs_k2_uniform"
    if procs:
        tracing.install_supervisor_layers(tracer)
        tracer.unpatch_in_forked_children()
    else:
        tracing.install_operator_layers(tracer)

    errors: list[str] = []
    wall_started = tracing.clock()
    with tracer.span("streams.tracegen"):
        traces = workload.generate(seed)
    solver_timer = (
        tracer.stopwatch("core.solver")
        if workload.name == "grub_m5_shed" else None
    )
    built = workload.build(seed, traces, prep, solver_timer=solver_timer)
    if procs:
        with tracer.span("engine.run"):
            outcome = built.run()
    else:
        outcome = built.run()
    mismatch = check(outcome.keys, prep)
    if mismatch:
        errors.append(mismatch)

    operators = [built.handles.get("operator")]
    results = outcome.results
    if procs:
        make_shard = built.handles["make_shard"]
        # untraced first: only this span is open while it runs
        with tracer.span("parallel.inproc"):
            _, keys = inproc_baseline(workload, traces, make_shard)
        mismatch = check(keys, prep)
        if mismatch:
            errors.append("in-process baseline: " + mismatch)
        tracing.install_operator_layers(tracer)
        with tracer.span("bench.inproc_traced"):
            operators, keys = inproc_baseline(workload, traces, make_shard)
        results = len(keys)
        mismatch = check(keys, prep)
        if mismatch:
            errors.append("traced in-process baseline: " + mismatch)
    wall_s = tracing.clock() - wall_started
    tracer.unpatch()
    probe_s = host_probe(workload.cores)

    summary = tracer.summary()
    metrics = layer_metrics(
        tracer, summary, workload, outcome, operators, results, wall_s
    )
    # every span's self time is non-negative and the self times add up
    # to the top-level span time: the nesting is consistent, so the
    # self times plus the remainder are exactly the traced wall time
    if summary["min_self"] < -1e-9:
        errors.append("a span's children outlast it")
    if abs(summary["self_sum"] - summary["top_sum"]) > 1e-6 * max(
        1.0, summary["spans"] / 1000.0
    ):
        errors.append("span self times do not add up")
    if metrics["trace.remainder_s"] < -1e-6:
        errors.append("spans cover more than the traced wall time")
    tracer.write(spans_path)
    return {
        "run_s": outcome.run_s,
        "probe_s": probe_s,
        "tuples": outcome.tuples,
        "metrics": metrics,
        "error": "; ".join(errors) or None,
    }


#: highest solver-time percentile with at least ten ticks beyond it at
#: ``grub_m5_shed``'s ~42 solver ticks
SOLVER_HIGH_PERCENTILE = 75


def layer_metrics(tracer, summary: dict, workload, outcome: Outcome,
                  operators, results: int, wall_s: float) -> dict:
    """Every per-layer metric; a layer the workload never enters reads
    0.  For ``procs_k2_uniform`` the join, window and index layers are
    read from the traced in-process baseline (the workers' own calls
    happen in other processes)."""
    per = summary["per_name"]

    def count(name):
        return per.get(name, {}).get("count", 0)

    def self_s(name):
        return per.get(name, {}).get("self", 0.0)

    def total_s(name):
        return per.get(name, {}).get("total", 0.0)

    operators = [op for op in operators if op is not None]
    comparisons = sum(op.comparisons_total for op in operators)
    process_us = tracer.durations("joins.process") * 1e6
    solver_ms = tracer.durations("core.solver") * 1e3
    hash_streams = sum(
        1
        for op in operators
        for state in (getattr(op, "windex_states", None) or [])
        if state.active == "hash"
    )
    engine_run = total_s("engine.run")
    m = {
        "streams.tracegen_s": total_s("streams.tracegen"),
        "lint.certify_s": total_s("lint.certify"),
        "lint.validate_s": total_s("lint.validate"),
        "engine.run_s": engine_run,
        "engine.self_s": self_s("engine.run"),
        "engine.self_share": (
            self_s("engine.run") / engine_run if engine_run else 0.0
        ),
        "joins.process_calls": count("joins.process"),
        "joins.process_s": self_s("joins.process"),
        "joins.process_us.p50": percentile(process_us, 50),
        "joins.process_us.p99": percentile(process_us, 99),
        "joins.kernel_s": self_s("joins.kernel"),
        "joins.comparisons": comparisons,
        "joins.results_per_mcmp": (
            results / (comparisons / 1e6) if comparisons else 0.0
        ),
        "core.windows_s": self_s("core.windows"),
        "core.windows_calls": count("core.windows"),
        "core.windex_s": self_s("core.windex"),
        "core.windex_hash_streams": hash_streams,
        "core.adapt_s": self_s("core.adapt"),
        "core.adapt_calls": count("core.adapt"),
        "core.solver_s": self_s("core.solver"),
        "core.solver_ms.p50": percentile(solver_ms, 50),
        f"core.solver_ms.p{SOLVER_HIGH_PERCENTILE}": percentile(
            solver_ms, SOLVER_HIGH_PERCENTILE
        ),
        "core.solver_ticks": count("core.solver"),
        "core.warmstart_hit_ratio": 0.0,
        "core.z_mean": 0.0,
        "core.shredded": 0,
        "core.comparisons": 0,
        "result_latency_vs.p50": percentile(outcome.latencies, 50),
        "result_latency_vs.p99": percentile(outcome.latencies, 99),
    }
    if workload.name == "grub_m5_shed":
        op = operators[0]
        ticks = op.warmstart_hits + op.warmstart_misses
        warm = workload.params["warmup_vs"]
        zs = [z for t, z in op.z_history if t >= warm]
        m["core.warmstart_hit_ratio"] = (
            op.warmstart_hits / ticks if ticks else 0.0
        )
        m["core.z_mean"] = statistics.fmean(zs) if zs else 0.0
        m["core.shredded"] = op.tuples_shredded
        m["core.comparisons"] = op.comparisons_total

    procs = outcome.extra.get("procs")
    router = total_s("parallel.router")
    merger = total_s("parallel.merger")
    send = total_s("parallel.send")
    recv = total_s("parallel.recv")
    m.update({
        "parallel.router_s": router,
        "parallel.merger_s": merger,
        "parallel.send_s": send,
        "parallel.recv_s": recv,
        "parallel.sends": count("parallel.send"),
        "parallel.wait_s": (
            procs.wall_seconds - router - merger - send - recv
            if procs is not None else 0.0
        ),
        "parallel.routed_skew": skew(procs.routed_per_worker) if procs else 0.0,
        "parallel.comparisons_skew": (
            skew(procs.comparisons_per_worker) if procs else 0.0
        ),
        "parallel.inproc_s": total_s("parallel.inproc"),
    })
    m["trace.wall_s"] = wall_s
    m["trace.spans"] = summary["spans"]
    m["trace.remainder_s"] = wall_s - summary["self_sum"]
    return m


def skew(values) -> float:
    """max / mean of per-worker counts (1.0 = perfectly even)."""
    mean = statistics.fmean(values) if values else 0.0
    return max(values) / mean if mean else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--mode", choices=("reference", "timed", "traced"),
                        required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--instance-seed", type=int, required=True)
    parser.add_argument("--prep", help="reference JSON (timed/traced)")
    parser.add_argument("--out", help="reference output path")
    parser.add_argument("--spans", help="span output path (traced)")
    parser.add_argument("--spawned", type=float, default=None)
    parser.add_argument("--budget", type=float, default=0.0,
                        help="seconds of repeated replays (timed)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.mode == "reference":
        prep = workload.reference(args.instance_seed)
        with open(args.out, "w") as fh:
            json.dump(prep, fh)
        return 0
    with open(args.prep) as fh:
        prep = json.load(fh)
    if args.mode == "timed":
        spawned = args.spawned if args.spawned is not None else (
            time.monotonic()
        )
        report = timed(workload, args.instance_seed, prep, spawned,
                       args.budget)
    else:
        report = traced(workload, args.instance_seed, prep, args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
