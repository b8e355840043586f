"""End-to-end benchmark: one command, three workloads, every run checked.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload grub_m5_shed --seed 1 \\
        --seconds 15 --trace 0

Each replay runs in a fresh interpreter (``replay.py``) over one seeded
instance of the workload and is checked against a reference computed
outside any timed region (cached per instance under ``.e2ebench_cache/``).
``--trace 0`` replays the workload's instances untraced until
``--seconds`` have passed and prints the end-to-end metrics; ``--trace 1``
replays instance 0 untraced, then once with every layer wrapped in spans,
and prints the per-layer metrics.  The last line of standard output is
one JSON object: ``correct``, ``attempted`` and ``failed`` (input
tuples), and ``metrics``.  The metric definitions, predictions and
workload reasons live in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from probe import NOMINAL_S, host_probe  # noqa: E402
from workloads import WORKLOADS, instance_seed  # noqa: E402

#: a run must end within this many seconds, whatever ``--seconds`` says
RUN_BUDGET_S = 170.0

#: reference computations run side by side, before any timing starts
REFERENCE_JOBS = 2

CACHE = ROOT / ".e2ebench_cache"
SPANS = ROOT / ".e2ebench_spans"


class ReplayFailed(Exception):
    """A child interpreter raised, timed out or printed no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one BLAS thread: the replays are single-threaded by design and
    # stray pool threads only add noise on a small host
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def become_subreaper() -> None:
    """Have processes orphaned by a replay child (its workers, helper
    processes of the libraries it uses) re-parented to this process, so
    :func:`reap_children` can wait for them.  Linux only; elsewhere
    orphans go to init as usual."""
    try:
        import ctypes

        PR_SET_CHILD_SUBREAPER = 36
        ctypes.CDLL(None, use_errno=True).prctl(
            PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0
        )
    except (OSError, AttributeError):
        pass


def reap_children(timeout: float = 10.0) -> None:
    """Wait for every child of this process, orphans included; call only
    when no :class:`subprocess.Popen` child is still being waited for."""
    deadline = time.monotonic() + timeout
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            if time.monotonic() > deadline:
                return
            time.sleep(0.02)


def pin_cpus(cores: int) -> None:
    """Run the rest of this process and its children on ``cores`` CPUs.
    A one-core replay and the probes that scale it then share one CPU:
    on a shared host each CPU's speed drifts on its own, so a probe on
    another CPU misreads the replay's."""
    if not hasattr(os, "sched_setaffinity"):
        return
    cpus = sorted(os.sched_getaffinity(0))
    if cores < len(cpus):
        os.sched_setaffinity(0, cpus[-cores:])


#: every replay child started, so none outlives this process
CHILDREN: list[subprocess.Popen] = []


def start_child(args: list[str]) -> subprocess.Popen:
    # its own process group, so whatever it starts can be killed with it
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "replay.py"), *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    CHILDREN.append(proc)
    return proc


def kill_group(proc: subprocess.Popen) -> None:
    """Kill whatever is left of ``proc``'s process group."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def finish_child(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for ``proc`` until ``deadline``; return its stdout or raise
    :class:`ReplayFailed` (killing it first on a timeout).  Anything it
    started and left running is killed either way."""
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        kill_group(proc)
        proc.communicate()
        raise ReplayFailed("timed out") from None
    finally:
        kill_group(proc)
    if proc.returncode != 0:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        raise ReplayFailed(f"exit {proc.returncode}: {tail[0]}")
    return out


def last_json(out: str) -> dict:
    lines = out.strip().splitlines()
    if not lines:
        raise ReplayFailed("printed no result")
    return json.loads(lines[-1])


def reference_path(workload, seed: int) -> Path:
    tag = hashlib.sha256(
        json.dumps(workload.params, sort_keys=True).encode()
    ).hexdigest()[:12]
    return CACHE / f"{workload.name}-{tag}-{seed}.json"


def ensure_references(workload, seeds: list[int], deadline: float) -> dict:
    """Compute (or reuse) every instance's reference, a few at a time.
    Returns ``seed -> path`` for the instances whose reference exists."""
    CACHE.mkdir(exist_ok=True)
    ready: dict[int, Path] = {}
    todo = []
    for seed in seeds:
        path = reference_path(workload, seed)
        if path.exists():
            ready[seed] = path
        else:
            todo.append((seed, path))
    while todo:
        batch, todo = todo[:REFERENCE_JOBS], todo[REFERENCE_JOBS:]
        running = []
        for seed, path in batch:
            partial = path.with_suffix(".partial")
            proc = start_child([
                "--mode", "reference", "--workload", workload.name,
                "--instance-seed", str(seed), "--out", str(partial),
            ])
            running.append((seed, path, partial, proc))
        for seed, path, partial, proc in running:
            try:
                finish_child(proc, deadline)
            except ReplayFailed as exc:
                print(f"reference for instance {seed} failed: {exc}",
                      file=sys.stderr)
                continue
            partial.replace(path)
            ready[seed] = path
    return ready


def replay(workload, seed: int, prep: Path, deadline: float,
           mode: str = "timed", budget: float = 0.0) -> dict:
    args = [
        "--mode", mode, "--workload", workload.name,
        "--instance-seed", str(seed), "--prep", str(prep),
        "--budget", repr(budget),
    ]
    if mode == "traced":
        args += ["--spans", str(SPANS / f"{workload.name}-{seed}.npz")]
    # set-up runs from this instant: a fresh interpreter's first tick
    args += ["--spawned", repr(time.monotonic())]
    proc = start_child(args)
    report = last_json(finish_child(proc, deadline))
    if report.get("error"):
        raise ReplayFailed(report["error"])
    return report


class Tally:
    """Attempted and failed input tuples across a run's replays."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def fail(self, tuples: int, why: str) -> None:
        self.attempted += tuples
        self.failed += tuples
        self.errors.append(why)

    def ok(self, tuples: int) -> None:
        self.attempted += tuples


def expected_tuples(prep: Path) -> int:
    return int(json.loads(prep.read_text())["tuples"])


def probed_replay(workload, seed: int, prep: Path, deadline: float,
                  budget: float) -> dict:
    """A timed replay interpreter whose replays are each bracketed by
    host-speed probes (``probe.py``): one here, just before the
    interpreter starts, and one in it after every replay.  Each replay's
    ``scale`` (and the set-up's: the first replay's) turns host seconds
    into probe-scaled seconds."""
    before = host_probe(workload.cores)
    report = replay(workload, seed, prep, deadline, budget=budget)
    for run in report["runs"]:
        run["scale"] = NOMINAL_S / ((before + run["probe_s"]) / 2.0)
        before = run["probe_s"]
    report["setup_scale"] = report["runs"][0]["scale"]
    return report


def timed_run(workload, seeds, refs, seconds: float, deadline: float,
              tally: Tally) -> dict:
    """One fresh interpreter per instance, each replaying its instance
    for an equal share of ``seconds``.  Times are probe-scaled."""
    reports: list[dict] = []
    for seed in seeds:
        prep = refs.get(seed)
        if prep is None:
            tally.fail(0, f"instance {seed}: no reference")
            continue
        try:
            report = probed_replay(workload, seed, prep, deadline,
                                   budget=seconds / len(seeds))
        except ReplayFailed as exc:
            tally.fail(expected_tuples(prep), f"instance {seed}: {exc}")
            continue
        print(json.dumps({"instance": seed, **report}), file=sys.stderr)
        tally.ok(report["tuples"])
        reports.append(report)
    if not reports:
        return {}
    runs = [run for r in reports for run in r["runs"]]
    # the instances differ in work, so rates pool the run's replays
    # (total work over total probe-scaled time) instead of picking one
    seconds_scaled = sum(run["run_s"] * run["scale"] for run in runs)
    med = statistics.median
    return {
        "setup_s": med(r["setup_s"] * r["setup_scale"] for r in reports),
        "tuples_per_s": sum(run["tuples"] for run in runs) / seconds_scaled,
        "results_per_s": (
            sum(run["results"] for run in runs) / seconds_scaled
        ),
        "peak_rss_mb": med(r["rss_mb"] for r in reports),
        # deterministic per instance: average the instances
        "output_rate": statistics.fmean(r["output_rate"] for r in reports),
    }


def traced_run(workload, seed, refs, seconds: float, deadline: float,
               tally: Tally) -> dict:
    prep = refs.get(seed)
    if prep is None:
        tally.fail(0, f"instance {seed}: no reference")
        return {}
    try:
        report = probed_replay(workload, seed, prep, deadline, seconds)
    except ReplayFailed as exc:
        tally.fail(expected_tuples(prep), f"untraced: {exc}")
        return {}
    tally.ok(report["tuples"])
    untraced = [run["run_s"] * run["scale"] for run in report["runs"]]
    probe_s = statistics.median(run["probe_s"] for run in report["runs"])
    before = host_probe(workload.cores)
    try:
        report = replay(workload, seed, prep, deadline, mode="traced")
    except ReplayFailed as exc:
        tally.fail(expected_tuples(prep), f"traced: {exc}")
        return {}
    tally.ok(report["tuples"])
    scale = NOMINAL_S / ((before + report["probe_s"]) / 2.0)
    metrics = dict(report["metrics"])
    metrics["trace.overhead_share"] = (
        report["run_s"] * scale / statistics.median(untraced) - 1.0
    )
    metrics["host.probe_s"] = probe_s
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="end-to-end benchmark (see BENCHMARK.json)"
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is "
              "missing", file=sys.stderr)
        return 2

    become_subreaper()
    try:
        return measure(args)
    finally:
        for proc in CHILDREN:
            if proc.poll() is None:
                kill_group(proc)
        reap_children()


def measure(args) -> int:
    began = time.monotonic()
    deadline = began + RUN_BUDGET_S
    workload = WORKLOADS[args.workload]
    count = 1 if args.trace else workload.instances
    seeds = [instance_seed(args.seed, j) for j in range(count)]
    refs = ensure_references(workload, seeds, deadline)
    pin_cpus(workload.cores)
    tally = Tally()
    if args.trace:
        metrics = traced_run(workload, seeds[0], refs, args.seconds,
                             deadline, tally)
        names = PER_LAYER
    else:
        metrics = timed_run(workload, seeds, refs, args.seconds, deadline,
                            tally)
        names = END_TO_END
    if metrics and set(metrics) != set(names):
        tally.errors.append(
            f"metric set mismatch: {sorted(set(metrics) ^ set(names))}"
        )
    for why in tally.errors:
        print(f"FAILED {why}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {names.get(name, ('?',))[0]}")
    result = {
        "correct": not tally.errors and bool(metrics),
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": names[name][0]}
            for name, value in metrics.items()
            if name in names
        },
    }
    print(json.dumps(result))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
