"""The benchmark's three workloads: trace generation, build, run, reference.

Every workload is a closed-loop replay from one client: a seeded trace is
generated up front and replayed as fast as the host allows.  A run of the
benchmark replays several *instances* of its workload; instance ``j`` of
run seed ``s`` is generated from :func:`instance_seed`, so the same run
seed always yields the same inputs and the program only ever sees the
generated traces.

Each workload exposes the same four steps, which ``replay.py`` calls in a
fresh interpreter:

* ``generate(seed)``      -> the traces (``streams`` layer);
* ``build(traces, prep)``  -> a zero-argument ``run`` callable plus the
  objects a traced replay needs (operator, query, shard factory);
* ``run()``                -> an :class:`Outcome` with the result keys;
* ``reference(seed)``      -> what every replay of that instance must
  reproduce, computed once outside any timed region and cached.

Each workload also states how many ``instances`` a run replays and how
many ``cores`` one replay keeps busy (the host-speed probe runs on as
many).  Imports of ``repro`` happen inside the functions, so ``setup_s``
in the replay child counts them.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: virtual seconds appended after the last arrival so in-flight
#: completions land before the run stops (same tail as the testkit)
DRAIN_TAIL = 1.0

#: CPU capacity no run ever saturates (comparisons per virtual second)
UNBOUNDED_CAPACITY = 1e12


def instance_seed(run_seed: int, index: int) -> int:
    """Seed of instance ``index`` of a run started with ``run_seed``."""
    digest = hashlib.sha256(f"{run_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % 1_000_000_007


def result_digest(keys) -> str:
    """Order-independent digest of a result-key set (``JoinResult.key()``
    tuples of ``(stream, seq)`` pairs)."""
    lines = sorted(
        ",".join(f"{s}:{q}" for s, q in key) for key in keys
    )
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


class FirstReadClock:
    """``time.monotonic`` that remembers its first reading."""

    def __init__(self) -> None:
        self.first: float | None = None

    def __call__(self) -> float:
        now = time.monotonic()
        if self.first is None:
            self.first = now
        return now


@dataclass
class Outcome:
    """What one replay produced, in the terms the metrics need."""

    keys: Any                   # iterable of result keys (for the check)
    started: float              # time.monotonic() when the run began
    run_s: float                # host seconds inside the runtime's run
    tuples: int                 # input tuples serviced by the join
    results: int                # join results emitted over the whole run
    output_rate: float          # results per virtual second after warm-up
    latencies: list[float] = field(default_factory=list)  # virtual s
    extra: dict = field(default_factory=dict)


@dataclass
class Built:
    """A workload instance ready to run."""

    run: Callable[[], Outcome]
    handles: dict = field(default_factory=dict)


# ----------------------------------------------------------------------
# grub_m5_shed: Simulation + GrubJoin on the paper's nonaligned m=5 load
# ----------------------------------------------------------------------


class GrubM5Shed:
    """GrubJoin under a CPU budget of 0.6x the instance's own demand.

    The only workload where the section 4 harvest solver runs.  The
    capacity is derived from the instance's unconstrained demand in
    :meth:`reference` (outside ``setup_s``) and handed to the replay.
    """

    name = "grub_m5_shed"
    instances = 6
    cores = 1
    params = {
        "m": 5,
        "rate_per_stream": 20.0,
        "window_s": 40.0,
        "basic_window_s": 1.0,
        "adaptation_interval_s": 1.0,
        "duration_vs": 60.0,
        "warmup_vs": 20.0,
        "capacity_fraction_of_demand": 0.6,
    }

    def _spec(self, seed: int):
        from repro.experiments.harness import nonaligned_spec

        p = self.params
        return nonaligned_spec(
            m=p["m"],
            rate=p["rate_per_stream"],
            window=p["window_s"],
            basic_window=p["basic_window_s"],
            seed=seed,
        )

    def _config(self):
        from repro.engine import SimulationConfig

        p = self.params
        return SimulationConfig(
            duration=p["duration_vs"],
            warmup=p["warmup_vs"],
            adaptation_interval=p["adaptation_interval_s"],
        )

    def generate(self, seed: int):
        return self._spec(seed).to_testkit_traces(self.params["duration_vs"])

    def _operator(self, seed: int, **kwargs):
        from repro.core import GrubJoinOperator
        from repro.joins import EpsilonJoin

        spec = self._spec(seed)
        p = self.params
        return GrubJoinOperator(
            EpsilonJoin(spec.epsilon),
            [p["window_s"]] * p["m"],
            p["basic_window_s"],
            rng=seed + 101,
            **kwargs,
        )

    def _simulate(self, traces, operator, capacity: float) -> Outcome:
        from repro.engine import CpuModel, Simulation

        config = self._config()
        sim = Simulation(
            traces, operator, CpuModel(capacity), config,
            retain_outputs=True,
        )
        started = time.monotonic()
        result = sim.run()
        run_s = time.monotonic() - started
        outputs = sim.output_buffer.results
        warm = config.warmup
        latencies = [
            r.timestamp - max(t.timestamp for t in r.constituents)
            for r in outputs
            if r.timestamp >= warm
        ]
        return Outcome(
            keys=[r.key() for r in outputs],
            started=started,
            run_s=run_s,
            tuples=sum(s.consumed for s in result.streams),
            results=result.output_count_total,
            output_rate=result.output_rate,
            latencies=latencies,
        )

    def build(self, seed: int, traces, prep: dict, solver_timer=None):
        kwargs = {} if solver_timer is None else {"solver_timer": solver_timer}
        operator = self._operator(seed, **kwargs)
        capacity = float(prep["capacity"])
        return Built(
            run=lambda: self._simulate(traces, operator, capacity),
            handles={"operator": operator},
        )

    def reference(self, seed: int) -> dict:
        from repro.engine import CpuModel, Simulation
        from repro.joins import EpsilonJoin, MJoinOperator

        traces = self.generate(seed)
        p = self.params
        config = self._config()
        full = MJoinOperator(
            EpsilonJoin(self._spec(seed).epsilon),
            [p["window_s"]] * p["m"],
            p["basic_window_s"],
        )
        cpu = CpuModel(UNBOUNDED_CAPACITY)
        Simulation(traces, full, cpu, config).run()
        demand = cpu.busy_time * UNBOUNDED_CAPACITY / config.duration
        capacity = max(demand * p["capacity_fraction_of_demand"], 1.0)
        slow = self._simulate(
            traces, self._operator(seed, fastpath=False), capacity
        )
        return {
            "capacity": capacity,
            "tuples": sum(len(t.tuples) for t in traces),
            "count": len(slow.keys),
            "digest": result_digest(slow.keys),
        }


# ----------------------------------------------------------------------
# query_zipf_adaptive: Query DSL -> DataflowGraph, adaptive index
# ----------------------------------------------------------------------


class QueryZipfAdaptive:
    """A 3-way zipf-key equi-join through ``Query`` with
    ``.index("adaptive")`` and no shedding.

    Windows expire during the run, so partition tables are rebuilt.
    ``alpha`` is 0.25: at 0.5 one key carries over a third of a 3-way
    join's results, so result counts swing by half between seeds; below
    1/3 the cubic key weights no longer concentrate on the head.
    """

    name = "query_zipf_adaptive"
    instances = 3
    cores = 1
    params = {
        "m": 3,
        # not 1000/s: streams are de-phased by 1 ms, so at a 1 ms period
        # arrivals coincide and boundary results depend on tie order
        "rate_per_stream": 1200.0,
        "window_s": 8.0,
        "basic_window_s": 4.0,
        "duration_vs": 12.0,
        "n_keys": 20_000,
        "alpha": 0.25,
        "shedding": "none",
        "index": "adaptive",
        "adaptation_interval_s": 2.0,
        "capacity": UNBOUNDED_CAPACITY,
    }

    def _workload(self, seed: int):
        from repro.testkit.workloads import zipf_key_workload

        p = self.params
        return zipf_key_workload(
            seed=seed,
            m=p["m"],
            rate=p["rate_per_stream"],
            duration=p["duration_vs"],
            window=p["window_s"],
            basic=p["basic_window_s"],
            n_keys=p["n_keys"],
            alpha=p["alpha"],
        )

    def generate(self, seed: int):
        return self._workload(seed).traces

    def query(self, traces):
        from repro.joins import EquiJoin
        from repro.query import Query

        p = self.params
        return (
            Query()
            .streams(*traces)
            .window(p["window_s"], basic=p["basic_window_s"])
            .join(EquiJoin(), shedding=p["shedding"])
            .index(p["index"])
        )

    def build(self, seed: int, traces, prep: dict, solver_timer=None):
        from repro.engine import CpuModel, SimulationConfig

        p = self.params
        query = self.query(traces)
        # what Query.run does, keeping the outputs for the check
        query.validate().raise_for_errors()
        graph, placeholder = query.build(p["capacity"])
        duration = p["duration_vs"] + DRAIN_TAIL
        config = SimulationConfig(
            duration=duration,
            warmup=0.0,
            adaptation_interval=p["adaptation_interval_s"],
        )

        def run() -> Outcome:
            started = time.monotonic()
            result = graph.run(
                CpuModel(p["capacity"]), config, validate=False,
                retain_outputs=True,
            )
            run_s = time.monotonic() - started
            node = result.nodes["join"]
            return Outcome(
                keys=[r.key() for r in node.outputs],
                started=started,
                run_s=run_s,
                tuples=node.consumed,
                results=node.output_count,
                output_rate=node.output_rate,
            )

        return Built(
            run=run,
            handles={"operator": placeholder.join_operator},
        )

    def reference(self, seed: int) -> dict:
        from repro.joins import MJoinOperator

        workload = self._workload(seed)
        operator = MJoinOperator(
            workload.predicate, workload.window_sizes, workload.basic,
            index=None,
        )
        keys = drive(operator, arrival_order(workload.traces),
                     self.params["adaptation_interval_s"])
        return {
            "tuples": workload.tuple_count(),
            "count": len(keys),
            "digest": result_digest(keys),
        }


def arrival_order(traces) -> list:
    """All tuples in the global ``(delivery_time, stream, seq)`` order the
    runtimes service them in."""
    return sorted(
        (t for trace in traces for t in trace.tuples),
        key=lambda t: (t.delivery_time, t.stream, t.seq),
    )


def drive(operator, tuples, interval: float) -> list:
    """Feed ``tuples`` (in arrival order) straight into
    ``operator.process``, firing ``on_adapt`` at every multiple of
    ``interval`` with the buffer statistics a procs worker synthesizes;
    returns the result keys."""
    from repro.engine.buffers import BufferStats

    keys: list = []
    arrivals = [0] * operator.num_streams
    next_adapt = interval
    for tup in tuples:
        now = tup.delivery_time
        while now >= next_adapt:
            stats = [
                BufferStats(pushed=c, popped=c, dropped=0, depth=0)
                for c in arrivals
            ]
            operator.on_adapt(next_adapt, stats, interval)
            arrivals = [0] * operator.num_streams
            next_adapt += interval
        arrivals[tup.stream] += 1
        keys.extend(r.key() for r in operator.process(tup, now).outputs)
    return keys


# ----------------------------------------------------------------------
# procs_k2_uniform: run_procs, K=2 workers, adaptive index, uniform keys
# ----------------------------------------------------------------------


class ProcsK2Uniform:
    """``run_procs`` with two worker processes, each an
    ``MJoinOperator(index="adaptive")``, over uniform integer keys.

    The only workload through the router, the pipe transport and the
    merger, and the only one whose set-up pays shard-safety
    certification.  Uniform keys are where the adaptive index costs time
    today, opposite ``query_zipf_adaptive``.
    """

    name = "procs_k2_uniform"
    instances = 2
    cores = 2
    params = {
        "m": 3,
        "workers": 2,
        "rate_per_stream": 400.0,
        "window_s": 12.0,
        "basic_window_s": 1.0,
        "duration_vs": 20.0,
        "n_keys": 4000,
        "index": "adaptive",
        "adaptation_interval_s": 2.0,
    }

    def _workload(self, seed: int):
        from repro.testkit.workloads import key_workload

        p = self.params
        return key_workload(
            seed=seed,
            m=p["m"],
            rate=p["rate_per_stream"],
            duration=p["duration_vs"],
            window=p["window_s"],
            basic=p["basic_window_s"],
            n_keys=p["n_keys"],
        )

    def generate(self, seed: int):
        return self._workload(seed).traces

    def make_shard(self, index: str | None):
        from repro.joins import EquiJoin, MJoinOperator

        p = self.params
        windows = [p["window_s"]] * p["m"]
        basic = p["basic_window_s"]

        def make(_worker_id: int):
            return MJoinOperator(EquiJoin(), windows, basic, index=index)

        return make

    def build(self, seed: int, traces, prep: dict, solver_timer=None):
        from repro.parallel import run_procs

        p = self.params
        make_shard = self.make_shard(p["index"])

        def run() -> Outcome:
            # the supervisor's first clock read starts its run, after
            # certification: that instant ends set-up
            timer = FirstReadClock()
            result = run_procs(
                traces,
                make_shard,
                p["workers"],
                duration=p["duration_vs"] + DRAIN_TAIL,
                adaptation_interval=p["adaptation_interval_s"],
                timer=timer,
            )
            return Outcome(
                keys=result.merged_ids,
                started=timer.first,
                run_s=result.wall_seconds,
                tuples=result.tuples_routed,
                results=result.merged_count,
                output_rate=result.merged_count / (
                    p["duration_vs"] + DRAIN_TAIL
                ),
                extra={"procs": result},
            )

        return Built(run=run, handles={"make_shard": make_shard})

    def reference(self, seed: int) -> dict:
        from repro.engine import CpuModel, SimulationConfig
        from repro.parallel import build_sharded_graph

        p = self.params
        traces = self.generate(seed)
        # flat shards: the plan is the oracle, so it also proves the
        # adaptive index changes no result
        plan = build_sharded_graph(
            traces, self.make_shard(None), p["workers"],
            rebalance_threshold=None,
        )
        config = SimulationConfig(
            duration=p["duration_vs"] + DRAIN_TAIL,
            warmup=0.0,
            adaptation_interval=p["adaptation_interval_s"],
        )
        result = plan.run(
            CpuModel(UNBOUNDED_CAPACITY, cores=p["workers"] + 2),
            config,
            retain_outputs=True,
        )
        keys = plan.merged_result_ids(result)
        return {
            "tuples": sum(len(t.tuples) for t in traces),
            "count": len(keys),
            "digest": result_digest(keys),
        }


WORKLOADS = {
    w.name: w for w in (GrubM5Shed(), QueryZipfAdaptive(), ProcsK2Uniform())
}
