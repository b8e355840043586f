"""Dataflow-graph runtime and the one event loop every runtime shares.

:class:`DataflowGraph` runs operator *graphs* — filters upstream,
aggregations downstream, several queries sharing the machine, as on the
paper's System S host: named nodes wrapping operators, edges carrying one
node's outputs into another's input buffer, and a scheduler that serves
all nodes from one CPU (globally oldest buffered tuple first, so no node
can indefinitely starve another with equal load).
:class:`repro.engine.runtime.Simulation` is the one-node case.

Edges may carry a ``transform`` turning an upstream output (e.g. a
``JoinResult``) into the ``StreamTuple`` the downstream operator expects;
pass-through is the default for outputs that already are stream tuples.
Edges may also carry a ``filter`` predicate evaluated on the *raw*
upstream output (before the transform): only outputs it accepts travel
the edge.  Filters are what makes partitioned fan-out possible — a
router node emits routed outputs once, and each router->shard edge picks
out the outputs addressed to its shard (see :mod:`repro.parallel`).

Event semantics (:func:`run_loop`)
----------------------------------

* ``ARRIVAL`` — a tuple reaches a node input's admission filter (drop
  operator); if admitted it is pushed to that input's buffer, and idle
  cores start serving.
* ``COMPLETION`` — an operator finishes one tuple.  Its result records
  (:class:`JoinResult`, :class:`AggregateResult`) are stamped with the
  emission time, counted, and delivered along the node's out-edges like
  arrivals; then the next buffered tuples begin service.  Stream tuples
  keep their arrival timestamps.
* ``ADAPT`` — every ``adaptation_interval`` virtual seconds each
  operator's :meth:`on_adapt` runs with its buffers' push/pop counts,
  after which the interval counters reset.  This is the paper's
  ``Delta``.
* ``MEASURE`` — statistics sampling (queue depths, cumulative output).
* ``STOP`` — at ``duration``; remaining events are discarded.  Every
  node's :meth:`on_finish` flush then runs in topological order; flushed
  outputs are stamped and counted, and pass along out-edges straight
  into the downstream operators' :meth:`process` with no CPU charge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Iterator, Sequence

from repro.obs.registry import Histogram, label_key
from repro.streams.tuples import AggregateResult, JoinResult, StreamTuple

from .buffers import InputBuffer, OutputBuffer
from .clock import VirtualClock
from .cpu import CpuModel
from .events import EventKind, EventQueue
from .metrics import StreamCounters, TimeSeries
from .operator import AdmissionFilter, ProcessReceipt, StreamOperator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Obs

    from .runtime import SimulationConfig

#: outputs stamped with their emission time at completion
_RESULT_RECORDS = (JoinResult, AggregateResult)


class SchedulingPolicy(str, Enum):
    """How the shared CPU picks the next tuple to service.

    * ``OLDEST`` — globally oldest buffered tuple first: approximates
      processing in arrival order across the whole graph, so no equally
      loaded node starves another.
    * ``ROUND_ROBIN`` — cycle through nodes with pending work: fair in
      *servicing opportunities*, which favours cheap operators when an
      expensive one hogs time per tuple.
    * ``PRIORITY`` — highest ``add_node(priority=...)`` first; within a
      priority level, oldest head.  Lets a latency-critical query preempt
      batchy neighbours.
    """

    OLDEST = "oldest"
    ROUND_ROBIN = "round-robin"
    PRIORITY = "priority"


@dataclass(slots=True)
class Edge:
    """Directed connection: source node's outputs feed a target input.

    ``filter`` (if given) sees each raw upstream output and returns True
    for the outputs this edge should carry; ``transform`` then converts
    the accepted output into the :class:`StreamTuple` the target consumes.
    """

    source: str
    target: str
    target_input: int
    transform: Callable[[Any], StreamTuple] | None = None
    filter: Callable[[Any], bool] | None = None


@dataclass
class NodeResult:
    """Per-node measurements of a run."""

    name: str
    output_count: int = 0
    output_count_warm: int = 0
    output_rate: float = 0.0
    consumed: int = 0
    queue_depth_series: list[TimeSeries] = field(default_factory=list)
    #: raw operator outputs in emission order; populated only when the
    #: graph ran with ``retain_outputs=True`` (memory-heavy — used by the
    #: testkit's differential harness, not by benchmarks)
    outputs: list[Any] = field(default_factory=list)
    #: per-input accounting: arrivals, admissions, drops, consumption
    streams: list[StreamCounters] = field(default_factory=list)
    #: tuples dropped because the operator raised on them ("skip" mode)
    operator_errors: int = 0
    #: mean arrival-to-completion delay of serviced tuples
    mean_latency: float = 0.0
    latency_histogram: Histogram | None = None
    #: the operator's throttle fraction ``z`` at each adaptation tick
    throttle_series: TimeSeries = field(default_factory=TimeSeries)
    #: cumulative output count sampled at measure ticks
    output_series: TimeSeries = field(default_factory=TimeSeries)


@dataclass
class GraphResult:
    """Outcome of one :meth:`DataflowGraph.run`."""

    nodes: dict[str, NodeResult]
    cpu_utilization: float
    duration: float
    warmup: float


def tick_times(interval: float, until: float = math.inf) -> Iterator[float]:
    """Tick instants ``interval, 2 * interval, ...`` up to ``until``.

    Accumulated by repeated float addition: the one tick cadence of every
    runtime, so a runtime replaying another's ticks lands on bit-identical
    instants.
    """
    t = interval
    while t <= until:
        yield t
        t += interval


class GraphNode:
    """One operator, its input buffers and what a run measures on it.

    ``name=None`` makes an unlabelled node (the :class:`Simulation`
    facade's); a named node stamps ``node=<name>`` on its instruments and
    spans.  Per-input instruments carry ``stream=<input>``.
    """

    def __init__(
        self,
        name: str | None,
        operator: StreamOperator,
        admission: Sequence[AdmissionFilter | None] | None = None,
        buffer_capacity: int | None = None,
        priority: int = 0,
    ) -> None:
        self.name = name
        self.operator = operator
        self.priority = priority
        self.labels = {} if name is None else {"node": name}
        inputs = range(operator.num_streams)
        self.buffers = [InputBuffer(i, buffer_capacity) for i in inputs]
        if admission is None:
            admission = [None] * operator.num_streams
        if len(admission) != operator.num_streams:
            raise ValueError(
                f"node {name!r}: one admission slot per input required"
            )
        self.admission = list(admission)
        self.edges: list[Edge] = []
        self.output = OutputBuffer(retain=False)
        #: output count when the warm-up ended (None while warming up)
        self.warm_start: int | None = None
        self.counters = [StreamCounters() for _ in inputs]
        self.operator_errors = 0
        #: always-on latency distribution (log2 buckets; cheap to fill)
        self.latency_hist = Histogram(
            "tuple_latency_seconds", label_key(self.labels)
        )
        self.queue_series = [TimeSeries() for _ in inputs]
        self.throttle_series = TimeSeries()
        self.output_series = TimeSeries()
        # cached obs instrument handles (populated by bind_obs)
        self.obs_arrived = None
        self.obs_admitted = None
        self.obs_dropped = None
        self.obs_depth = None

    def bind_obs(self, obs: "Obs") -> None:
        """Wire the telemetry sink: cached handles, operator, gates."""
        obs.registry.register(self.latency_hist)
        labels = self.labels
        inputs = range(len(self.buffers))
        self.obs_arrived = [
            obs.counter("stream_arrived_total", **labels, stream=i)
            for i in inputs
        ]
        self.obs_admitted = [
            obs.counter("stream_admitted_total", **labels, stream=i)
            for i in inputs
        ]
        self.obs_dropped = [
            {
                reason: obs.counter(
                    "stream_dropped_total", **labels, stream=i,
                    reason=reason,
                )
                for reason in ("admission", "buffer")
            }
            for i in inputs
        ]
        self.obs_depth = [
            obs.series("queue_depth", **labels, stream=i) for i in inputs
        ]
        self.operator.bind_obs(obs, **labels)
        for i, gate in enumerate(self.admission):
            if gate is not None:
                gate.bind_obs(obs, **labels, stream=i)

    def deliver(self, i: int, tup: StreamTuple, now: float) -> bool:
        """Offer ``tup`` to input ``i``; False when its admission filter
        drops it (a full buffer drops it too, but only after admission)."""
        counters = self.counters[i]
        counters.arrived += 1
        if self.obs_arrived is not None:
            self.obs_arrived[i].inc()
        gate = self.admission[i]
        if gate is not None and not gate.admit(tup, now):
            counters.dropped_at_admission += 1
            if self.obs_dropped is not None:
                self.obs_dropped[i]["admission"].inc()
            return False
        if self.buffers[i].push(tup):
            counters.admitted += 1
            if self.obs_admitted is not None:
                self.obs_admitted[i].inc()
        else:
            counters.dropped_at_buffer += 1
            if self.obs_dropped is not None:
                self.obs_dropped[i]["buffer"].inc()
        return True

    def oldest_buffer(self) -> InputBuffer | None:
        """The non-empty buffer whose head tuple is oldest."""
        best = None
        best_ts = math.inf
        for buf in self.buffers:
            head = buf.head()
            if head is not None and head.timestamp < best_ts:
                best, best_ts = buf, head.timestamp
        return best

    def process(self, tup: StreamTuple, now: float,
                on_error: str) -> ProcessReceipt:
        """Run the operator on ``tup`` under the run's error policy."""
        try:
            return self.operator.process(tup, now)
        except Exception:
            if on_error == "raise":
                raise
            self.operator_errors += 1
            return ProcessReceipt(comparisons=0, outputs=[])

    def emit(self, outputs: list, now: float, warmup: float) -> None:
        """Stamp and count ``outputs`` released at ``now``."""
        for out in outputs:
            if isinstance(out, _RESULT_RECORDS):
                out.timestamp = now
        self.output.push_many(outputs)
        if self.warm_start is None and now >= warmup:
            self.warm_start = self.output.count - len(outputs)

    def adapt(self, now: float, interval: float) -> None:
        stats = [buf.interval_stats() for buf in self.buffers]
        self.operator.on_adapt(now, stats, interval)
        for i, gate in enumerate(self.admission):
            if gate is not None:
                gate.on_adapt(now, stats[i].push_rate(interval))
        for buf in self.buffers:
            buf.reset_interval()
        throttle = getattr(self.operator, "throttle_fraction", None)
        if throttle is not None:
            self.throttle_series.append(now, throttle)

    def measure(self, now: float) -> None:
        for i, buf in enumerate(self.buffers):
            self.queue_series[i].append(now, len(buf))
            if self.obs_depth is not None:
                self.obs_depth[i].observe(now, len(buf))
        self.output_series.append(now, self.output.count)

    def result(self, config: "SimulationConfig") -> NodeResult:
        count = self.output.count
        warm_start = count if self.warm_start is None else self.warm_start
        window = config.duration - config.warmup
        return NodeResult(
            name=self.name,
            output_count=count,
            output_count_warm=warm_start,
            output_rate=(count - warm_start) / window if window > 0 else 0.0,
            consumed=sum(c.consumed for c in self.counters),
            queue_depth_series=self.queue_series,
            outputs=self.output.results,
            streams=self.counters,
            operator_errors=self.operator_errors,
            mean_latency=(
                self.latency_hist.sum / self.latency_hist.count
                if self.latency_hist.count
                else 0.0
            ),
            latency_histogram=self.latency_hist,
            throttle_series=self.throttle_series,
            output_series=self.output_series,
        )


def _edge_tuples(edge: Edge, outputs: list) -> Iterator[StreamTuple]:
    """The stream tuples ``edge`` carries for a batch of outputs."""
    for out in outputs:
        if edge.filter is not None and not edge.filter(out):
            continue
        tup = edge.transform(out) if edge.transform is not None else out
        if not isinstance(tup, StreamTuple):
            raise TypeError(
                f"edge {edge.source!r}->{edge.target!r} delivered a "
                "non-StreamTuple; provide a transform"
            )
        yield tup


def _topological(nodes: Sequence[GraphNode],
                 by_name: dict) -> list[GraphNode]:
    """``nodes`` with every edge's source before its target; nodes on a
    cycle (only possible in an unvalidated graph) keep insertion order."""
    indegree = {node.name: 0 for node in nodes}
    for node in nodes:
        for edge in node.edges:
            indegree[edge.target] += 1
    order = [node for node in nodes if indegree[node.name] == 0]
    for node in order:  # grows while iterating
        for edge in node.edges:
            indegree[edge.target] -= 1
            if indegree[edge.target] == 0:
                order.append(by_name[edge.target])
    return order + [node for node in nodes if node not in order]


def _scheduler(
    nodes: Sequence[GraphNode], policy: SchedulingPolicy
) -> Callable[[], tuple[GraphNode, InputBuffer] | None]:
    """The ``pick`` function serving ``policy`` over ``nodes``."""
    if policy is SchedulingPolicy.ROUND_ROBIN:
        rr_next = 0

        def pick_round_robin():
            nonlocal rr_next
            for offset in range(len(nodes)):
                k = (rr_next + offset) % len(nodes)
                buf = nodes[k].oldest_buffer()
                if buf is not None:
                    rr_next = (k + 1) % len(nodes)
                    return nodes[k], buf
            return None

        return pick_round_robin

    by_priority = policy is SchedulingPolicy.PRIORITY

    def pick():
        best = None
        best_key = None
        for node in nodes:
            buf = node.oldest_buffer()
            if buf is None:
                continue
            age = -buf.head().timestamp
            key = (node.priority, age) if by_priority else age
            if best is None or key > best_key:
                best, best_key = (node, buf), key
        return best

    return pick


def run_loop(
    nodes: Sequence[GraphNode],
    sources: Sequence[tuple[GraphNode, int, Any]],
    cpu: CpuModel,
    config: "SimulationConfig",
    policy: SchedulingPolicy = SchedulingPolicy.OLDEST,
    obs: "Obs | None" = None,
) -> None:
    """Run ``nodes`` for ``config.duration`` virtual seconds on ``cpu``.

    The engine's one event loop (see the module docstring for the event
    semantics).  ``sources`` are ``(node, input_index, source)``
    attachments; edges are read from the nodes.  Measurements accumulate
    on the nodes — read them with :meth:`GraphNode.result`.  ``obs``
    binds the sink to the run's virtual clock and to every node.
    """
    policy = SchedulingPolicy(policy)
    by_name = {node.name: node for node in nodes}
    duration = config.duration
    warmup = config.warmup
    interval = config.adaptation_interval
    on_error = config.on_operator_error
    clock = VirtualClock()
    events = EventQueue()
    if obs is not None:
        obs.bind_clock(lambda: clock.now)
        for node in nodes:
            node.bind_obs(obs)

    for node, input_index, source in sources:
        for tup in source.iter_tuples(duration):
            events.push(
                tup.delivery_time, EventKind.ARRIVAL,
                (node, input_index, tup),
            )
    for t in tick_times(interval, duration):
        events.push(t, EventKind.ADAPT)
    for t in tick_times(config.measure_interval, duration):
        events.push(t, EventKind.MEASURE)
    events.push(duration, EventKind.STOP)

    pick = _scheduler(nodes, policy)

    def fill_cores(now: float) -> None:
        """Start services until every core is busy or the buffers drain."""
        while cpu.idle_cores(now) > 0:
            choice = pick()
            if choice is None:
                return
            node, buf = choice
            tup = buf.pop()
            node.counters[buf.stream].consumed += 1
            receipt = node.process(tup, now, on_error)
            done = cpu.begin(now, receipt.comparisons)
            if obs is not None:
                obs.spans.record(
                    "service",
                    start=now,
                    end=done,
                    labels={**node.labels, "stream": str(tup.stream)},
                    attrs={
                        "seq": tup.seq,
                        "comparisons": receipt.comparisons,
                        "outputs": len(receipt.outputs),
                    },
                )
            events.push(
                done, EventKind.COMPLETION, (node, receipt.outputs, tup)
            )

    def adapt_all(now: float) -> None:
        for node in nodes:
            node.adapt(now, interval)

    while events:
        event = events.pop()
        if event.time > duration:
            break
        clock.advance_to(event.time)
        now = clock.now
        kind = event.kind
        if kind is EventKind.ARRIVAL:
            node, input_index, tup = event.payload
            if node.deliver(input_index, tup, now):
                fill_cores(now)
        elif kind is EventKind.COMPLETION:
            node, outputs, probe = event.payload
            node.emit(outputs, now, warmup)
            node.latency_hist.observe(now - probe.timestamp)
            for edge in node.edges:
                target = by_name[edge.target]
                for tup in _edge_tuples(edge, outputs):
                    target.deliver(edge.target_input, tup, now)
            fill_cores(now)
        elif kind is EventKind.ADAPT:
            if obs is not None:
                with obs.span("adapt"):
                    adapt_all(now)
            else:
                adapt_all(now)
        elif kind is EventKind.MEASURE:
            for node in nodes:
                node.measure(now)
        else:  # STOP
            break

    def release(node: GraphNode, outputs: list) -> None:
        """Flush-time path: stamp, count, and push through downstream
        operators directly (no buffers, no CPU charge)."""
        node.emit(outputs, duration, warmup)
        for edge in node.edges:
            target = by_name[edge.target]
            for tup in _edge_tuples(edge, outputs):
                receipt = target.process(tup, duration, on_error)
                if receipt.outputs:
                    release(target, receipt.outputs)

    for node in _topological(nodes, by_name):
        outputs = node.operator.on_finish(duration)
        if outputs:
            release(node, outputs)


class DataflowGraph:
    """A DAG of stream operators executed on one shared CPU."""

    def __init__(self) -> None:
        self._nodes: dict[str, GraphNode] = {}
        self._sources: list[tuple[str, int, Any]] = []
        self._edges: list[Edge] = []
        self._ran = False

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------

    def add_node(
        self,
        name: str,
        operator: StreamOperator,
        admission: Sequence[AdmissionFilter | None] | None = None,
        buffer_capacity: int | None = None,
        priority: int = 0,
    ) -> None:
        """Register an operator under a unique name.

        ``priority`` matters only under the PRIORITY scheduling policy
        (higher runs first).
        """
        if name in self._nodes:
            raise ValueError(f"duplicate node name {name!r}")
        self._nodes[name] = GraphNode(name, operator, admission,
                                      buffer_capacity, priority)

    def add_source(self, node: str, input_index: int, source: Any) -> None:
        """Attach an external stream source to a node input."""
        self._check_input(node, input_index)
        self._sources.append((node, input_index, source))

    def connect(
        self,
        source: str,
        target: str,
        target_input: int = 0,
        transform: Callable[[Any], StreamTuple] | None = None,
        filter: Callable[[Any], bool] | None = None,
    ) -> None:
        """Wire one node's outputs into another node's input buffer.

        ``filter`` restricts the edge to the upstream outputs it accepts
        (evaluated on the raw output, before ``transform``) — the
        building block for partitioned fan-out.
        """
        if source not in self._nodes:
            raise ValueError(f"unknown source node {source!r}")
        self._check_input(target, target_input)
        edge = Edge(source, target, target_input, transform, filter)
        self._nodes[source].edges.append(edge)
        self._edges.append(edge)

    # ------------------------------------------------------------------
    # introspection (consumed by the static plan analyzer)
    # ------------------------------------------------------------------

    def node_operators(self) -> dict[str, StreamOperator]:
        """Mapping of node name -> operator (insertion order preserved)."""
        return {name: node.operator for name, node in self._nodes.items()}

    def edge_list(self) -> list[Edge]:
        """All registered edges."""
        return list(self._edges)

    def source_list(self) -> list[tuple[str, int, Any]]:
        """All ``(node, input_index, source)`` attachments."""
        return list(self._sources)

    def queue_depth(self, name: str) -> int:
        """Total buffered tuples across a node's input buffers right now.

        Adaptive routers use this (via a depth probe closure) to observe
        per-shard backlog at adaptation ticks and rebalance accordingly.
        """
        if name not in self._nodes:
            raise ValueError(f"unknown node {name!r}")
        return sum(len(buf) for buf in self._nodes[name].buffers)

    def validate(self, assumptions=None):
        """Run the static plan analyzer over this graph.

        Returns a :class:`repro.lint.plan.PlanReport`; pass
        ``assumptions`` (a :class:`repro.lint.plan.HarvestAssumptions`)
        to additionally check harvest feasibility (P106).
        """
        from repro.lint.plan import analyze_graph

        return analyze_graph(self, assumptions)

    def _check_input(self, node: str, input_index: int) -> None:
        if node not in self._nodes:
            raise ValueError(f"unknown node {node!r}")
        n_inputs = self._nodes[node].operator.num_streams
        if not 0 <= input_index < n_inputs:
            raise ValueError(
                f"node {node!r} has inputs 0..{n_inputs - 1}, "
                f"got {input_index}"
            )


    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def run(
        self,
        cpu: CpuModel,
        config: "SimulationConfig | None" = None,
        policy: SchedulingPolicy = SchedulingPolicy.OLDEST,
        validate: bool = True,
        retain_outputs: bool = False,
        obs=None,
    ) -> GraphResult:
        """Execute the whole graph for ``config.duration`` virtual seconds.

        ``validate=True`` (the default) first runs the static plan
        analyzer and raises :class:`repro.lint.plan.PlanValidationError`
        on ERROR-level findings (cycles, missing edge transforms,
        non-divisible windows, ...) instead of failing mid-simulation.

        ``retain_outputs=True`` keeps every node's raw outputs on its
        :class:`NodeResult` so correctness harnesses can diff actual
        result sets, not just counts.

        ``obs`` (a :class:`repro.obs.Obs`) turns on instrumentation:
        every node's operator and admission filters are bound with a
        ``node=<name>`` label, node-labeled ``service`` spans, stream
        counters and queue-depth series are recorded, and the virtual
        clock is bound to the sink.  ``None`` (default) keeps
        instrumentation off.

        A graph runs once: its operators keep the window state the run
        left behind, so a second run could not reproduce the first.
        Build a new graph (and operators) to run again.
        """
        if self._ran:
            raise RuntimeError(
                "DataflowGraph.run() was already called; a graph runs "
                "once (its operators keep their window state) — build a "
                "new graph with fresh operators"
            )
        if validate:
            self.validate().raise_for_errors()
        self._ran = True
        if config is None:
            from .runtime import SimulationConfig

            config = SimulationConfig()
        nodes = list(self._nodes.values())
        for node in nodes:
            node.output.retain = retain_outputs
        run_loop(
            nodes,
            [(self._nodes[name], i, src) for name, i, src in self._sources],
            cpu,
            config,
            policy,
            obs,
        )
        return GraphResult(
            nodes={node.name: node.result(config) for node in nodes},
            cpu_utilization=cpu.utilization(config.duration),
            duration=config.duration,
            warmup=config.warmup,
        )
