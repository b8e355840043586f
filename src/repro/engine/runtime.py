"""The single-operator runtime: sources -> buffers -> one operator.

:class:`Simulation` wires stream sources through optional admission
filters (drop operators) into per-stream input buffers, services them with
a single operator on a simulated CPU, and measures the output rate.  It is
a facade over the engine's one event loop
(:func:`repro.engine.graph.run_loop`, whose docstring states the event
semantics): one unlabelled graph node, its measurements mapped onto
:class:`SimulationResult`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .buffers import OutputBuffer
from .cpu import CpuModel
from .graph import GraphNode, NodeResult, run_loop
from .metrics import SimulationResult
from .operator import AdmissionFilter, StreamOperator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs import Obs


@dataclass(frozen=True, slots=True)
class SimulationConfig:
    """Run parameters.

    Attributes:
        duration: virtual seconds to simulate.  Paper default: 60.
        warmup: leading seconds excluded from rate measurement.  Paper: 20.
        adaptation_interval: the paper's ``Delta`` in seconds.
        measure_interval: sampling period for depth/output series.
        buffer_capacity: optional bound on each input buffer.
        on_operator_error: ``"raise"`` propagates operator exceptions
            (default — fail loudly during development); ``"skip"`` charges
            a minimal service, drops the poisoned tuple and keeps the
            stream flowing (production posture: one malformed tuple must
            not take the query down).
    """

    duration: float = 60.0
    warmup: float = 20.0
    adaptation_interval: float = 5.0
    measure_interval: float = 1.0
    buffer_capacity: int | None = None
    on_operator_error: str = "raise"

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not 0 <= self.warmup < self.duration:
            raise ValueError("warmup must lie in [0, duration)")
        if self.adaptation_interval <= 0:
            raise ValueError("adaptation_interval must be positive")
        if self.measure_interval <= 0:
            raise ValueError("measure_interval must be positive")
        if self.on_operator_error not in ("raise", "skip"):
            raise ValueError("on_operator_error must be 'raise' or 'skip'")


class Simulation:
    """Drives one operator over one workload on a simulated CPU.

    Args:
        sources: one source per input stream (anything exposing
            ``iter_tuples(until)`` and a ``stream`` index — live sources
            and recorded traces both qualify).
        operator: the join operator under test.
        cpu: the simulated CPU.
        config: run parameters.
        admission: optional per-stream drop operators; ``None`` entries (or
            omitting the list) mean admit-all.
        retain_outputs: keep the actual result tuples (memory-heavy; tests
            use it, benchmarks do not).
        obs: optional :class:`repro.obs.Obs` telemetry sink.  When given,
            the runtime binds its virtual clock to it, records ``service``
            spans (true busy durations), per-stream arrival/admission/drop
            counters, per-stream queue-depth series, and ``adapt`` spans,
            and calls ``bind_obs`` on the operator and admission filters
            so they populate their own instruments.  ``None`` (default)
            keeps all instrumentation off.
    """

    def __init__(
        self,
        sources: Sequence,
        operator: StreamOperator,
        cpu: CpuModel,
        config: SimulationConfig | None = None,
        admission: Sequence[AdmissionFilter | None] | None = None,
        retain_outputs: bool = False,
        obs: "Obs | None" = None,
    ) -> None:
        if len(sources) != operator.num_streams:
            raise ValueError(
                f"operator expects {operator.num_streams} streams, "
                f"got {len(sources)} sources"
            )
        if admission is not None and len(admission) != len(sources):
            raise ValueError("one admission filter slot per stream required")
        self.sources = list(sources)
        self.operator = operator
        self.cpu = cpu
        self.config = config or SimulationConfig()
        self.admission = (
            list(admission) if admission is not None else [None] * len(sources)
        )
        self.retain_outputs = retain_outputs
        self.obs = obs
        self._node = GraphNode(
            None, operator, self.admission, self.config.buffer_capacity
        )
        self._node.output.retain = retain_outputs
        self._ran = False

    def run(self) -> SimulationResult:
        """Execute the simulation and return its measurements.

        A simulation runs once: its operator keeps the window state the
        run left behind, so a second run could not reproduce the first.
        Build a new :class:`Simulation` (and operator) to run again.
        """
        if self._ran:
            raise RuntimeError(
                "Simulation.run() was already called; a simulation runs "
                "once (its operator keeps its window state) — build a "
                "new Simulation with a fresh operator"
            )
        self._ran = True
        node = self._node
        run_loop(
            [node],
            [(node, source.stream, source) for source in self.sources],
            self.cpu,
            self.config,
            obs=self.obs,
        )
        return self._result(node.result(self.config))

    @property
    def output_buffer(self) -> OutputBuffer:
        """The operator's output buffer (for tests inspecting results)."""
        return self._node.output

    @property
    def operator_errors(self) -> int:
        """Tuples dropped because the operator raised on them ("skip"
        mode)."""
        return self._node.operator_errors

    def _result(self, node: NodeResult) -> SimulationResult:
        cfg = self.config
        return SimulationResult(
            duration=cfg.duration,
            warmup=cfg.warmup,
            output_count=node.output_count - node.output_count_warm,
            output_count_total=node.output_count,
            output_rate=node.output_rate,
            streams=node.streams,
            cpu_utilization=self.cpu.utilization(cfg.duration),
            mean_latency=node.mean_latency,
            queue_depths=node.queue_depth_series,
            throttle_series=node.throttle_series,
            output_series=node.output_series,
            latency_histogram=node.latency_histogram,
        )
