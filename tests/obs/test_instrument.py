"""ObservedOperator: the wrapper forwards every runtime hook."""

from repro.joins import EquiJoin, MJoinOperator
from repro.obs.instrument import ObservedOperator
from repro.testkit import key_workload


def _drive(operator, workload) -> None:
    tuples = sorted(
        (t for trace in workload.traces for t in trace.tuples),
        key=lambda t: (t.timestamp, t.stream, t.seq),
    )
    for tup in tuples:
        operator.process(tup, tup.timestamp)


class TestOnFinish:
    def test_wrapped_flush_equals_bare_flush(self):
        workload = key_workload(seed=1, m=2, rate=20, duration=5,
                                window=2, basic=1, n_keys=200)

        def make():
            return MJoinOperator(EquiJoin(), [2.0, 2.0], 1.0, mode="anti")

        bare = make()
        wrapped = ObservedOperator(make())
        _drive(bare, workload)
        _drive(wrapped, workload)
        bare_out = [r.key() for r in bare.on_finish(6.0)]
        wrapped_out = [r.key() for r in wrapped.on_finish(6.0)]
        assert bare_out, "anti survivors expected at the end-of-run flush"
        assert wrapped_out == bare_out
