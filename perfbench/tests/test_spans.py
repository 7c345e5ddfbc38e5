"""Span self-time arithmetic."""

import pytest

from spans import Tracer, layer_of, patched


class FakeClock:
    def __init__(self, ticks):
        self._ticks = iter(ticks)

    def __call__(self):
        return next(self._ticks)


def test_layer_is_the_prefix():
    assert layer_of("core.eligible") == "core"
    assert layer_of("bench") == "bench"


def test_self_times_subtract_direct_children_and_sum_to_the_op():
    #            op  parse      build  elig       elig      /build  /op
    clock = FakeClock([0.0, 1.0, 3.0, 4.0, 4.5, 5.0, 6.0, 6.5, 8.0, 10.0])
    tracer = Tracer(clock)
    with tracer.root("op-1"):
        with tracer.span("sql.parse"):
            pass
        with tracer.span("core.estimator_build"):
            with tracer.span("core.eligible", keep=False):
                pass
            with tracer.span("optimizer.cost", keep=False):
                pass
    (op_id, kind, duration, by_layer), = tracer.roots
    assert (op_id, kind, duration) == ("op-1", "op", 10.0)
    assert by_layer["sql"] == pytest.approx(2.0)
    # build ran 4.0 -> 8.0 with children of 0.5 and 0.5 inside it.
    assert by_layer["core"] == pytest.approx(3.0 + 0.5)
    assert by_layer["optimizer"] == pytest.approx(0.5)
    assert by_layer["bench"] == pytest.approx(10.0 - 2.0 - 4.0)
    assert sum(by_layer.values()) == pytest.approx(duration)
    assert tracer.self_totals["core.estimator_build"] == pytest.approx(3.0)
    assert tracer.totals["core.estimator_build"] == pytest.approx(4.0)
    assert tracer.calls["core.eligible"] == 1


def test_unkept_spans_count_but_leave_no_record():
    tracer = Tracer()
    with tracer.root("op"):
        for _ in range(3):
            with tracer.span("core.eligible", keep=False):
                pass
    assert tracer.calls["core.eligible"] == 3
    assert [name for _, name, _, _, _ in tracer.records] == ["bench.op"]


def test_kept_records_name_their_parent_and_op():
    tracer = Tracer()
    with tracer.root("op-7"):
        with tracer.span("analysis.truth"):
            with tracer.span("execution.columnar"):
                pass
    by_name = {name: (op, parent) for op, name, _, _, parent in tracer.records}
    assert by_name["execution.columnar"] == ("op-7", "analysis.truth")
    assert by_name["analysis.truth"] == ("op-7", "bench.op")
    assert by_name["bench.op"] == ("op-7", None)


def test_roots_do_not_nest():
    tracer = Tracer()
    with tracer.root("outer"):
        with pytest.raises(RuntimeError):
            with tracer.root("inner"):
                pass


def test_wrap_and_patched_restore_the_original():
    class Owner:
        @staticmethod
        def work(x):
            return x * 2

    tracer = Tracer()
    original = Owner.work
    with patched(Owner, "work", tracer.wrap(original, "core.work")):
        with tracer.root("op"):
            assert Owner.work(21) == 42
    assert Owner.work is original
    assert tracer.calls["core.work"] == 1
