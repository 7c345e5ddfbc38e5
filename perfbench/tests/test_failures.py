"""Failed checks and raising ops are counted, never raised."""

from loop import Item, OpResult, Workload, run_phase
from wl_truth_large import count_failures


def test_injected_wrong_count_is_a_failed_op():
    results = [
        OpResult("0/chain", "chain", 0.1, 512000),
        OpResult("0/tpch", "tpch", 0.1, 999),  # injected: the engines say 1000
        OpResult("1/chain", "chain", 0.1, 512000),
    ]
    expected = {
        "chain": {"parallel_wN": 512000, "row": 512000},
        "tpch": {"parallel_wN": 1000, "row": 1000},
    }
    failures = count_failures(results, expected)
    assert [op_id for op_id, _ in failures] == ["0/tpch"]
    assert "999" in failures[0][1]


def test_a_count_that_disagrees_with_one_engine_fails():
    results = [OpResult("0/q", "q", 0.1, 7)]
    failures = count_failures(results, {"q": {"parallel_wN": 7, "row": 8}})
    assert len(failures) == 1 and "row" in failures[0][1]


class _Flaky(Workload):
    name = "flaky"

    def __init__(self):
        self.calls = 0

    def pass_items(self, state, pass_index):
        return [Item("ok", 1), Item("boom", 2)]

    def run(self, state, item):
        self.calls += 1
        if item.key == "boom":
            raise ValueError("injected")
        return item.data


class _Ticks:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_a_raising_op_is_recorded_and_the_loop_goes_on():
    workload = _Flaky()
    results, elapsed = run_phase(workload, None, seconds=20.0, clock=_Ticks())
    errors = [r for r in results if r.error is not None]
    assert errors and all(r.key == "boom" for r in errors)
    assert "ValueError: injected" in errors[0].error
    assert len(results) == workload.calls
    # Whole passes: every pass ran both items.
    assert len(results) % 2 == 0 and len(results) > 2
    assert elapsed > 0
