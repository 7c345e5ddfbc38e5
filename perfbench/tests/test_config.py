"""Refusing configurations that make no sense on this machine."""

import json
import os

import pytest

import run
from machine import ConfigError, available_cpus, default_morsel_workers, validate_config


def test_more_workers_than_cpus_is_refused_with_a_structured_error():
    with pytest.raises(ConfigError) as caught:
        validate_config(5, cpus=4)
    record = caught.value.to_dict()
    assert record["error"] == "config"
    assert record["field"] == "morsel_workers"
    assert (record["value"], record["limit"]) == (5, 4)


def test_zero_workers_is_refused():
    with pytest.raises(ConfigError):
        validate_config(0, cpus=4)


def test_default_never_exceeds_the_cpus():
    assert default_morsel_workers(cpus=1) == 1
    assert default_morsel_workers(cpus=8) == 2
    validate_config(default_morsel_workers())


def test_run_refuses_oversubscription_before_measuring(capsys):
    code = run.main(
        [
            "--workload", "eval_sweep", "--seed", "1", "--seconds", "1",
            "--morsel-workers", str(available_cpus() + 1),
        ]
    )
    captured = capsys.readouterr()
    assert code == run.EXIT_REFUSED
    assert captured.out == ""
    assert json.loads(captured.err)["field"] == "morsel_workers"


def test_benchmark_json_names_every_reported_metric():
    from report import END_TO_END, PER_LAYER

    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER
    gated = [w["name"] for w in bench["workloads"]]
    assert set(gated) <= set(run.WORKLOADS)
    assert set(run.WORKLOADS) - set(gated) == {"truth_large"}
