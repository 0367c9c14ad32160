"""Toy-size smoke test of the benchmark: every named metric appears with its unit.

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {
    "setup_s": "s", "ingest.records_per_s": "1/s", "train.examples_per_s": "1/s",
    "train.loss": "nats", "checkpoint_s": "s", "predict.questions_per_s": "1/s",
    "predict.ms.p50": "ms", "predict.ms.p90": "ms", "predict.arith_ms.p50": "ms",
    "predict.text_ms.p50": "ms", "predict.em": "fraction", "peak_rss_mb": "MB",
    "failed_ops_frac": "fraction",
}

TOY = {
    "synth-quickstart": dataclasses.replace(
        WORKLOADS["synth-quickstart"], n_heldout=8,
        train=dict(epochs=1, batch=1, grad_accum=1, eval_every=1)),
    "wide-defaults": dataclasses.replace(
        WORKLOADS["wide-defaults"], n_train=4, n_heldout=4,
        train=dict(epochs=1)),
}


def _run(capsys, workload: str, trace: int) -> tuple[int, dict, dict]:
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)], workloads=TOY)
    lines = capsys.readouterr().out.strip().splitlines()
    return code, json.loads("\n".join(lines[:-1])), json.loads(lines[-1])


def _contract() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _check_last_line(code: int, last: dict, contract: list[dict], omitted: dict):
    """Every contract metric is on the last line with its unit, or the
    report says why it is missing and the run exits non-zero."""
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    for m in contract:
        if m["name"] in last["metrics"]:
            assert last["metrics"][m["name"]]["unit"] == m["unit"]
            assert last["metrics"][m["name"]]["value"] >= 0
        else:
            assert omitted[m["name"]]
    assert set(last["metrics"]) <= {m["name"] for m in contract}
    assert code == (0 if len(last["metrics"]) == len(contract) else 1)


@pytest.mark.parametrize("workload", sorted(TOY))
def test_end_to_end_metrics_appear_with_units(capsys, workload):
    code, report, last = _run(capsys, workload, 0)
    for name, unit in END_TO_END.items():
        if name in report["omitted"]:
            assert report["omitted"][name]
            continue
        assert report["end_to_end"][name]["unit"] == unit
        assert report["end_to_end"][name]["samples"] >= 1
    _check_last_line(code, last, _contract()["end_to_end"], report["omitted"])
    assert report["environment"]["seed"] == 3
    assert report["environment"]["blas_thread_env"]["OPENBLAS_NUM_THREADS"] is not None
    assert set(report["input_shape"]) == {"train", "heldout"}


@pytest.mark.parametrize("workload", sorted(TOY))
def test_traced_run_reports_layers_and_reproduces_digests(capsys, workload):
    code, report, last = _run(capsys, workload, 1)
    assert report["checks"]["traced.traced_digests_match"]
    assert report["digests"]["traced"] == report["digests"]["untraced"]
    assert report["trace"]["missing_targets"] == []
    assert report["trace"]["overhead_s"] == (report["trace"]["traced_s"]
                                             - report["trace"]["untraced_s"])
    for name in tracing.METRIC_NAMES:
        assert name in report["per_layer"] or report["per_layer_omitted"][name]
    _check_last_line(code, last, _contract()["per_layer"], report["per_layer_omitted"])


def test_missing_target_is_skipped_with_a_warning(monkeypatch, capsys):
    monkeypatch.setattr(tracing, "TARGETS", tracing.TARGETS + [
        ("docreason.model", "no_such_function", "gone", {})])
    tracer = tracing.Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.missing == ["docreason.model.no_such_function"]
    assert "no_such_function" in capsys.readouterr().err


def test_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "synth-quickstart",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
