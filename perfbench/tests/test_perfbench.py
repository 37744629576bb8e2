"""Tests of the benchmark itself, at tiny n so they run in seconds:

    python3 -m pytest perfbench/tests
"""

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import pytest

import harness
import reference
from boolgb import cli, groebner, polyring
from conftest import PERFBENCH
from workloads import WORKLOADS

ROOT = os.path.dirname(PERFBENCH)
N = 2


def run(name, tmp_path, traced=False):
    return harness.run(name, seed=7, seconds=1, traced=traced,
                       out_dir=str(tmp_path), n=N)[0]


def test_benchmark_json_names_every_emitted_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert {w["name"] for w in bench["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == harness.PER_LAYER


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced_emits_every_end_to_end_metric(name, tmp_path):
    result = run(name, tmp_path)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 2
    assert set(result["metrics"]) == set(harness.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced_emits_every_per_layer_metric(name, tmp_path):
    original = groebner.buchberger
    result = run(name, tmp_path, traced=True)
    assert result["correct"]
    assert set(result["metrics"]) == set(harness.PER_LAYER)
    assert groebner.buchberger is original  # wrappers are removed again
    assert os.path.isfile(tmp_path / f"trace-{name}-7.json")
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if name.startswith("gb-"):
        assert metrics["groebner.pairs_reduced"] > metrics["groebner.reductions_to_zero"] > 0
        assert metrics["groebner.mono_divides_calls"] > 0
        assert metrics["cli.gb_s"] > 0 or "full" in name
    else:
        assert metrics["oracle.enumerate_solutions_s"] > 0
        assert metrics["groebner.normal_form_s"] > 0


def _drop_first(interreduce):
    def dropped(G, strict=False):
        basis = interreduce(G, strict)
        return groebner.GroebnerBasis(basis.elements[1:], basis.order, reduced=True)
    return dropped


@pytest.mark.parametrize("name", ["gb-full-deglex", "gb-boolean-degrevlex"])
def test_gate_catches_a_missing_basis_element(name, tmp_path, monkeypatch):
    dropped = _drop_first(groebner.interreduce)
    monkeypatch.setattr(groebner, "interreduce", dropped)
    monkeypatch.setattr(cli, "interreduce", dropped)
    result = run(name, tmp_path)
    assert not result["correct"]
    assert result["failed"] / result["attempted"] > 0


def test_gate_catches_flipped_query_answers(tmp_path, monkeypatch):
    original = groebner.normal_form

    def says_member(f, G, *args):
        original(f, G, *args)
        return polyring.poly_zero(f.nvars)

    monkeypatch.setattr(groebner, "normal_form", says_member)
    result = run("certify-query", tmp_path)
    assert not result["correct"]
    assert 0 < result["failed"] < result["attempted"]


def test_exceptions_count_as_failures_and_exit_nonzero(tmp_path, monkeypatch, capsys):
    def refuse(*args, **kwargs):
        raise groebner.ResourceLimitError("pair cap exceeded (test)")

    monkeypatch.setattr(groebner, "buchberger", refuse)
    monkeypatch.setattr(harness, "N", N)
    code = harness.main(["--workload", "gb-full-deglex", "--seed", "1",
                         "--seconds", "1"], 0.0, str(tmp_path))
    assert code != 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["failed"] == result["attempted"] > 0


def test_fails_without_printing_outside_a_source_checkout(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gb-full-deglex",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_host_speed_sampling_leaves_no_timer_behind():
    before = signal.getsignal(signal.SIGALRM)
    with reference.HostSpeed() as speed:
        deadline = time.perf_counter() + 2.5 * reference.INTERVAL_S
        while time.perf_counter() < deadline:
            pass
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(speed.samples) >= 2
    assert speed.scale(2.0) == pytest.approx(2 * speed.scale(1.0))
