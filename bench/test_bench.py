"""Tests of the benchmark itself:  python3 -m pytest bench"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _names(kind):
    return {entry["name"]: entry["unit"] for entry in SPEC[kind]}


def _bench(*args):
    done = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    return done, json.loads(done.stdout.strip().splitlines()[-1]) if done.stdout else None


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_generator_is_deterministic(workload):
    first, second = gen.CATALOGUES[workload](), gen.CATALOGUES[workload]()
    assert first == second
    assert len({op.id for op in first.ops}) == len(first.ops)
    for path, text in first.files.items():
        if path.endswith(".json") and not path.startswith("hostile-"):
            json.loads(text)

    def ids(seed):
        return [op.id for op in gen.epoch(first, workload, seed)]

    assert ids(3) == ids(3)
    assert ids(3) != ids(4)
    assert len(ids(3)) == len({op.slot for op in first.ops})


def test_every_op_has_a_recorded_outcome():
    recorded = json.loads(run.EXPECTED.read_text())
    ids = {op.id for w in gen.WORKLOADS for op in gen.CATALOGUES[w]().ops}
    assert ids == set(recorded)
    for w in gen.WORKLOADS:
        for op in gen.CATALOGUES[w]().ops:
            assert recorded[op.id].startswith(f"{op.exit}:"), op.id


def test_hostile_documents_exit_with_their_expected_code(tmp_path, monkeypatch):
    cli = run.load_cli()
    for workload in ("report", "slice"):
        catalogue = gen.CATALOGUES[workload]()
        for path, text in catalogue.files.items():
            (tmp_path / path).write_text(text)
        monkeypatch.chdir(tmp_path)
        hostile = [op for op in catalogue.ops if op.exit != 0]
        assert hostile
        for op in hostile:
            _, code, _, _, error = run.run_op(cli, op)
            assert error is None and code == op.exit, op.id


def test_symmetric_corners():
    unit = [(0, 0), (4, 0), (3, 3), (1, 6), (0, 7)]
    assert gen.symmetric_corners(3, ["1"] * 3) == [tuple(map(Fraction, p)) for p in unit]
    # a zero level capacity repeats a corner, which is listed once
    assert gen.symmetric_corners(2, ["0", "1"]) == [(0, 0), (1, 0), (0, 1)]


def test_calibrate_scales_by_the_neighbouring_yardsticks():
    nominal = run.yardstick.NOMINAL_S
    runs = [run.OpRun(None, latency, gauge * nominal, 0, [])
            for latency, gauge in [(1.0, 2.0), (1.0, 2.0), (3.0, 9.0), (1.0, 1.0)]]
    run.calibrate(runs)
    # medians of the gauges of each run and its neighbours: 2, 2, 2, 5
    assert [r.scaled for r in runs] == pytest.approx([0.5, 0.5, 1.5, 0.2])


def test_end_to_end_metric_names_match_the_spec():
    done, result = _bench("--workload", "reproduce", "--seed", "5", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == _names("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    for name in got:
        assert any(line.startswith(f"{name} ") for line in done.stdout.splitlines())


def test_per_layer_metric_names_match_the_spec_and_self_times_add_up():
    done, result = _bench("--workload", "report", "--seed", "5", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    metrics = result["metrics"]
    assert {name: m["unit"] for name, m in metrics.items()} == _names("per_layer")
    self_total = sum(m["value"] for name, m in metrics.items()
                     if name == "cli.self_s" or name.endswith(".s"))
    wall = metrics["trace.wall_s"]["value"]
    assert 0.95 * wall <= self_total <= wall
    assert metrics["bounds.instantiate.calls"]["value"] > 0
    assert metrics["polytope.fourier_motzkin.calls"]["value"] == 0


def test_traced_counts_per_pass_do_not_depend_on_the_run_length():
    """One traced pass and several give the same calls and counters."""
    counted, attempted = [], []
    for seconds in ("0.1", "12"):
        done, result = _bench("--workload", "reproduce", "--seed", "7", "--seconds", seconds,
                              "--trace", "1")
        assert done.returncode == 0, done.stderr
        attempted.append(result["attempted"])
        counted.append({name: m["value"] for name, m in result["metrics"].items()
                        if m["unit"] in ("count", "ratio") and name != "trace.overhead_frac"})
    assert attempted[1] >= 2 * attempted[0]
    assert counted[0] == counted[1]
    assert counted[0]["setfn.entropy_function.calls"] > 0


def test_a_wrong_digest_fails_the_run(tmp_path, monkeypatch, capsys):
    recorded = json.loads(run.EXPECTED.read_text())
    for op_id in recorded:
        if op_id.startswith("reproduce/paper/"):
            recorded[op_id] = "0:" + "0" * 20
    tampered = tmp_path / "expected.json"
    tampered.write_text(json.dumps(recorded))
    monkeypatch.setattr(run, "EXPECTED", tampered)
    code = run.main(["--workload", "reproduce", "--seed", "1", "--seconds", "0.1"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1 and not result["correct"] and result["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_text(path.read_text())
    (tmp_path / "bench" / "expected.json").write_text(run.EXPECTED.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, env=env,
    )
    assert done.returncode != 0 and done.stdout == ""
