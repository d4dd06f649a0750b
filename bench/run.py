"""cutbounds benchmark: a closed loop of CLI operations with one client.

    python3 bench/run.py --workload {report,slice,reproduce} --seed N \
        --seconds S --trace {0,1}
    python3 bench/run.py --record

Run from the root of a checkout.  Each operation is one
`cutbounds.cli.main(argv)` call made in this process, with stdout captured;
its exit code and output digest are compared with `expected.json` and, where
one applies, with an oracle computed here.  The seed picks an epoch of
operations (see `gen.py`); the loop runs whole passes over it, each in a
fresh seeded order, until `--seconds` have passed, so every run does the
same mix of cheap and expensive work.

`--trace 0` prints the end-to-end metrics, an op's latency being the
median of its runs.  Timings are scaled to a machine of fixed speed by a
yardstick loop timed around every op (`yardstick.py`); the wall-clock
figures are printed beside them.  `--trace 1` prints the per-layer ones per pass: whole
traced passes over the same epoch until half of `--seconds` has passed,
then an untraced replay of the same passes, which gives the tracing
overhead.  The last line of stdout is one JSON object; the exit code is 1
when any operation failed.  `--record` runs every catalogued operation once
and rewrites `expected.json`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
EXPECTED = BENCH / "expected.json"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import spans  # noqa: E402
import yardstick  # noqa: E402

SETUP_REPEATS = 21
SETUP_PROBE = (
    "import sys, time, statistics; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import cutbounds.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import yardstick; y = statistics.median(yardstick.measure() for _ in range(5)); "
    "print(t, y, cutbounds.cli.__file__)"
)
TAIL_BEYOND = 10


def load_cli():
    """Import cutbounds.cli from this checkout's src, never from elsewhere."""
    package = SRC / "cutbounds"
    if not (package / "cli.py").is_file():
        sys.exit(f"error: no program source at {package}; run from a checkout")
    sys.path.insert(0, str(SRC))
    from cutbounds import cli

    if Path(cli.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported cutbounds from {cli.__file__}, not {package}")
    return cli


def measure_setup() -> float:
    """Median time for a fresh interpreter to import cutbounds.cli, each
    import scaled by the yardstick timed right after it in that interpreter."""
    samples = []
    for _ in range(SETUP_REPEATS):
        probe = subprocess.run(
            [sys.executable, "-I", "-c", SETUP_PROBE, str(SRC), str(BENCH)],
            capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, gauge, path = probe.stdout.split()
        if Path(path).resolve().parent != (SRC / "cutbounds").resolve():
            sys.exit(f"error: setup probe imported {path}")
        samples.append(float(seconds) * yardstick.NOMINAL_S / float(gauge))
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# one operation


@dataclass
class OpRun:
    op: gen.Op
    latency: float  # wall seconds
    gauge: float  # yardstick seconds, the mean of one run before and one after
    rows: int
    problems: list
    scaled: float = 0.0  # latency at the yardstick's nominal speed; see `calibrate`


def run_op(cli, op):
    """Returns (latency, exit code or None, stdout, out-file text or None,
    traceback or None)."""
    if op.out and os.path.exists(op.out):
        os.remove(op.out)
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(list(op.argv))
    except Exception:  # a traceback fails the op; the loop goes on
        code, error = None, traceback.format_exc()
    latency = time.perf_counter() - start
    written = None
    if op.out and os.path.exists(op.out):
        with open(op.out, encoding="utf-8") as handle:
            written = handle.read()
        os.remove(op.out)
    return latency, code, stdout.getvalue(), written, error


def digest(code, text: str, written) -> str:
    body = text + "\0" + ("<no file>" if written is None else written)
    return f"{code}:{hashlib.sha256(body.encode()).hexdigest()[:20]}"


def oracle_problems(op, text: str, written) -> list:
    """Checks computed independently of the program and of expected.json."""
    problems = []
    command = op.argv[0]
    if op.oracle and op.oracle[0] == "symmetric":
        _, K, caps = op.oracle
        csv = written if written is not None else text
        want = ["x,y"] + [f"{x},{y}" for x, y in gen.symmetric_corners(K, caps)]
        got = [line for line in csv.splitlines() if "," in line]
        if got != want:
            problems.append(f"vertices {got} differ from the closed-form corners {want}")
    elif command == "verify" and op.exit == 0:
        if not re.search(r"\b(violations|failures)=0$", text, re.MULTILINE):
            problems.append("campaign reports violations or failures")
    elif command == "paper" and text != f"{op.argv[-1]}: match\n":
        problems.append(f"paper case does not match: {text!r}")
    return problems


def output_rows(op, code, text: str, written) -> int:
    """Result rows an op produced: report rows (bounds), vertices (region),
    trials and identity cases checked (verify), one table (paper)."""
    if code != 0:
        return 0
    body = written if written is not None else text
    command = op.argv[0]
    if command == "bounds":
        return body.count('"provenance"')
    if command == "region":
        return sum(1 for line in body.splitlines() if "," in line) - 1
    if command == "verify":
        checked = re.search(r"checked=(\d+)", text)
        if checked:
            return int(checked.group(1))
        return int(op.argv[op.argv.index("--trials") + 1])
    return 1


def execute(cli, op, expected):
    """Runs one op between two yardstick runs and checks it; returns an
    `OpRun`."""
    before = yardstick.measure()
    latency, code, text, written, error = run_op(cli, op)
    gauge = (before + yardstick.measure()) / 2
    problems = []
    if error is not None:
        problems.append(f"raised:\n{error}")
    if code != op.exit:
        problems.append(f"exit {code}, expected {op.exit}")
    seen = digest(code, text, written)
    if expected.get(op.id) != seen:
        problems.append(f"digest {seen}, recorded {expected.get(op.id)}")
    problems += oracle_problems(op, text, written)
    return OpRun(op, latency, gauge, output_rows(op, code, text, written), problems)


# ---------------------------------------------------------------------------
# loops and metrics


def closed_loop(cli, epoch, seconds: float, expected, shuffle, on_op=None):
    """Runs whole passes over the epoch, each in a fresh seeded order, until
    `seconds` have passed.  Returns the op runs, the number of passes and
    the elapsed wall time."""
    runs = []
    passes = 0
    start = time.perf_counter()
    while True:
        for op in shuffle.sample(epoch, len(epoch)):
            runs.append(execute(cli, op, expected))
            if on_op is not None:
                on_op(runs[-1])
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return runs, passes, elapsed


def calibrate(runs) -> None:
    """Sets each op run's `scaled` latency: its wall time times the
    yardstick's nominal time over the median yardstick time of the op run
    and its two neighbours.  The machine's speed changes over seconds, so
    the yardsticks next to an op gauge the speed it ran at; the median
    keeps one disturbed yardstick run from skewing an op."""
    gauges = [r.gauge for r in runs]
    for i, r in enumerate(runs):
        local = statistics.median(gauges[max(0, i - 1):i + 2])
        r.scaled = r.latency * yardstick.NOMINAL_S / local


def tail(values: list) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND values beyond it (or the
    largest value of a shorter list), and that percentile."""
    ordered = sorted(values)
    rank = max(0, len(ordered) - 1 - TAIL_BEYOND)
    return ordered[rank], 100 * rank / len(ordered)


def per_op(runs, seconds) -> list:
    """Each op's median over its runs, one a pass."""
    by_op = {}
    for r in runs:
        by_op.setdefault(r.op.id, []).append(seconds(r))
    return [statistics.median(values) for values in by_op.values()]


def end_to_end(runs, elapsed: float, setup_s: float) -> tuple[dict, list]:
    """Throughput is op runs completed per second spent in ops, at the
    yardstick's nominal speed.  An op's latency is the median of its scaled
    runs, and the percentiles are taken over the epoch's ops: a percentile
    over op runs would jump between ops as the number of passes that fit in
    the run crosses ten (with one K=4 thm2 report a pass, from a 0.2 s
    report to the 0.7 s thm2 one).  The wall-clock figures, throughput
    being op runs per second of the whole loop, are printed beside."""
    calibrate(runs)
    n = len(runs)
    busy = sum(r.scaled for r in runs)
    latencies = per_op(runs, lambda r: r.scaled)
    walls = per_op(runs, lambda r: r.latency)
    tail_s, percentile = tail(latencies)
    failed = sum(1 for r in runs if r.problems)
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (n / busy, "1/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "rows_per_s": (sum(r.rows for r in runs) / busy, "1/s"),
    }
    notes = [
        f"op_tail_s is p{percentile:.1f} of {len(latencies)} ops: "
        f"{min(TAIL_BEYOND, len(latencies) - 1)} ops took longer; {n} op runs in {n // len(latencies)} passes",
        f"fail_frac {failed / n:.6g} ({failed} of {n} op runs failed)",
        f"by wall clock: ops_per_s {n / elapsed:.6g} 1/s, "
        f"op_p50_s {statistics.median(walls):.6g} s, op_tail_s {tail(walls)[0]:.6g} s; "
        f"yardstick median {statistics.median(r.gauge for r in runs):.6g} s, "
        f"nominal {yardstick.NOMINAL_S:g} s",
    ]
    return metrics, notes


def per_layer(tracer, passes: int, traced_wall: float, overhead: float, kept) -> dict:
    """Self time and calls per traced function and the layer counters, each
    per pass over the epoch, and the tracing overhead.  Every pass runs the same ops, so calls and counters per pass do
    not depend on how many passes fit in the run."""
    metrics = {}
    for name in spans.SPAN_NAMES:
        self_s, calls = tracer.by_name(name)
        if name == "cli.main":
            metrics["cli.self_s"] = (self_s / passes, "s")
            continue
        metrics[f"{name}.s"] = (self_s / passes, "s")
        metrics[f"{name}.calls"] = (calls / passes, "count")
    c = tracer.counters

    def ratio(a, b):
        return a / b if b else 0.0

    def count(key):
        return (c[key] / passes, "count")

    metrics.update({
        "bounds.enumerate_bounds.bounds_out": count("bounds_out"),
        "bounds.dedupe.kept_ratio": (ratio(kept["rows"], kept["instantiated"]), "ratio"),
        "bounds.thm2_search.rows_out": count("thm2_rows_out"),
        "bounds.gcsbK.accept_ratio": (ratio(c["gcsbK.accepted"], c["gcsbK.tried"]), "ratio"),
        "setfn.cross_level_gap.accept_ratio": (
            ratio(c["cross_level_gap.accepted"], c["cross_level_gap.tried"]), "ratio"),
        "polytope.fourier_motzkin.rows_in": count("fm.rows_in"),
        "polytope.fourier_motzkin.pairs": count("fm.pairs"),
        "polytope.fourier_motzkin.rows_out": count("fm.rows_out"),
        "polytope.fourier_motzkin.max_rows_out": (c["fm.max_rows_out"], "count"),
        "polytope.fourier_motzkin.kept_ratio": (ratio(c["fm.rows_out"], c["fm.candidates"]), "ratio"),
        "polytope.vertices_2d.vertices": count("vertices"),
        "polytope.unbounded": count("unbounded"),
        "trace.wall_s": (traced_wall / passes, "s"),
        "trace.overhead_frac": (overhead, "ratio"),
    })
    return metrics


def traced_run(cli, epoch, seconds, expected, shuffle, workload, seed):
    """Traced passes for half the time, then an untraced replay of the same
    op runs; an op run fails when either of its two runs fails.  The
    overhead compares the two at the yardstick's nominal speed."""
    tracer = spans.Tracer()
    instantiate = tracer.names.index("bounds.instantiate")
    kept = {"rows": 0, "instantiated": 0}
    before = [0]

    def on_op(run):
        now = tracer.calls[instantiate]
        if run.op.argv[0] == "bounds":
            kept["rows"] += run.rows
            kept["instantiated"] += now - before[0]
        before[0] = now

    uninstall = spans.install(tracer)
    try:
        runs, passes, _ = closed_loop(cli, epoch, seconds / 2, expected, shuffle, on_op)
    finally:
        uninstall()
    replay = []
    for run in runs:
        replay.append(execute(cli, run.op, expected))
        run.problems += replay[-1].problems
    tracer.write_spans(WORK / f"spans-{workload}-{seed}.tsv.gz")
    calibrate(runs)
    calibrate(replay)
    overhead = sum(r.scaled for r in runs) / sum(r.scaled for r in replay) - 1
    traced_wall = sum(run.latency for run in runs)
    return runs, per_layer(tracer, passes, traced_wall, overhead, kept)


@contextlib.contextmanager
def inside_workdir(catalogue, name: str):
    """Writes the catalogue's files into a fresh directory under bench/.work
    and runs the body there; the directory is removed afterwards."""
    workdir = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    home = os.getcwd()
    try:
        for path, text in catalogue.files.items():
            (workdir / path).write_text(text, encoding="utf-8")
        os.chdir(workdir)
        yield
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)


def run(args) -> int:
    cli = load_cli()
    expected = json.loads(EXPECTED.read_text())
    catalogue = gen.CATALOGUES[args.workload]()
    epoch = gen.epoch(catalogue, args.workload, args.seed)
    shuffle = random.Random(f"{args.workload}:{args.seed}:passes")
    setup_s = measure_setup() if not args.trace else 0.0
    with inside_workdir(catalogue, "run"):
        if args.trace:
            runs, metrics = traced_run(
                cli, epoch, args.seconds, expected, shuffle, args.workload, args.seed)
            notes = []
        else:
            runs, _, elapsed = closed_loop(cli, epoch, args.seconds, expected, shuffle)
            metrics, notes = end_to_end(runs, elapsed, setup_s)

    failures = [run for run in runs if run.problems]
    for run in failures[:10]:
        print(f"FAILED {run.op.id} {' '.join(run.op.argv)}: {'; '.join(run.problems)}",
              file=sys.stderr)
    attempted = len(runs)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} ops={attempted}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for line in notes:
        print(line)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 1 if failures else 0


def record() -> int:
    """Run every catalogued op once and rewrite expected.json.  Refuses when
    an op's exit code or oracle disagrees with the generator."""
    cli = load_cli()
    recorded = {}
    bad = 0
    for workload in gen.WORKLOADS:
        catalogue = gen.CATALOGUES[workload]()
        with inside_workdir(catalogue, "record"):
            for op in catalogue.ops:
                latency, code, text, written, error = run_op(cli, op)
                problems = oracle_problems(op, text, written)
                if error or code != op.exit or problems:
                    bad += 1
                    print(f"{op.id}: exit {code}, expected {op.exit} {problems} {error or ''}",
                          file=sys.stderr)
                recorded[op.id] = digest(code, text, written)
                print(f"{latency:9.3f}s {op.id}", file=sys.stderr)
    if bad:
        print(f"{bad} ops disagree with the generator; expected.json left as is",
              file=sys.stderr)
        return 1
    EXPECTED.write_text(json.dumps(recorded, indent=0, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=gen.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args(argv)
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
