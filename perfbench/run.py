"""Benchmark of the twolayer command-line pipeline.

Run from the repository root (stdlib only; the program is imported from
``src/``, nothing is installed):

    python3 perfbench/run.py --workload wide-bags --seed 1 --seconds 20 --trace 0

``--trace 0`` generates the workload's inputs from the seed, then runs its
``python -m twolayer ...`` commands one at a time as subprocesses, pass after
pass until the next pass would overrun ``--seconds``.  It records each
command's wall time, CPU time and peak RSS (``os.wait4``) and the CPU time of
a reference loop timed next to it, checks every output outside the timed
window, and prints the end-to-end metrics.

``--trace 1`` runs the same argv sequence in-process through
``twolayer.cli.main``, once plainly and once with every public function of
the layer modules wrapped in a timing span, and prints the per-layer metrics:
self time and calls per function, computed work counts, interpreter start-up
and the tracing overhead.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the metric names come from
``BENCHMARK.json``.  Per-command times, output sha256 digests, work counts
and spans go to ``perfbench/results/``.  The exit code is 0 only when every
command succeeded and every output check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
SRC = ROOT / "src"

COMMAND_TIMEOUT_S = 120.0
STARTUP_REPEATS = 5


def _digests(workdir: Path, command) -> dict[str, str]:
    d = workdir / command.where
    return {
        name: hashlib.sha256((d / name).read_bytes()).hexdigest()
        if (d / name).exists()
        else "missing"
        for name in command.outputs
    }


def time_setup(workload, workdir: Path) -> float:
    """CPU time of one set-up, averaged over ``workload.setup_repeats``
    set-ups in a row (about 0.1 s in all).  Each set-up writes the same bytes,
    so repeating it changes nothing the commands see."""
    gc.collect()
    start = time.process_time()
    for _ in range(workload.setup_repeats):
        workload.make_inputs(workdir)
    return (time.process_time() - start) / workload.setup_repeats


def run_checks(command, workdir: Path) -> list[str]:
    problems: list[str] = []
    for check in command.checks:
        try:
            problems += check(workdir / command.where)
        except Exception as exc:  # a malformed output is a failed check
            problems.append(f"{check.__name__}: {type(exc).__name__}: {exc}")
    return problems


# ===================================================================
# end-to-end: real CLI subprocesses
# ===================================================================

class Launcher:
    """Client of ``launcher.py``, the small helper process that spawns every
    CLI subprocess; start it before loading anything large.  Its children get
    a fixed hash seed, so set iteration order, and with it run time, repeats
    from run to run (the outputs do not depend on it)."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "launcher.py")],
            env=dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0"),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )

    def run(self, argv, workdir: Path) -> tuple[float, float, float, float, int, str]:
        """(wall s, CPU s, reference loop CPU s, peak RSS MB, exit code,
        stderr tail) of ``python <argv>`` run in ``workdir``."""
        request = {"argv": [sys.executable, *argv], "cwd": str(workdir),
                   "timeout": COMMAND_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        stderr = (workdir / "stderr.txt").read_text(encoding="utf-8", errors="replace")
        return (reply["wall_s"], reply["cpu_s"], reply["ref_s"], reply["rss_kb"] / 1024.0,
                reply["code"], stderr[-400:])

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def end_to_end(workload, workdir: Path, seconds: float, launcher: Launcher) -> dict:
    start = time.perf_counter()
    setup_samples = [time_setup(workload, workdir)]
    # Untimed: compiles the bytecode cache and warms the file cache.
    launcher.run(("-m", "twolayer", "--help"), workdir)
    records = {
        c.name: {"argv": list(c.argv), "walls_s": [], "cpus_s": [], "refs_s": [], "rss_mb": [],
                 "failures": []}
        for c in workload.commands
    }
    first_digests: dict[str, dict] = {}
    pass_walls: list[float] = []
    pass_cpus: list[float] = []
    attempted = failed = 0
    while True:
        walls, cpus = [], []
        for command in workload.commands:
            wall, cpu, ref, rss, code, stderr = launcher.run(
                ("-m", "twolayer", *command.argv), workdir / command.where
            )
            attempted += 1
            walls.append(wall)
            cpus.append(cpu)
            rec = records[command.name]
            rec["walls_s"].append(wall)
            rec["cpus_s"].append(cpu)
            rec["refs_s"].append(ref)
            rec["rss_mb"].append(rss)
            if code != 0:
                problems = [f"exit code {code}: {stderr.strip()}"]
            elif command.name not in first_digests:
                problems = run_checks(command, workdir)
                first_digests[command.name] = _digests(workdir, command)
                rec["sha256"] = first_digests[command.name]
            elif _digests(workdir, command) != first_digests[command.name]:
                problems = ["output differs from the first pass"]
            else:
                problems = []
            if problems:
                failed += 1
                rec["failures"].append(problems)
        pass_walls.append(sum(walls))
        pass_cpus.append(sum(cpus))
        # One set-up batch after every pass, so that the set-up median, like
        # the commands', spans the whole run.
        setup_samples.append(time_setup(workload, workdir))
        if failed or time.perf_counter() - start + pass_walls[-1] > seconds:
            break
    for rec in records.values():
        rec["median_s"] = statistics.median(rec["walls_s"])
        rec["median_cpu_s"] = statistics.median(rec["cpus_s"])
        # The host's speed swings 1.4x over seconds to minutes; the command's
        # CPU time over the reference loop's, timed next to it, swings far less.
        rec["median_cpu_refs"] = statistics.median(
            cpu / ref for cpu, ref in zip(rec["cpus_s"], rec["refs_s"])
        )
        rec["peak_rss_mb"] = max(rec["rss_mb"])
    values = {
        "setup_s": statistics.median(setup_samples),
        "cpu_refs": sum(rec["median_cpu_refs"] for rec in records.values()),
        "cpu_s": statistics.median(pass_cpus),
        "total_s": statistics.median(pass_walls),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in records.values()),
    }
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "detail": {
            "passes": len(pass_walls),
            "pass_walls_s": pass_walls,
            "pass_cpus_s": pass_cpus,
            "setup_batches_s": setup_samples,
            "setup_repeats": workload.setup_repeats,
            "commands": records,
        },
    }


# ===================================================================
# per-layer: in-process run under the span recorder
# ===================================================================

def call_cli(argv, workdir: Path) -> tuple[int | None, str]:
    """(exit code, error) of ``twolayer.cli.main(argv)`` run in ``workdir``;
    an uncaught exception gives code None and its traceback."""
    from twolayer import cli

    previous = os.getcwd()
    os.chdir(workdir)
    try:
        return cli.main(list(argv)), ""
    except Exception:  # the CLI contract forbids tracebacks; count it as failed
        return None, traceback.format_exc(limit=3)
    finally:
        os.chdir(previous)


def in_process_pass(workload, workdir: Path, recorder=None) -> tuple[list, float]:
    results = []
    total = 0.0
    for command in workload.commands:
        gc.collect()
        if recorder is not None:
            recorder.command = command.name
        start = time.perf_counter()
        code, error = call_cli(command.argv, workdir / command.where)
        total += time.perf_counter() - start
        results.append((command, code, error, _digests(workdir, command)))
    return results, total


def per_layer(workload, workdir: Path, launcher: Launcher) -> dict:
    import spans

    startup = statistics.median(
        [launcher.run(("-c", "import twolayer.cli"), workdir)[1] for _ in range(STARTUP_REPEATS)]
    )
    modules = [importlib.import_module(f"twolayer.{name}") for name in spans.LAYERS]
    # Untimed warm-up: otherwise the first timed pass alone would pay for
    # first-touch heap pages and cold caches.
    in_process_pass(workload, workdir)
    plain, untraced_s = in_process_pass(workload, workdir)
    recorder = spans.SpanRecorder()
    with recorder.installed(modules):
        traced, traced_s = in_process_pass(workload, workdir, recorder)

    attempted = failed = 0
    failures: dict[str, list] = {}
    digests = {}
    for (command, code, error, plain_digest), (_, tcode, terror, digest) in zip(plain, traced):
        attempted += 2
        for run_code, run_error in ((code, error), (tcode, terror)):
            if run_code != 0:
                failed += 1
                failures.setdefault(command.name, []).append(
                    [f"exit code {run_code}: {run_error.strip()}"]
                )
        problems = run_checks(command, workdir) if tcode == 0 else []
        if digest != plain_digest:
            problems.append("traced output differs from the untraced run")
        if problems:
            failed += 1
            failures.setdefault(command.name, []).append(problems)
        digests[command.name] = digest
    tree = spans.tree_problems(recorder.spans)
    if tree:
        failed += 1
        failures["span-tree"] = tree[:20]

    values: dict[str, float] = {}
    for name, (ns, calls) in spans.self_times(recorder.spans).items():
        values[f"{name}.self_s"] = ns / 1e9
        values[f"{name}.calls"] = calls
    values.update(
        {
            "cli.startup_s": startup,
            "trace.untraced_s": untraced_s,
            "trace.traced_s": traced_s,
            # Spans times the measured cost of one wrapper call: the true
            # overhead is far below the noise in traced_s - untraced_s.
            "trace.overhead_s": len(recorder.spans) * spans.wrapper_cost_ns() / 1e9,
            "trace.spans": len(recorder.spans),
        }
    )
    return {
        "values": values,
        "attempted": attempted,
        "failed": failed,
        "detail": {"sha256": digests, "failures": failures},
        "spans": recorder.spans,
    }


# ===================================================================
# one run
# ===================================================================

def run(name: str, seed: int, seconds: float, trace: bool, launcher: Launcher, sizes=None) -> dict:
    """Set up, measure and check one workload; returns the full record with
    every metric value under "values"."""
    import workloads

    workload = workloads.workload(name, seed, sizes or workloads.FULL)
    (BENCH_DIR / "work").mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH_DIR / "work"))
    try:
        if trace:
            workload.make_inputs(workdir)
            result = per_layer(workload, workdir, launcher)
        else:
            result = end_to_end(workload, workdir, seconds, launcher)
        counts = workloads.work_counts(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["values"].update(counts)
    result["detail"].update(
        {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "counts": counts}
    )
    return result


def declared_metrics(trace: bool) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec["per_layer" if trace else "end_to_end"]


def summary(result: dict) -> None:
    d = result["detail"]
    print(f"workload {d['workload']} seed {d['seed']} trace {d['trace']}: "
          f"{result['attempted']} commands, {result['failed']} failed")
    for name, rec in d.get("commands", {}).items():
        print(f"  {name:18s} median wall {rec['median_s']:7.3f} s, CPU {rec['median_cpu_s']:7.3f} s "
              f"over {len(rec['walls_s'])} pass(es), peak RSS {rec['peak_rss_mb']:7.1f} MB")
    for name, problems in d.get("failures", {}).items():
        print(f"  FAILED {name}: {problems}")
    for name, rec in d.get("commands", {}).items():
        if rec["failures"]:
            print(f"  FAILED {name}: {rec['failures'][:3]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "twolayer" / "cli.py").is_file():
        print(f"error: no twolayer sources under {SRC}", file=sys.stderr)
        return 2
    launcher = Launcher()
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        launcher.close()
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)}", file=sys.stderr)
        return 2
    trace = bool(args.trace)
    declared = declared_metrics(trace)
    try:
        result = run(args.workload, args.seed, args.seconds, trace, launcher)
    finally:
        launcher.close()

    values = result["values"]
    # A per-layer function a workload never calls reads 0; every end-to-end
    # metric is measured on every workload.
    metrics = {
        m["name"]: {"value": values.get(m["name"], 0) if trace else values[m["name"]],
                    "unit": m["unit"]}
        for m in declared
    }
    result["detail"]["values"] = values
    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{stem}.json").write_text(json.dumps(result["detail"], indent=1) + "\n")
    if trace:
        (out_dir / f"{stem}-spans.json").write_text(json.dumps(result["spans"]) + "\n")
    summary(result)
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
