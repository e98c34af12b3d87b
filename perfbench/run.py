#!/usr/bin/env python3
"""The enspulse benchmark: one workload, one closed loop, one client.

Run from the root of a checkout:

    python3 perfbench/run.py --workload slr-design --seed 1 --seconds 30 --trace 0

Workloads are ``slr-design``, ``ensemble-map`` and ``compensate`` (see
``workloads.py`` for what each runs and why).  Each runs in its own fresh
interpreter, which calls ``enspulse.cli.main(argv)`` in-process on the
workload's command list; one pass over the list is one operation.  BLAS is
pinned to ``BLAS_THREADS`` threads in every child process.

``--trace 0`` reports the end-to-end metrics: set-up time (a fresh
interpreter through ``import enspulse.cli`` plus input generation, repeated
``SETUP_REPEATS`` times, median), the warm pass, the cold first pass, peak
resident memory, the failure ratio and the workload's quality figures.  The
bounded times, ``setup_s`` and ``pass_s.ref_cmd``, are in reference seconds
(see ``hostspeed.py``): each set-up and each command is rescaled by the speed
of the host sampled around it, which takes out most of the swing between the
slow and fast phases of a shared host.  ``pass_s.ref_cmd`` is the sum over
commands of each one's median over the warm passes.  The wall-clock figures
(``setup_s.wall``, best, median and tail pass) are reported beside them.
``--trace 1`` is a separate run that
reports per-layer metrics: self times, counts and rates of each module from
spans recorded around its public functions, the import-time breakdown of
``python -X importtime``, and the tracing overhead (traced minus untraced
pass time, both measured in that run).

Every result carries an environment record.  Outputs are checked against
independent oracles; failures count against ``failed``.  The full report is
printed line by line and written to
``perfbench/out/BENCH_<workload>_seed<n>_trace<t>.json``; the last line of
standard output is the JSON summary with the metrics BENCHMARK.json lists.
Those are the end-to-end figures steady enough to bound (set-up and pass in
reference seconds, peak memory) and the per-layer figures that are nonzero
on every workload; wall-clock times swing with the phase of a shared host,
and stage times of layers only some workloads use are zero elsewhere.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
BENCHMARK_JSON = os.path.join(ROOT, "BENCHMARK.json")

BLAS_THREADS = 1
SETUP_REPEATS = 9
SETUP_PROBES = 25  # probe runs on each side of a set-up, median taken
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(argv, env, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(argv, env=env, timeout=CHILD_TIMEOUT_S, check=True, **kwargs)


def tail(samples) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and that percentile.

    Below 20 samples no percentile at or above the median has ten beyond it,
    so the tail is the maximum (percentile 100).
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 20:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def import_breakdown(env) -> dict:
    """Self import time per top-level package from ``python -X importtime``."""
    runs = []
    for _ in range(IMPORTTIME_REPEATS):
        proc = run_child([sys.executable, "-X", "importtime", "-c", "import enspulse.cli"],
                         env, capture_output=True, text=True)
        groups = {"numpy": 0.0, "scipy": 0.0, "enspulse": 0.0, "other": 0.0}
        linear = 0.0
        for line in proc.stderr.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or not fields[0].split(":")[1].strip().isdigit():
                continue
            own, cumulative, name = int(fields[0].split(":")[1]), int(fields[1]), fields[2].strip()
            root = name.split(".")[0]
            groups[root if root in groups else "other"] += own * 1e-6
            if name == "enspulse.linear":
                linear = cumulative * 1e-6
        runs.append({
            "import.total_s": sum(groups.values()),
            **{f"import.{k}_s": v for k, v in groups.items()},
            "import.enspulse_linear_cum_s": linear,
        })
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


def unit_of(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.startswith("fileio.bytes"):
        return "bytes"
    return "count"


def time_setups(worker, work, env, count: int, first: int) -> list:
    """(wall seconds, reference seconds) from spawning a fresh interpreter
    until it has imported enspulse.cli and written the workload's inputs.

    The host's speed for a set-up is the probe timed just before and just
    after it, in this process."""
    out = []
    for k in range(first, first + count):
        before = hostspeed.probe_median(SETUP_PROBES)
        t0 = time.monotonic()
        proc = run_child(worker + ["--setup-only", "--workdir", os.path.join(work, f"setup{k}")],
                         env, capture_output=True, text=True)
        wall = float(proc.stdout) - t0
        after = hostspeed.probe_median(SETUP_PROBES)
        out.append((wall, wall * hostspeed.REFERENCE_PROBE_S / ((before + after) / 2)))
    return out


def main(argv=None) -> int:
    with open(BENCHMARK_JSON) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description="enspulse benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "enspulse", "cli.py")):
        print(f"error: no enspulse sources under {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    # a terminated benchmark exits through subprocess.run, which kills and
    # reaps the running child, and through the clean-up below
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = child_env()
    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    worker = [sys.executable, os.path.join(HERE, "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]
    result_path = os.path.join(work, "result.json")
    setup, imports = [], {}
    try:
        # set-up samples on both sides of the measured loop, so that one slow
        # phase of the host does not set the median
        if not args.trace:
            setup += time_setups(worker, work, env, SETUP_REPEATS // 2, 0)
        run_child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                            "--workdir", os.path.join(work, "run"), "--result", result_path], env)
        with open(result_path) as fh:
            res = json.load(fh)
        if args.trace:
            imports = import_breakdown(env)
        else:
            setup += time_setups(worker, work, env, SETUP_REPEATS - len(setup), len(setup))
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = res["pass_s"]
    tail_value, tail_pct = tail(passes)
    fail_ratio = res["failed"] / res["attempted"]
    cpu = res["cpu_over_wall"]
    env_record = dict(res["environment"], cpu_over_wall_p50=statistics.median(cpu), cpu_over_wall_min=min(cpu))
    lines = [
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}",
        f"loop closed, 1 client; operation = one pass over {res['commands']} commands; "
        f"{len(passes)} untraced and {len(res['traced_pass_s'])} traced warm passes",
    ]
    # (name, value, unit, note): every end-to-end figure, bounded or not
    figures = [
        ("pass_s.best", sum(min(t) for t in res["command_s"].values()), "s",
         f"sum over commands of each one's best of n={len(passes)}"),
        ("pass_s.p50", statistics.median(passes), "s", f"n={len(passes)}"),
        ("pass_s.tail", tail_value, "s", f"p{tail_pct:.0f} of n={len(passes)}"),
        ("cold_pass_s", res["cold_pass_s"], "s", "first pass in a fresh process"),
        ("peak_rss_mb", res["peak_rss_mb"], "MB", ""),
        ("fail_ratio", fail_ratio, "1", f"{res['failed']}/{res['attempted']} commands"),
        ("oracle_dev_max", res["oracle_dev_max"], "1", "largest deviation from an oracle"),
    ]
    if setup:
        n = len(setup)
        figures[:0] = [
            ("setup_s", statistics.median(r for _, r in setup), "s",
             f"reference seconds, median of {n} fresh interpreters"),
            ("setup_s.wall", statistics.median(w for w, _ in setup), "s", f"median of {n} fresh interpreters"),
            ("pass_s.ref_cmd", sum(statistics.median(t) for t in res["command_ref_s"].values()), "s",
             "reference seconds, sum over commands of each one's median"),
        ]
        probes = res["probe_s"]
        env_record.update(probe_s_p50=statistics.median(probes), probe_samples=len(probes),
                          probe_share=res["probe_spent_s"] / (sum(passes) + res["probe_spent_s"]))
    figures += [(name, value, unit, "") for name, (value, unit) in res["quality"].items()]
    lines.append("environment " + " ".join(f"{k}={v}" for k, v in env_record.items()))
    for name, value, unit, note in figures:
        lines.append(f"metric {name} {value:.10g} {unit} {note}".rstrip())
    for note in res["failures"]:
        lines.append(f"failure {note.strip().splitlines()[-1]}")

    per_layer = {}
    if args.trace:
        per_layer = dict(res["layers"], **imports)
        per_layer["trace.pass_s"] = statistics.median(res["traced_pass_s"])
        per_layer["trace.overhead_s"] = per_layer["trace.pass_s"] - statistics.median(passes)
        for name, value in per_layer.items():
            share = ""
            if name.endswith(".self_s") or name == "linear.s":
                share = f" ({100 * value / per_layer['trace.pass_s']:.1f}% of the traced pass)"
            lines.append(f"layer {name} {value:.6g} {unit_of(name)}{share}")
        lines.append("waiting: none; every layer runs on one thread with no I/O wait "
                     "worth tracing, so no wait metric is reported")
    print("\n".join(lines))

    # the summary carries the metrics BENCHMARK.json lists for this kind of run
    values = per_layer if args.trace else {name: value for name, value, _, _ in figures}
    listed = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    summary = {"correct": res["failed"] == 0, "attempted": res["attempted"],
               "failed": res["failed"], "metrics": metrics}
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"BENCH_{tag}.json"), "w") as fh:
        json.dump({**summary, "figures": {n: {"value": v, "unit": u, "note": t} for n, v, u, t in figures},
                   "per_layer": per_layer, "setup_samples": setup, "environment": env_record,
                   "result": res}, fh, indent=1)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
