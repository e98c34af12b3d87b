"""Runs one workload as a closed loop with one client, in this process.

Started by ``run.py`` in a fresh interpreter.  It imports ``enspulse.cli``,
writes the workload's seeded inputs and, unless ``--setup-only`` is given,
calls ``enspulse.cli.main(argv)`` on each command of the workload in turn: one
pass over the list is one operation, and the next pass starts when the last
ends.  The first pass is the cold pass; further passes run until
``--seconds`` have elapsed.  With ``--trace 0`` the warm passes run under a
:class:`hostspeed.Sampler`, whose probe time is taken out of every timing and
whose samples rescale each command's time to reference seconds.  With
``--trace 1`` the warm passes alternate between traced and untraced, so the
tracing overhead is measured in the same process.

Every command's exit code, standard output and output files must be the
same on every pass as on the cold pass; after the last pass the outputs are
checked against the independent oracles of :mod:`oracles`.  An execution
whose output differs from the cold pass counts as failed; when the oracle
rejects the cold pass's output (or the files left on disk are no longer
that output), every execution that reproduced it counts as failed too.  The summary is written as JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def _digest(paths) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class Loop:
    """Runs passes over a command list and keeps the per-command accounting."""

    def __init__(self, main, commands, tracer=None, sampler=None):
        self.main = main
        self.commands = commands
        self.tracer = tracer
        self.sampler = sampler  # its probe time is taken out of every timing
        self.reference: list = []  # cold-pass (rc, stdout, digest) per command
        self.last: list = [None] * len(commands)  # latest record per command
        self.runs = [0] * len(commands)  # executions matching the reference
        self.mismatches: list = []
        self.attempted = 0

    def _call(self, argv):
        sink = io.StringIO()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                rc = self.main(argv)
        except Exception:  # a crash inside the program is a failed command
            return None, sink.getvalue() + traceback.format_exc()
        return rc, sink.getvalue()

    def _probe_spent(self) -> float:
        return self.sampler.spent if self.sampler else 0.0

    def run_pass(self, traced: bool = False) -> tuple[float, float, list, list]:
        """One pass; returns its wall and cpu seconds, each command's wall
        seconds and each command's (start, end) on the perf_counter clock."""
        results, command_s, windows = [], [], []
        wall0, cpu0, spent0 = time.perf_counter(), time.process_time(), self._probe_spent()
        for i, cmd in enumerate(self.commands):
            t0, probe0 = time.perf_counter(), self._probe_spent()
            if traced:
                self.tracer.command = i
                root = self.tracer.begin("cli.main")
                results.append(self._call(cmd.argv))
                self.tracer.end(root)
            else:
                results.append(self._call(cmd.argv))
            t1 = time.perf_counter()
            command_s.append(t1 - t0 - (self._probe_spent() - probe0))
            windows.append((t0, t1))
        spent = self._probe_spent() - spent0
        wall = time.perf_counter() - wall0 - spent
        cpu = time.process_time() - cpu0 - spent
        for i, (cmd, (rc, stdout)) in enumerate(zip(self.commands, results)):
            self.attempted += 1
            try:
                record = (rc, stdout, _digest(cmd.outputs))
            except OSError as exc:
                record = (rc, stdout, f"missing output: {exc}")
            if len(self.reference) < len(self.commands):
                self.reference.append(record)
            self.last[i] = record
            if record == self.reference[i]:
                self.runs[i] += 1
            else:
                self.mismatches.append(f"{cmd.label}: output differs from the cold pass")
        return wall, cpu, command_s, windows

    def check(self) -> tuple[int, list, float, dict]:
        """Oracle checks of the outputs; returns (failed, notes, dev max, figures)."""
        failed = len(self.mismatches)
        notes = list(self.mismatches)
        dev_max = 0.0
        figures = {}
        for i, cmd in enumerate(self.commands):
            if self.last[i] != self.reference[i]:
                # the files on disk are not the cold pass's: nothing vouches for it
                failed += self.runs[i]
                notes.append(f"{cmd.label}: last output differs from the cold pass; not checked")
                continue
            rc, stdout, _ = self.reference[i]
            try:
                verdict = cmd.check(workloads.Outcome(rc, stdout))
            except Exception:
                verdict = None
                note = traceback.format_exc(limit=2)
            else:
                note = verdict.note
            if verdict is None or not verdict.ok:
                failed += self.runs[i]
                notes.append(f"{cmd.label}: {note or 'output does not match the oracle'}")
                continue
            dev_max = max(dev_max, verdict.dev)
            figures.update(verdict.figures)
        return failed, notes, dev_max, figures


def environment() -> dict:
    import numpy as np
    import scipy

    import enspulse

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "implementation": enspulse.IMPLEMENTATION,
        "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    import enspulse.cli

    os.makedirs(args.workdir, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    if args.setup_only:
        # the system-wide monotonic clock lets the parent time this set-up
        # without its own wait for the exit
        print(repr(time.monotonic()))
        return 0

    tracer = spans.Tracer()
    instrumentation = spans.Instrumentation(tracer)
    # the host's speed is sampled through the untraced warm passes of an
    # end-to-end run; a traced run reports wall seconds only
    sampler = None if args.trace else hostspeed.Sampler()
    loop = Loop(enspulse.cli.main, workload.commands, tracer, sampler)
    cold_s, _, _, _ = loop.run_pass()
    untraced, traced, cpu_share, layer_passes = [], [], [], []
    command_s = [[] for _ in workload.commands]  # per command, over untraced warm passes
    command_windows = []  # per untraced warm pass, each command's (start, end)
    end = time.perf_counter() + args.seconds
    with sampler or contextlib.nullcontext():
        # closed loop: start a pass only if the last one would still fit
        while (time.perf_counter() + (untraced or [0.0])[-1] <= end or not untraced
               or (args.trace and not traced)):
            trace_this = bool(args.trace) and len(traced) < len(untraced)
            if trace_this:
                tracer.reset()
                with instrumentation:
                    wall, cpu, _, _ = loop.run_pass(traced=True)
                traced.append(wall)
                layer_passes.append(spans.layer_figures(tracer.spans, tracer.counts))
            else:
                wall, cpu, times, windows = loop.run_pass()
                untraced.append(wall)
                for samples, t in zip(command_s, times):
                    samples.append(t)
                command_windows.append(windows)
            cpu_share.append(cpu / wall)
    # each command's time in reference seconds, at the host speed sampled around it
    command_ref_s = [[t * sampler.speed(*windows[i]) for t, windows in zip(samples, command_windows)]
                     for i, samples in enumerate(command_s)] if sampler else [[] for _ in command_s]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed, notes, dev_max, figures = loop.check()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "commands": len(workload.commands),
        "cold_pass_s": cold_s,
        "pass_s": untraced,
        "traced_pass_s": traced,
        "cpu_over_wall": cpu_share,
        "command_s": {c.label: t for c, t in zip(workload.commands, command_s)},
        "command_ref_s": {c.label: t for c, t in zip(workload.commands, command_ref_s)},
        "probe_s": [p for _, p in sampler.samples] if sampler else [],
        "probe_spent_s": sampler.spent if sampler else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "attempted": loop.attempted,
        "failed": failed,
        "failures": notes,
        "oracle_dev_max": dev_max,
        "figures": figures,
        "quality": workload.summarize(figures) if not failed else {},
        "layers": spans.median_figures(layer_passes) if layer_passes else {},
        "environment": environment(),
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
