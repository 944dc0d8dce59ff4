"""Benchmark of the `antalg` command line.

    python3 perfbench/run.py --workload cohomology|windows|axioms \
        --seed N --seconds S --trace 0|1

Run it from the root of a checkout: it imports the program from the
checkout's `src/` and nothing else, and exits with code 2, printing no
result, when that is missing.  One process, one thread.

A set-up is a fresh import of `antalg`, writing the workload's seeded
fixtures and parsing each once.  It runs `SETUP_REPEATS` times, then once
before every pass; `setup_s` is the median.  Passes run the workload's
commands through `antalg.cli.main`, in process, until `--seconds` have
passed (at least one pass).  Every output is checked against `reference.py`.

--trace 0  end-to-end metrics: setup_s; wall_s and max_op_s, the medians
           over the passes of a pass's time and of its slowest command;
           pass_share (commands that passed / attempted); peak_rss_mb.
           Times are scaled to a fixed machine speed by `SpeedProbe`.
--trace 1  per-layer metrics: passes alternate untraced and traced.  The
           traced ones give self times per layer (each command's fastest,
           summed over commands) and exact counts; trace.overhead_s is
           traced minus untraced wall_s.  Spans go to
           .perfbench-out/spans-<workload>-seed<N>.jsonl.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See NOTES.md for the reasons
behind each workload and the metric-to-layer map.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import tempfile
import time
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import fixtures
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
SETUP_REPEATS = 9
PROBE_INTERVAL_S = 0.02  # wall time between two speed samples
PROBE_MIN_SAMPLES = 5
PROBE_REF_S = 0.0005  # the scale: a probe's time at the reference speed


def probe_work() -> Fraction:
    """A fixed piece of pure-Python work of the program's kind: exact
    Fraction arithmetic on growing integers, about 0.5 ms unloaded."""
    total = Fraction(0)
    for i in range(1, 200):
        total += Fraction(1, i)
    return total


class SpeedProbe:
    """Samples the machine's speed while a timed block runs.

    On a shared virtual machine other tenants' load slows everything that
    runs, in phases of seconds to minutes, by up to a half; CPU time slows
    with wall time, so no clock of this process escapes it.  Every
    `PROBE_INTERVAL_S` of wall time a timer signal interrupts the block and
    times `probe_work()`, a fixed amount of work that the load slows like
    the program.  `scale` takes the probes' own time out of the block's
    wall time and rescales the rest to the speed at which the probe takes
    `PROBE_REF_S`:

        scaled = (wall - probe time) * PROBE_REF_S / mean(probe samples)

    The samples are evenly spread over wall time, so their mean is the
    block's mean slowdown.  A block shorter than `PROBE_MIN_SAMPLES`
    intervals is topped up with samples taken right after it."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self.busy = False

    def _sample(self, signum=None, frame=None) -> None:
        if self.busy:  # a tick that came while the probe itself ran
            return
        self.busy = True
        collecting = gc.isenabled()
        gc.disable()  # the program's heap must not weigh on the probe
        start = time.perf_counter()
        probe_work()
        seconds = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(seconds)
        self.spent += seconds
        self.busy = False

    def __enter__(self):
        self.samples, self.spent = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def scale(self, seconds: float):
        """(scaled seconds, wall seconds without the probes) of a block that
        took ``seconds`` of wall time."""
        wall = seconds - self.spent
        while len(self.samples) < PROBE_MIN_SAMPLES:
            self._sample()
        return wall * PROBE_REF_S / statistics.fmean(self.samples), wall


def import_program():
    """A fresh import of `antalg.cli` from the checkout's `src/`."""
    for name in [n for n in sys.modules if n == "antalg" or n.startswith("antalg.")]:
        del sys.modules[name]
    cli = importlib.import_module("antalg.cli")
    if Path(cli.__file__).resolve().parent != SRC / "antalg":
        raise ImportError(f"antalg imported from {cli.__file__}, not {SRC}")
    return cli


def timed(probe, fn):
    """(result, scaled seconds, wall seconds) of ``fn()``.  Without a
    probe both times are the plain wall time."""
    with probe or contextlib.nullcontext():
        start = time.perf_counter()
        result = fn()
        seconds = time.perf_counter() - start
    if probe is None:
        return result, seconds, seconds
    return (result, *probe.scale(seconds))


def set_up(workload: str, seed: int, directory: Path, probe=None):
    def work():
        cli = import_program()
        fx = fixtures.write_fixtures(directory, seed, workloads.FIXTURES[workload])
        for path, _ in fx.values():
            sys.modules["antalg.core"].parse_algebra_file(path)
        return cli, fx
    (cli, fx), seconds, _ = timed(probe, work)
    return seconds, cli, fx


class Outcome:
    __slots__ = ("seconds", "wall", "failure", "output")

    def __init__(self, seconds, wall, failure, output):
        self.seconds = seconds  # scaled by the probe, if there was one
        self.wall = wall
        self.failure = failure
        self.output = output


def run_command(main, cmd, probe=None) -> Outcome:
    """Run one command; a raise, an unexpected exit code or a disagreement
    with the reference is its failure.  Time runs up to where it fails."""
    out, err = io.StringIO(), io.StringIO()

    def work():
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                return main(cmd.argv), None
        except SystemExit as ex:  # argparse rejected the arguments
            return ex.code, None
        except Exception as ex:  # the program crashed: a failed command
            return None, type(ex).__name__

    (code, raised), seconds, wall = timed(probe, work)
    if raised is not None:
        failure = f"raised {raised}"
    elif code != cmd.expect:
        failure = f"exit {code} (expected {cmd.expect})"
    else:
        failure = "; ".join(cmd.check(out.getvalue())) or None
    return Outcome(seconds, wall, failure, out.getvalue())


def run_pass(main, cmds, tracer=None, probe=None) -> list:
    gc.collect()
    results = []
    for cmd in cmds:
        if tracer is not None:
            tracer.command = cmd.name
        results.append(run_command(main, cmd, probe))
        if tracer is not None:
            tracer.end_command()
    return results


def measure(prepare, seconds: float, tracer=None, probe=None):
    """Passes until ``seconds`` have passed; ``prepare()`` sets up afresh
    before each pass and returns (cli, commands).  With a tracer, untraced
    and traced passes alternate, and no probe runs in the traced ones.
    Returns (commands, untraced passes, traced passes, counts per traced
    pass)."""
    plain, traced, counts = [], [], []
    deadline = time.perf_counter() + seconds
    while True:
        cli, cmds = prepare()
        plain.append(run_pass(cli.main, cmds, probe=probe))
        if tracer is not None:
            tracer.pass_index = len(traced)
            tracer.install()
            try:
                traced.append(run_pass(tracer.wrap("cli.main", cli.main),
                                       cmds, tracer))
            finally:
                tracer.uninstall()
            counts.append(dict(tracer.counts))
            tracer.counts.clear()
        if time.perf_counter() >= deadline:
            return cmds, plain, traced, counts


def judge(cmds, passes):
    """(attempted, failed, problems).  A problem is a failure other than a
    command's recorded known defect, or output that changes between passes
    of the same inputs."""
    attempted = failed = 0
    problems = []
    for results in passes:
        for cmd, res in zip(cmds, results):
            attempted += 1
            if res.failure is None:
                continue
            failed += 1
            if not (cmd.defect and res.failure.startswith(cmd.defect[0])):
                problems.append(f"{cmd.name}: {res.failure}")
    for results in passes[1:]:
        for cmd, first, res in zip(cmds, passes[0], results):
            if res.output != first.output:
                problems.append(f"{cmd.name}: output differs between passes")
    return attempted, failed, sorted(set(problems))


def best_seconds(passes) -> list:
    """Each command's fastest time over the passes (of the traced run,
    which has no probe to rescale its times)."""
    return [min(times) for times in zip(*([r.seconds for r in p] for p in passes))]


def end_to_end(setups, plain, attempted, failed) -> dict:
    return {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(r.seconds for r in p) for p in plain), "s"),
        "max_op_s": (statistics.median(max(r.seconds for r in p) for p in plain), "s"),
        "pass_share": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer, plain, traced, counts) -> dict:
    best = defaultdict(dict)  # command -> metric -> fastest self time
    for (_, command), times in tracer.self_times().items():
        for m, t in times.items():
            best[command][m] = min(t, best[command].get(m, t))
    metrics = {m: (sum(b.get(m, 0) for b in best.values()), "s")
               for m in tracing.TIME_METRICS if m != "trace.overhead_s"}
    metrics["trace.overhead_s"] = (
        sum(best_seconds(traced)) - sum(best_seconds(plain)), "s")
    for m in tracing.COUNT_METRICS:
        metrics[m] = (counts[0].get(m, 0), "count")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.FIXTURES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "antalg" / "__init__.py").is_file():
        print(f"perfbench: no program to measure: {SRC / 'antalg'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    setups = []
    probe = None if args.trace else SpeedProbe()
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        def prepare():
            seconds, cli, fx = set_up(args.workload, args.seed, Path(tmp), probe)
            setups.append(seconds)
            return cli, workloads.commands(args.workload, fx)

        for _ in range(SETUP_REPEATS):
            prepare()
        tracer = tracing.Tracer() if args.trace else None
        cmds, plain, traced, counts = measure(prepare, args.seconds, tracer, probe)

    attempted, failed, problems = judge(cmds, plain + traced)
    if any(c != counts[0] for c in counts[1:]):
        problems.append("exact counts differ between traced passes")
    if tracer is None:
        metrics = end_to_end(setups, plain, attempted, failed)
    else:
        metrics = per_layer(tracer, plain, traced, counts)
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")

    print(f"workload {args.workload}, seed {args.seed}: {len(plain)} passes"
          + (f" and {len(traced)} traced" if traced else "")
          + f" of {len(cmds)} commands")
    for name, (value, unit) in metrics.items():
        print(f"  {name:32} {value:.6g} {unit}")
    walls = [sum(r.wall for r in p) for p in plain]
    print(f"  {'unscaled wall_s':32} {statistics.median(walls):.6g} s "
          f"(passes {min(walls):.4g} to {max(walls):.4g} s)")
    print(f"  {'fail_share':32} {failed / attempted:.6g} share "
          f"({failed} of {attempted} commands failed)")
    for cmd in cmds:
        if cmd.defect:
            print(f"  known defect {cmd.name}: {cmd.defect[1]}")
    for p in problems:
        print(f"  PROBLEM {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
