"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys

import pytest

import fixtures
import reference
import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

# quick commands that still reach every layer
QUICK = {
    "cohomology": {"cohomology:k3:trivial:6", "cohomology:k3:adjoint:6",
                   "cohomology:k3:dual-adjoint:6"},
    "windows": {"verify:gamma", "verify:gv"},
    "axioms": {"check:k3", "bracket:k3", "check:k3t2", "check:k3t4p",
               "bracket:k3t4p"},
}


def quick_commands(tmp_path, seed):
    cli = run.import_program()
    cmds = []
    for workload, names in QUICK.items():
        fx = fixtures.write_fixtures(tmp_path, seed, workloads.FIXTURES[workload])
        cmds += [c for c in workloads.commands(workload, fx) if c.name in names]
    return cli, cmds


def test_reference_flags_a_perturbed_output(tmp_path):
    cli, cmds = quick_commands(tmp_path, seed=3)
    by_name = {c.name: c for c in cmds}
    edits = {
        "cohomology:k3:adjoint:6": ("table.k2.rank=4", "table.k2.rank=3"),
        "cohomology:k3:trivial:6": ("table.k5.dim=2", "table.k5.dim=3"),
        "check:k3t2": ("checked=480", "checked=479"),
        "bracket:k3t4p": ("status=nonzero", "status=zero"),
        "verify:gv": ("status=pass", "status=fail"),
    }
    for name, (old, new) in edits.items():
        cmd = by_name[name]
        res = run.run_command(cli.main, cmd)
        assert res.failure is None, (name, res.failure)
        assert old in res.output
        assert cmd.check(res.output.replace(old, new)), name


def test_two_seeds_give_identical_checked_results(tmp_path):
    # the rescaling is an isomorphism: it moves residual and bracket values
    # but no verdict, count, table or failing instance
    varying = ("input=", ".residual=", ".value=")
    outputs = []
    for seed in (1, 2):
        (tmp_path / str(seed)).mkdir()
        cli, cmds = quick_commands(tmp_path / str(seed), seed)
        results = run.run_pass(cli.main, cmds)
        assert [r.failure for r in results] == [None] * len(cmds)
        outputs.append(["\n".join(l for l in r.output.splitlines()
                                  if not any(v in l for v in varying))
                        for r in results])
    assert outputs[0] == outputs[1]


def test_pinned_ranks_match_the_bracket_route(tmp_path):
    run.import_program()
    fx = fixtures.write_fixtures(tmp_path, seed=5)
    for (stem, coefficients), pinned in reference.RANKS.items():
        got = reference.bracket_route_ranks(fx[stem][0], coefficients, len(pinned))
        assert got == pinned, (stem, coefficients)


@pytest.fixture
def traced_twice(tmp_path):
    cli, cmds = quick_commands(tmp_path, seed=4)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        _, plain, traced, counts = run.measure(lambda: (cli, cmds), 0, tracer)
        runs.append((tracer, plain, traced, counts))
    return cmds, runs


def test_exact_counts_repeat_across_runs(traced_twice):
    _, runs = traced_twice
    first, second = (r[3] for r in runs)
    assert first == second
    assert all(first[0][m] > 0 for m in ("cohomology.dim.k6", "cohomology.nnz.k6",
                                         "linalg.solve_cells", "antialgebra.checked",
                                         "zoo.checked", "core.parse_lines"))
    assert set(first[0]) <= set(tracing.COUNT_METRICS)


def test_self_times_sum_to_command_time(traced_twice):
    cmds, runs = traced_twice
    tracer, plain, traced, _ = runs[0]
    overhead = sum(run.best_seconds(traced)) - sum(run.best_seconds(plain))
    self_times = tracer.self_times()
    for cmd, res in zip(cmds, traced[0]):
        total = sum(v for m, v in self_times[(0, cmd.name)].items()
                    if not m.startswith("cohomology.assemble_s.k"))
        root = [s for s in tracer.spans if s[4] == cmd.name and s[3] == -1]
        assert len(root) == 1
        assert total == pytest.approx(root[0][2] - root[0][1], abs=1e-6)
        assert 0 <= res.seconds - total <= max(overhead, 0) + 1e-3, cmd.name
    layers = set().union(*self_times.values())
    assert layers <= set(tracing.TIME_METRICS)
    assert {"cohomology.assemble_s.k6", "linalg.solve_s", "brackets.al_bracket_s",
            "zoo.gamma_s", "core.parse_s", "cli.self_s"} <= layers


def test_speed_probe_takes_its_own_time_out_and_restores_the_signal():
    probe = run.SpeedProbe()
    before = signal.getsignal(signal.SIGALRM)
    _, scaled, wall = run.timed(probe, lambda: [run.probe_work() for _ in range(200)])
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= run.PROBE_MIN_SAMPLES
    assert 0 < wall and probe.spent > 0
    assert scaled == pytest.approx(
        wall * run.PROBE_REF_S * len(probe.samples) / sum(probe.samples))


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    cmd = json.loads((tmp_path / "BENCHMARK.json").read_text())["command"]
    proc = subprocess.run(cmd + ["--workload", "axioms", "--seed", "1",
                                 "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
