"""Benchmark of the flatrank CLI: time to a checked result and peak memory.

    python3 bench/run.py --workload dense-generic --seed 0 --seconds 30 --trace 0

Run from anywhere inside a checkout; it benchmarks the sources under
``src/`` of that checkout.  Each workload (see ``workloads.py``) is a fixed
list of ``flatrank`` invocations.  Every invocation runs in a fresh
single-threaded interpreter, one after another, and its JSON report is
checked.  Passes over the list repeat until ``--seconds`` is spent, and
medians over the passes are reported.

Times are in reference seconds.  The speed of a shared host drifts by tens
of percent within minutes, so the benchmark and its children run pinned to
one CPU, whose speed ``hostspeed.py`` samples throughout, and each child's
wall time is rescaled by the speed measured on that CPU while it ran.  The
per-pass lines print the raw wall times too.

With ``--trace 0`` the last line of standard output carries the end-to-end
metrics: ``wall_s`` (summed invocation wall time), ``peak_rss_mb`` (largest
peak RSS of a child, which ``peakrss.py`` reads in the child), ``setup_s``
(median time for a fresh interpreter to import ``flatrank.labcli``) and
``pass_ratio`` (checks passed over checks made).
With ``--trace 1`` untraced and traced passes alternate and the last line
carries the per-layer metrics of ``layertrace.py``, plus
``trace.overhead_ratio``.  The lines before it give provenance and one line
per pass.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import hostspeed
import layertrace
from hostspeed import SpeedProbe
from workloads import DOCUMENTED, FAIL, PASS, WORKLOADS, Workload, expected_exit, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# A run must end within 180 s; no child may outlive this budget.
RUN_LIMIT_S = 170.0
# Set-up samples: a few before the first pass, then one before each
# untraced invocation, so that they spread over the run's host-speed phases.
SETUP_IMPORTS = 6
IMPORT = [sys.executable, "-c", "import flatrank.labcli"]


def _child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


@dataclass
class Child:
    wall_s: float
    exit_code: int
    ref_s: float


def spawn(cmd: list[str], deadline: float, probe: SpeedProbe) -> Child:
    """Run ``cmd`` in WORK, killing it at ``deadline``; wall time from spawn
    to exit, also in reference seconds."""
    timeout = deadline - time.perf_counter()
    if timeout <= 0:
        raise TimeoutError("run time budget spent")
    with open(WORK / "stderr.txt", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=WORK, env=_child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, _ = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = time.perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.perf_counter() >= deadline:
        raise TimeoutError(f"{cmd[1:4]} did not finish within the run time budget")
    return Child(end - start, proc.returncode, (end - start) * probe.factor(start, end))


@dataclass
class Pass:
    peak_rss_mb: float = 0.0
    outcomes: list[str] = field(default_factory=list)
    invocations: int = 0
    failed: int = 0
    timed_out: bool = False
    walls: list[float] = field(default_factory=list)
    raw_walls: list[float] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)
    summaries: list[dict] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    def describe(self, label: str) -> str:
        return (f"{label}: wall {self.wall_s:.3f} s, peak {self.peak_rss_mb:.1f} MB, "
                f"checks {self.outcomes.count(PASS)}/{len(self.outcomes)} pass, "
                f"{self.outcomes.count(DOCUMENTED)} documented, "
                f"{self.failed}/{self.invocations} invocations failed, walls "
                + " ".join(f"{w:.3f}" for w in self.walls) + " (raw "
                + " ".join(f"{w:.3f}" for w in self.raw_walls) + ")")


def run_pass(workload: Workload, seed: int, deadline: float, probe: SpeedProbe,
             traced: bool, sample_setup: bool) -> Pass:
    """One pass over the workload's invocations, each checked as it ends."""
    result = Pass()
    reports: list = []
    report_path = WORK / "report.json"
    # The traced child writes its spans there, the untraced one its peak RSS.
    side_path = WORK / ("spans.json" if traced else "peak.txt")
    wrapper = HERE / ("layertrace.py" if traced else "peakrss.py")
    for invocation in workload.invocations:
        report_path.unlink(missing_ok=True)
        side_path.unlink(missing_ok=True)
        cli = [*invocation.argv, "--format", "json", "--seed", str(seed), "--out", report_path.name]
        cmd = [sys.executable, str(wrapper), side_path.name, *cli]
        result.invocations += 1
        try:
            if sample_setup:
                result.setup.append(spawn(IMPORT, deadline, probe).ref_s)
            child = spawn(cmd, deadline, probe)
        except TimeoutError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            result.failed += 1
            result.timed_out = True
            return result
        result.walls.append(child.ref_s)
        result.raw_walls.append(child.wall_s)
        try:
            report = json.loads(report_path.read_text(encoding="utf-8"))
            outcomes = invocation.check(report, reports)
            ok = child.exit_code == expected_exit(report) and FAIL not in outcomes
            if traced:
                record = json.loads(side_path.read_text(encoding="utf-8"))
                result.summaries.append(layertrace.summarize(record, child.wall_s))
            else:
                peak_mb = int(side_path.read_text(encoding="ascii")) * 1024 / 1e6
                result.peak_rss_mb = max(result.peak_rss_mb, peak_mb)
        except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError):
            report, outcomes, ok = None, [FAIL], False
        reports.append(report)
        result.outcomes += outcomes
        if not ok:
            result.failed += 1
            stderr = (WORK / "stderr.txt").read_text(encoding="utf-8", errors="replace")
            print(f"bench: check failed: {' '.join(invocation.argv)} exit={child.exit_code}, "
                  f"{outcomes.count(FAIL)} failed checks\n{stderr[-2000:]}", file=sys.stderr)
    return result


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, check=False)
    return done.stdout.strip() or None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload: str, seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": _git_sha(),
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
    }


def declared_metrics(kind: str) -> dict[str, str]:
    """Metric name -> unit for ``end_to_end`` or ``per_layer``, as
    BENCHMARK.json declares them; a run reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def end_to_end(passes: list[Pass], setup: list[float]) -> dict[str, float]:
    outcomes = [o for p in passes for o in p.outcomes]
    return {
        "wall_s": statistics.median(p.wall_s for p in passes),
        "peak_rss_mb": statistics.median(p.peak_rss_mb for p in passes),
        "setup_s": statistics.median(setup + [s for p in passes for s in p.setup]),
        "pass_ratio": outcomes.count(PASS) / len(outcomes),
    }


def per_layer(plain: list[Pass], traced: list[Pass]) -> dict[str, float]:
    per_pass = [layertrace.layer_metrics(p.summaries) for p in traced]
    values = {name: statistics.median(m[name] for m in per_pass)
              for name in per_pass[0] if all(name in m for m in per_pass)}
    values["trace.overhead_ratio"] = (statistics.median(p.wall_s for p in traced)
                                      / statistics.median(p.wall_s for p in plain))
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.partition("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "flatrank" / "labcli.py").is_file():
        print(f"bench: no flatrank sources under {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + RUN_LIMIT_S
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        with SpeedProbe() as probe:
            return measure(args, workload, deadline, probe)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)


def measure(args: argparse.Namespace, workload: Workload, deadline: float,
            probe: SpeedProbe) -> int:
    write_inputs(workload, args.seed, WORK)
    print(json.dumps({"provenance": provenance(args.workload, args.seed)}), flush=True)
    # The first import compiles bytecode; it is not a set-up sample.
    if spawn(IMPORT, deadline, probe).exit_code != 0:
        print("bench: flatrank.labcli does not import", file=sys.stderr)
        return 2
    setup = [] if args.trace else [spawn(IMPORT, deadline, probe).ref_s
                                    for _ in range(SETUP_IMPORTS)]
    plain: list[Pass] = []
    traced: list[Pass] = []
    measure_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain.append(run_pass(workload, args.seed, deadline, probe, traced=False,
                               sample_setup=not args.trace))
        print(plain[-1].describe(f"pass {len(plain)}"), flush=True)
        if args.trace and not plain[-1].timed_out:
            traced.append(run_pass(workload, args.seed, deadline, probe, traced=True,
                                    sample_setup=False))
            print(traced[-1].describe(f"pass {len(traced)} traced"), flush=True)
        passes = plain + traced
        now = time.perf_counter()
        step = now - pass_start
        if (any(p.timed_out for p in passes) or now - measure_start + step > args.seconds
                or now + step > deadline):
            break
    print("host speed: median probe CPU time "
          + ", ".join(f"{work.__name__} {median * 1e3:.3f} ms (nominal {nominal * 1e3:.3f})"
                      for work, median, nominal in zip(hostspeed.WORK, probe.medians_s(),
                                                    hostspeed.NOMINAL_S)),
          flush=True)
    failed = sum(p.failed for p in passes)
    done_plain = [p for p in plain if not p.timed_out]
    done_traced = [p for p in traced if not p.timed_out]
    values = {}
    if args.trace and done_plain and done_traced:
        values = per_layer(done_plain, done_traced)
    elif not args.trace and done_plain:
        values = end_to_end(done_plain, setup)
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in declared.items() if name in values}
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(p.invocations for p in passes),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
