"""Benchmark of the quiverlab CLI: end-to-end timings and a traced per-layer replay.

Run from the repository root:

    python3 bench/run.py                     # every workload, one summary each
    python3 bench/run.py --workload spectral --seed 3 --seconds 40 --trace 0

Each job is one `quiverlab <command> ... --json` child process, run one at a
time: a closed loop with a single client, so no in-process cache carries over
between jobs. Jobs run in whole passes over the workload, in a seeded order;
the number of passes follows from `--seconds` and the workload's nominal pass
time (PASS_S), so `attempted` and `failed` depend on the arguments only. Every
job's report is checked against a reference taken from theory. A fixed
standard-library calibration loop runs before and after each job; dividing
by it gives `wall_cal`, which follows the program rather than the host's
current speed.

With `--trace 1` each job is also run through the CLI's own `main`
in-process, with spans around the layer functions on its path (see
replay.py), and the per-layer metrics are reported.

The last line of standard output is one JSON object. With `--workload` it
has the keys `correct`, `attempted`, `failed` and `metrics`; without it,
every workload runs and the object maps each workload's name to such an
object. See README.md in this directory for the workloads and what each
metric should track.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import workloads
from workloads import Job, Outcome

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 5  # before measuring, and again after
JOB_TIMEOUT_S = 150.0
CALIBRATION_STEPS = 15000
# seconds one untraced pass takes on the 2-core x86 host the benchmark was written
# on, calibration loops included; a run makes floor(--seconds / PASS_S) whole passes,
# at least one, and a traced run, which replays every job too, half as many
PASS_S = {"trivext-wide": 23.0, "trivext-deep": 13.0, "spectral": 21.0}

# end-to-end metrics in the JSON line; a "loops" figure is in units of the calibration loop
END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_cal": "loops",
    "cpu_cal": "loops",
    "peak_rss_mb": "MB",
}
# printed in the summary only, too noisy to gate: host speed moves raw times by up
# to 30% between runs, and the slowest of several similar jobs picks up their noise
PRINTED_UNITS = {"wall_s": "s", "cpu_s": "s", "job_max_s": "s", "job_max_cal": "loops"}


def calibrate() -> float:
    """Seconds taken by a fixed loop of Fraction arithmetic and dict updates."""
    start = time.perf_counter()
    acc: dict[int, int] = {}
    x = Fraction(1, 3)
    for i in range(CALIBRATION_STEPS):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i % 11 + 1)
        if x.denominator > 10**6:
            x = Fraction(x.numerator % 97 + 1, x.denominator % 89 + 1)
        acc[i % 257] = acc.get(i % 257, 0) + x.numerator % 13
    return time.perf_counter() - start


def child_env() -> dict[str, str]:
    """The children see the repository's src, and no thread-pool setting."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("QUIVERLAB_THREADS", None)
    return env


@dataclass
class ChildRun:
    outcome: Outcome
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(args: list[str], cwd: Path, env: dict[str, str]) -> ChildRun:
    """Run `python3 <args>` to completion; wall, CPU and max RSS come from wait4."""
    out_path, err_path = cwd / ".stdout", cwd / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env,
                                stdout=out, stderr=err)
        timer = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    outcome = Outcome(proc.returncode, out_path.read_bytes(),
                      err_path.read_text(encoding="utf-8", errors="replace"))
    return ChildRun(outcome, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cold_import(cwd: Path, env: dict[str, str]) -> ChildRun:
    run = run_child(["-c", "import quiverlab.cli"], cwd, env)
    if run.outcome.exit_code != 0:
        raise RuntimeError("cannot import quiverlab.cli: " + run.outcome.stderr.strip())
    return run


def setup(name: str, seed: int, work: Path, env: dict[str, str]):
    """Build and write the inputs, then import quiverlab.cli in a child; repeated.

    Returns the jobs, the input directory of the last repeat and the time
    of each repeat.
    """
    times = []
    for k in range(SETUP_REPEATS):
        directory = work / f"inputs-{k}"
        start = time.perf_counter()
        files, jobs = workloads.build(name, seed)
        workloads.write_inputs(files, directory)
        cold_import(directory, env)
        times.append(time.perf_counter() - start)
    return jobs, directory, times


class Ledger:
    """Per-job samples, failures and output digests of one run."""

    def __init__(self, jobs: list[Job]) -> None:
        self.digests: dict[str, set[str]] = {j.id: set() for j in jobs}
        self.failures: dict[str, str] = {}
        self.tolerated: set[str] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = 0.0
        self.calibration_s: list[float] = []
        self.samples: list[dict] = []

    def record(self, job: Job, run: ChildRun, cal_s: float) -> None:
        self.attempted += 1
        self.samples.append({"job": job.id, "wall_s": run.wall_s, "cpu_s": run.cpu_s,
                              "calibration_s": cal_s})
        self.peak_rss_mb = max(self.peak_rss_mb, run.rss_mb)
        self.digests[job.id].add(hashlib.sha256(run.outcome.stdout).hexdigest())
        if len(self.digests[job.id]) > 1:
            self.problems.append(f"{job.id}: output bytes differ between passes")
        reason = job.judge(run.outcome)
        if reason is None:
            return
        self.failed += 1
        self.failures[job.id] = reason
        if job.known_failure(run.outcome):
            self.tolerated.add(job.id)
        else:
            self.problems.append(f"{job.id}: {reason}")

    def end_to_end(self, setup_s: float) -> dict[str, float]:
        """Each job's median over the passes, summed (or maxed) over the jobs."""
        per_job: dict[str, list[dict]] = {}
        for row in self.samples:
            per_job.setdefault(row["job"], []).append(row)

        def medians(value) -> list[float]:
            return [statistics.median(value(r) for r in rows) for rows in per_job.values()]

        wall = medians(lambda r: r["wall_s"])
        wall_cal = medians(lambda r: r["wall_s"] / r["calibration_s"])
        return {
            "setup_s": setup_s,
            "wall_cal": sum(wall_cal),
            "job_max_cal": max(wall_cal),
            "cpu_cal": sum(medians(lambda r: r["cpu_s"] / r["calibration_s"])),
            "peak_rss_mb": self.peak_rss_mb,
            "wall_s": sum(wall),
            "job_max_s": max(wall),
            "cpu_s": sum(medians(lambda r: r["cpu_s"])),
        }


def pass_count(name: str, seconds: float, trace: bool) -> int:
    """Whole passes that fit `seconds` at the nominal pass time; at least one.

    A count fixed by the arguments, not by a deadline, keeps every run's
    `attempted` and `failed` the same whatever the host's speed: a deadline
    that cut a pass short would drop some of its jobs, known defects among
    them, in one run and not in another.
    """
    pass_s = PASS_S[name] * (2 if trace else 1)
    return max(1, int(seconds // pass_s))


def measure(jobs: list[Job], inputs: Path, passes: int, rng: random.Random,
            env: dict[str, str], each_job=None) -> Ledger:
    """`passes` passes over the jobs, each in a seeded order."""
    ledger = Ledger(jobs)
    cal_before = calibrate()
    ledger.calibration_s.append(cal_before)
    for pass_no in range(passes):
        for job in rng.sample(jobs, len(jobs)):
            run = run_child(["-m", "quiverlab.cli", *job.argv, "--json"], inputs, env)
            cal_after = calibrate()
            ledger.calibration_s.append(cal_after)
            ledger.record(job, run, (cal_before + cal_after) / 2)
            cal_before = cal_after
            if each_job is not None:
                each_job(pass_no, job, run)
    return ledger


def traced(jobs: list[Job], inputs: Path, passes: int, rng: random.Random,
           env: dict[str, str]) -> tuple[Ledger, dict[str, float], float]:
    """CLI passes as in `measure`, each job followed by its traced in-process replay."""
    sys.path.insert(0, str(SRC))
    os.environ.pop("QUIVERLAB_THREADS", None)  # the replay sees what the children see
    import replay

    tracers: list[replay.Tracer] = []
    cli_walls: list[float] = []
    mismatches: list[str] = []

    def replay_job(pass_no: int, job: Job, run: ChildRun) -> None:
        if pass_no == len(tracers):
            tracers.append(replay.Tracer())
            cli_walls.append(0.0)
        tracer = tracers[pass_no]
        cli_walls[pass_no] += run.wall_s
        tracer.job = job.id
        with tracer.span("cli.startup"):
            cold_import(inputs, env)
        got = replay.run(tracer, [*job.argv, "--json"], inputs)
        out = run.outcome
        if got != (out.exit_code, out.stdout, out.stderr):
            mismatches.append(f"{job.id}: the replay's exit status or output differs from the CLI's")

    ledger = measure(jobs, inputs, passes, rng, env, replay_job)
    ledger.problems.extend(mismatches)
    per_pass = [replay.pass_metrics(t, wall) for t, wall in zip(tracers, cli_walls)]
    metrics = {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}
    return ledger, metrics, statistics.median(cli_walls)


def units(name: str) -> str:
    if name in END_TO_END_UNITS:
        return END_TO_END_UNITS[name]
    if name in PRINTED_UNITS:
        return PRINTED_UNITS[name]
    return "s" if name.endswith("_s") else "count"


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    env = child_env()
    work = WORK / f"{name}-{seed}-{os.getpid()}"
    try:
        jobs, inputs, setup_times = setup(name, seed, work / "before", env)
        rng = random.Random(f"order:{name}:{seed}")
        passes = pass_count(name, seconds, trace)
        printed: dict[str, float] = {}
        if trace:
            ledger, metrics, printed["wall_s"] = traced(jobs, inputs, passes, rng, env)
        else:
            ledger = measure(jobs, inputs, passes, rng, env)
            # the host's speed shifts within seconds; set-ups on both sides of the
            # measurement make the median follow the whole run, not its first moments
            setup_times += setup(name, seed, work / "after", env)[2]
            metrics = ledger.end_to_end(statistics.median(setup_times))
            printed = {k: metrics.pop(k) for k in PRINTED_UNITS}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "passes": passes,
        "correct": not ledger.problems,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": units(k)} for k, v in metrics.items()},
        "printed": {k: {"value": v, "unit": units(k)} for k, v in printed.items()},
        "failures": ledger.failures,
        "known_defects": {
            j.id: f"{j.defect.owner}: {j.defect.signature}"
            for j in jobs if j.id in ledger.tolerated
        },
        "problems": list(dict.fromkeys(ledger.problems)),
        "evidence": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "calibration_s": ledger.calibration_s,
            "stdout_sha256": {j: sorted(d) for j, d in ledger.digests.items()},
        },
    }


def summary(result: dict) -> list[str]:
    lines = [f"workload {result['workload']}  seed {result['seed']}  "
             f"passes {result['passes']}  trace {int(result['trace'])}"]
    for name, m in [*result["metrics"].items(), *result["printed"].items()]:
        lines.append(f"  {name:28s} {m['value']:14.6f} {m['unit']}")
    if result["trace"]:
        wall = result["printed"]["wall_s"]["value"]
        shares = ", ".join(
            f"{name} {result['metrics'][name]['value'] / wall:.2f}"
            for name in ("resolution.radical_total_s", "resolution.resolve_s", "cli.startup_s"))
        lines.append(f"  share of the CLI pass: {shares}")
    att, fail = result["attempted"], result["failed"]
    lines.append(f"  {'fail_ratio':28s} {fail / att:14.6f} ratio ({fail} failed / {att} attempted)")
    for job, reason in result["failures"].items():
        owner = result["known_defects"].get(job)
        tag = f"known defect, {owner}" if owner else "UNEXPECTED"
        lines.append(f"  failed {job} [{tag}]: {reason}")
    lines.extend(f"  problem: {p}" for p in result["problems"])
    lines.append("  evidence: " + json.dumps(result["evidence"], sort_keys=True))
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "quiverlab" / "cli.py").is_file():
        print(f"error: no quiverlab sources under {SRC}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    results = []
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print("\n".join(summary(result)), flush=True)
        results.append(result)
    lasts = [{k: r[k] for k in ("correct", "attempted", "failed", "metrics")} for r in results]
    if args.workload:
        print(json.dumps(lasts[0]))
    else:
        print(json.dumps(dict(zip(names, lasts))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
