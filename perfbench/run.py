"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload pgpba-serial --seed 1 \\
        --seconds 25 --trace 0

Run from the root of a checkout: the program is imported from ``src/``.
The run re-executes itself as the leader of a new session, so that its
residue check and its clean-up at exit cover only the processes it
started.  With ``--trace 0`` the run imports the program, sets up the
workload, computes its reference once, then repeats the job until
``--seconds`` have passed, checking every output and checking for
residue after every job; two more set-ups run a third and two thirds of
the way through (``setup_s`` is the median of the three).  With
``--trace 1`` it sets up once with the layer wrappers recording, then
alternates untraced and traced jobs and reports the per-layer metrics
(see README.md); ``--spans FILE`` also writes every recorded span to
``FILE``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it
are a readable table and the run's provenance.

``--workload all`` runs the four workloads in turn, each in its own
process.  ``--record-references SEEDS`` instead computes each workload's reference
for the comma-separated seeds and writes them to ``references.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import layers
import procs
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"
WORK_ROOT = ROOT / ".perfbench_work"
HOOK_DIR = HERE / "hook"

N_SETUPS = 3
RESIDUE_GRACE_S = 2.0
MB = 1024.0 * 1024.0


def _tail(values: list[float]) -> tuple[float, float]:
    """``(value, percentile)`` of the highest percentile with at least ten
    samples beyond it; below 100 samples no percentile at or above p90 has
    ten beyond, so p90 is reported (with fewer than ten beyond)."""
    n = len(values)
    pct = max(90.0, 100.0 * (n - 10) / n) if n else 90.0
    if n == 1:
        return values[0], pct
    ordered = sorted(values)
    pos = pct / 100.0 * (n - 1)
    lo = int(pos)
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo), pct


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown (not a git checkout)"


def _provenance(args) -> dict:
    return {
        "git_sha": _git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "run": "smoke" if args.seconds < 10 else "full",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _load_references() -> dict:
    try:
        return json.loads(REFERENCES.read_text())
    except FileNotFoundError:
        return {}


def _prepare_environment(work: Path) -> None:
    """Point every temp and spill file of the program, its workers and
    daemons into the run's own directory, and drop engine overrides a
    caller may have exported: the workloads set every knob explicitly."""
    for var in [v for v in os.environ if v.startswith("REPRO_")]:
        del os.environ[var]
    tmp = work / "tmp"
    tmp.mkdir(parents=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    sys.path.insert(0, str(SRC))
    # Daemons load hook/sitecustomize.py, which records the segments they
    # create in the same ledger as this process and its forked workers.
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(HOOK_DIR)]
        + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    )
    os.environ[procs.SHM_LEDGER_ENV] = str(work / "shm-ledger")
    procs.install_shm_ledger(os.environ[procs.SHM_LEDGER_ENV])


# ----------------------------------------------------------------------
class Run:
    """Job, failure and residue bookkeeping of one benchmark run."""

    def __init__(self, args, work: Path) -> None:
        self.args = args
        self.tmp = work / "tmp"
        self.ledger = os.environ.get(procs.SHM_LEDGER_ENV)
        self.wl = workloads.WORKLOADS[args.workload]
        self.jobs: list = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def check_residue(self, before, label: str) -> bool:
        found = procs.wait_for_no_residue(
            before, [self.tmp], self.ledger, RESIDUE_GRACE_S
        )
        for item in found:
            self.problems.append(f"{label}: residue {item}")
        return not found

    def run_job(self, state, before):
        """Run, check and count one job; its output, or None if it raised."""
        self.attempted += 1
        label = f"job {self.attempted}"
        # Each job starts from a collected heap, whatever the last one left.
        gc.collect()
        try:
            out = self.wl.job(state)
        except Exception as exc:  # noqa: BLE001 - a failed operation
            out = None
            self.problems.append(f"{label}: {type(exc).__name__}: {exc}")
        else:
            self.problems += [f"{label}: {p}" for p in out.problems]
            self.jobs.append(out)
        clean = self.check_residue(before, label)
        if out is None or out.problems or not clean:
            self.failed += 1
        return out

    def check_recorded(self, state) -> None:
        """When the seed has a recorded reference, comparing it with the
        one just computed is one more operation, and the jobs are held to
        the recorded one."""
        recorded = _load_references().get(self.wl.name, {})
        expected = recorded.get(str(self.args.seed))
        if expected is None:
            return
        self.attempted += 1
        if expected != state["reference"]:
            self.failed += 1
            self.problems.append(
                f"reference for seed {self.args.seed} differs from the "
                f"recorded one: {state['reference']!r} != {expected!r}"
            )
            state["reference"] = expected


def measure(args, work: Path) -> tuple[dict, Run]:
    """``--trace 0``: the end-to-end metrics."""
    run = Run(args, work)
    wl = run.wl
    start = procs.snapshot([run.tmp], run.ledger)
    # Importing the program is not set-up: without this the first set-up
    # alone would pay it.
    for module in wl.modules:
        importlib.import_module(module)
    setups = []

    def timed_setup():
        t0 = time.perf_counter()
        fresh = wl.setup(args.seed, work / f"data{len(setups)}")
        setups.append(time.perf_counter() - t0)
        return fresh

    state = timed_setup()
    try:
        wl.reference(state)
        run.check_recorded(state)
        before = procs.snapshot([run.tmp], run.ledger)
        peaks = []
        with procs.RssSampler() as rss:
            # The other set-ups are spread over the run, so that one slow
            # spell of the host cannot move all of them; neither their time
            # nor their memory counts towards the jobs'.
            t_start = time.perf_counter()
            while True:
                run.run_job(state, before)
                peaks.append(rss.take_peak())
                elapsed = time.perf_counter() - t_start
                if elapsed >= args.seconds:
                    break
                if (len(setups) < N_SETUPS
                        and elapsed >= args.seconds * len(setups) / N_SETUPS):
                    t0 = time.perf_counter()
                    wl.teardown(timed_setup())
                    rss.take_peak()
                    t_start += time.perf_counter() - t0
        while len(setups) < N_SETUPS:
            wl.teardown(timed_setup())
    finally:
        wl.teardown(state)
    run.attempted += 1
    if not run.check_residue(start, "teardown"):
        run.failed += 1

    jobs = run.jobs
    if not jobs:
        raise RuntimeError("every job failed")
    walls = [j.wall for j in jobs]
    total_wall = sum(walls)
    latencies_ms = [x * 1e3 for j in jobs for x in j.window_latencies]
    wall_tail, wall_pct = _tail(walls)
    lat_tail, lat_pct = _tail(latencies_ms)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_p50_s": (statistics.median(walls), "s"),
        "wall_tail_s": (wall_tail, "s"),
        "edges_per_s": (sum(j.edges for j in jobs) / total_wall, "1/s"),
        "packets_per_s": (sum(j.packets for j in jobs) / total_wall, "1/s"),
        "window_latency_p50_ms": (statistics.median(latencies_ms), "ms"),
        "window_latency_tail_ms": (lat_tail, "ms"),
        "peak_rss_mb": (statistics.median(peaks) / MB, "MB"),
    }
    notes = {
        "wall_p50_s": f"of {len(walls)} jobs",
        "wall_tail_s": f"p{wall_pct:.1f} of {len(walls)} jobs",
        "window_latency_tail_ms":
            f"p{lat_pct:.1f} of {len(latencies_ms)} samples",
        "setup_s": "median of " + ", ".join(f"{x:.3f}" for x in setups),
        "peak_rss_mb": f"median of {len(peaks)} per-job peaks; highest "
                       f"{max(peaks) / MB:.1f}",
        "error_rate": f"{run.failed}/{run.attempted} operations failed",
    }
    metrics["error_rate"] = (run.failed / run.attempted, "ratio")
    return {"metrics": metrics, "notes": notes}, run


def trace(args, work: Path) -> tuple[dict, Run]:
    """``--trace 1``: per-layer metrics from a traced run."""
    run = Run(args, work)
    wl = run.wl
    trace_dir = work / "trace"
    trace_dir.mkdir()
    # Daemons started in set-up inherit this and install the wrappers
    # through hook/sitecustomize.py.
    os.environ[tracing.TRACE_DIR_ENV] = str(trace_dir)
    tracer = tracing.install(str(trace_dir))
    start = procs.snapshot([run.tmp], run.ledger)
    tracer.set_enabled(True)
    t0 = time.perf_counter()
    state = wl.setup(args.seed, work / "data0")
    setup_window = (t0, time.perf_counter())
    tracer.set_enabled(False)
    setup_spans = tracer.take()
    traced, untraced = [], []
    try:
        wl.reference(state)
        run.check_recorded(state)
        tracer.take()
        before = procs.snapshot([run.tmp], run.ledger)
        t_start = time.perf_counter()
        while True:
            on = run.attempted % 2 == 1
            tracer.set_enabled(on)
            job = run.run_job(state, before)
            tracer.set_enabled(False)
            if job is not None:
                window = (job.start, job.start + job.wall)
                (traced if on else untraced).append((window, job))
            if time.perf_counter() - t_start >= args.seconds and (
                (traced and untraced) or run.failed
            ):
                break
    finally:
        wl.teardown(state)
        tracer.uninstall()
    run.attempted += 1
    if not run.check_residue(start, "teardown"):
        run.failed += 1
    if not traced or not untraced:
        raise RuntimeError("no traced or no untraced job succeeded")
    spans = tracer.take() + tracing.load_child_spans(str(trace_dir))
    if args.spans:
        tracing.write_spans(args.spans, setup_spans + spans)
    result = layers.per_layer(
        setup_spans=setup_spans + [
            s for s in spans
            if setup_window[0] <= s.start and s.end <= setup_window[1]
        ],
        job_spans=[s for s in spans if s.start > setup_window[1]],
        traced=traced,
        untraced=untraced,
    )
    if tracer.missing:
        result["notes"]["functions not found in the program"] = ", ".join(
            tracer.missing
        )
    return result, run


def record_references(seeds: list[int], work: Path) -> None:
    refs = _load_references()
    for name, wl in workloads.WORKLOADS.items():
        for seed in seeds:
            state = wl.setup(seed, work / f"{name}-{seed}")
            try:
                refs.setdefault(name, {})[str(seed)] = wl.reference(state)
            finally:
                wl.teardown(state)
            print(f"recorded {name} seed {seed}", file=sys.stderr)
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def _print_table(result: dict, prov: dict) -> None:
    print("provenance: " + json.dumps(prov, sort_keys=True))
    notes = result.get("notes", {})
    for name, (value, unit) in result["metrics"].items():
        note = notes.get(name, "")
        print(f"  {name:<40} {value:>16.6g} {unit:<6} {note}")
    for name, note in notes.items():
        if name not in result["metrics"]:
            print(f"  {name}: {note}")


def _run_in_own_session(argv: list[str]) -> int:
    """Run this script again as the leader of a new session and return its
    exit code; on the way out, kill whatever is left in that session."""
    child = subprocess.Popen(
        [sys.executable, __file__, *argv], start_new_session=True
    )
    # A terminating signal unwinds through the finally below.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        return child.wait()
    finally:
        procs.kill_session(child.pid)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        help=f"one of {', '.join(workloads.WORKLOADS)}, "
                             "or all to run each in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE",
                        help="with --trace 1, also write every span to FILE "
                             "as JSON lines")
    parser.add_argument("--record-references", metavar="SEEDS")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program source under {SRC}: run from a checkout root",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        # One process per workload, each set up and checked on its own.
        common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                  "--trace", str(args.trace)]
        return max(
            subprocess.call([sys.executable, __file__, "--workload", name,
                             *common])
            for name in workloads.WORKLOADS
        )
    if os.getsid(0) != os.getpid():
        return _run_in_own_session(
            sys.argv[1:] if argv is None else list(argv)
        )
    work = WORK_ROOT / str(os.getpid())
    _prepare_environment(work)
    ledger = os.environ[procs.SHM_LEDGER_ENV]
    initial = procs.snapshot(ledger=ledger)
    try:
        if args.record_references:
            record_references(
                [int(s) for s in args.record_references.split(",")], work
            )
            return 0
        if args.workload not in workloads.WORKLOADS:
            parser.error(
                f"--workload must be one of {sorted(workloads.WORKLOADS)}"
            )
        prov = _provenance(args)
        fn = trace if args.trace else measure
        result, run = fn(args, work)
    finally:
        procs.kill_leftovers(initial, ledger)
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass

    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    _print_table(result, prov)
    line = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in result["metrics"].items()
            if name != "error_rate"
        },
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
