"""grtc benchmark: end-to-end metrics (tracing off) or per-layer metrics
(tracing on) for one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass runs in a fresh interpreter
(``perfbench/workloads.py``) and checks its outputs; the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it stamps the
environment.  Metric names, units and the workloads are described in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

WORK_ROOT = Path("perfbench") / "_work"
MIN_PASSES = 3
PASS_TIMEOUT_S = 150

# spans reported as <name>_s (self seconds) and <name>_calls
COUNTED_SPANS = (
    "strategies.choose_group", "strategies.find_donor", "operators.insert_worker",
    "operators.remove_worker", "state.check_state", "state.validate_pair",
    "generator.next_state", "metrics.transition_stress", "sweep.run_combo",
)
# spans reported as <name>_s only
TIMED_SPANS = (
    "generator.run_rotation", "generator.partition_events", "metrics.summarize_run",
    "records.record_to_dict", "records.dump_record", "records.load_record",
    "recordcheck.validate_record", "recordcheck.check_replay",
    "traces.generate_trace", "traces.read_trace",
)
NO_SPAN = {"calls": 0, "self_s": 0.0, "total_s": 0.0, "none": 0, "raised": {},
           "us_p50": 0.0, "us_p95": 0.0}


class PassFailed(Exception):
    """A pass process crashed or printed no result: the harness, not grtc,
    could not measure."""


def run_pass(mode: str, workload: str, seed: int, work: Path,
             jobs: int | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "workloads.py"), mode, workload, str(seed),
           str(work)]
    if jobs is not None:
        cmd += ["--jobs", str(jobs)]
    t0 = time.perf_counter()
    # its own process group, so a timeout also ends the sweep's pool workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise PassFailed(f"{mode} pass did not finish in {PASS_TIMEOUT_S} s") from None
    wall = time.perf_counter() - t0
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassFailed(f"{mode} pass exited {proc.returncode}: {stderr.strip()[-2000:]}")
    res = json.loads(lines[-1])
    res["process_s"] = wall
    return res


def load_golden(workload: str, seed: int) -> dict | None:
    golden = json.loads((HERE / "golden.json").read_text())
    entry = golden.get(workload, {})
    return entry.get("any") or entry.get(str(seed))


def check_digests(passes: list[dict], golden: dict | None) -> tuple[int, int, list[str]]:
    """(attempted, failed, notes) of the digest checks: every pass must
    match the committed digests for this seed, when there are any, and
    always the first pass (byte-identical repeats)."""
    attempted = failed = 0
    notes = []
    reference = golden or (passes[0].get("digests") if passes else None)
    for i, p in enumerate(passes):
        for name, value in p.get("digests", {}).items():
            attempted += 1
            if reference is not None and reference.get(name) != value:
                failed += 1
                what = "committed digest" if golden else "pass 0"
                notes.append(f"pass {i}: {name} sha256 {value[:12]} differs from {what}")
    return attempted, failed, notes


def environment(root: Path) -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_before": list(os.getloadavg()),
        "commit": git_commit(root),
        "src_sha256": src_digest(root),
    }


def git_commit(root: Path) -> str | None:
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != root.resolve():
        return None
    return lines[1]


def src_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# -- tracing off: end-to-end metrics ----------------------------------------


def measure(workload: str, seed: int, seconds: float, work: Path) -> tuple[dict, list]:
    """Passes until ``seconds`` would be overrun (at least MIN_PASSES);
    every metric is the median over passes."""
    passes: list[dict] = []
    t0 = time.perf_counter()
    while True:
        passes.append(run_pass("measure", workload, seed, work))
        elapsed = time.perf_counter() - t0
        next_pass = statistics.median([p["process_s"] for p in passes])
        if len(passes) >= MIN_PASSES and elapsed + next_pass > seconds:
            break
    return end_to_end_metrics(passes), passes


def end_to_end_metrics(passes: list[dict]) -> dict:
    """Medians over passes.  ``work`` is the pass's task times (grtc run),
    sweep runs or census cases, and ``work_s`` the wall time it took."""
    return {
        "setup_s": (statistics.median([p["setup_s"] for p in passes]), "s"),
        "work_per_s": (statistics.median([p["work"] / p["work_s"] for p in passes]), "1/s"),
        "peak_rss_mb": (statistics.median([p["peak_rss_mb"] for p in passes]), "MB"),
    }


# -- tracing on: per-layer metrics -------------------------------------------


def traced(workload: str, seed: int, work: Path) -> tuple[dict, list]:
    """One untraced and one traced pass of the same operations, plus the
    pool-size ladder (churn-large) or the tracemalloc pass (quiet-long).
    The sweep is traced with --jobs 1 so its spans stay in one process,
    and compared against an untraced --jobs 1 pass."""
    jobs = 1 if workload == "sweep-grid" else None
    plain = run_pass("measure", workload, seed, work, jobs)
    spans = run_pass("traced", workload, seed, work, jobs)
    passes = [plain, spans]
    if workload == "sweep-grid":
        passes.insert(0, run_pass("measure", workload, seed, work))  # --jobs 2
    ladder = memory = None
    if workload == "churn-large":
        ladder = run_pass("ladder", workload, seed, work)
    if workload == "quiet-long":
        memory = run_pass("memory", workload, seed, work)
    return layer_metrics(plain, spans, ladder, memory), passes + [
        p for p in (ladder, memory) if p]


def layer_metrics(plain: dict, spans: dict, ladder: dict | None,
                  memory: dict | None) -> dict:
    """Per-layer metrics; a layer the workload does not exercise reads 0."""
    counters = spans["counters"]

    def span(name: str) -> dict:
        return spans["layers"].get(name, NO_SPAN)

    m: dict[str, tuple[float, str]] = {}
    for name in COUNTED_SPANS:
        m[f"{name}_s"] = (span(name)["self_s"], "s")
        m[f"{name}_calls"] = (span(name)["calls"], "count")
    donor = span("strategies.find_donor")
    m["strategies.find_donor_hit_ratio"] = (
        (donor["calls"] - donor["none"]) / donor["calls"] if donor["calls"] else 0.0,
        "ratio")
    nxt = span("generator.next_state")
    m["generator.next_state_us_p50"] = (nxt["us_p50"], "us")
    m["generator.next_state_us_p95"] = (nxt["us_p95"], "us")
    m["generator.stall_retries"] = (nxt["raised"].get("StallError", 0), "count")
    for name in TIMED_SPANS:
        m[f"{name}_s"] = (span(name)["self_s"], "s")
    m["recordcheck.findings"] = (counters.get("recordcheck.findings", 0), "count")
    execute = span("sweep.execute")
    m["sweep.overhead_s"] = (
        execute["total_s"] - span("sweep.run_combo")["total_s"] if execute["calls"] else 0.0,
        "s")
    m["sweep.error_rows"] = (spans.get("error_rows", 0), "count")
    m["traces.events"] = (counters.get("traces.events", 0), "count")
    counts = spans.get("counts", {})
    for key in ("splits", "joins", "donations"):
        m[f"operators.{key}"] = (counts.get(key, 0), "count")
    for n0 in (50, 100, 200, 400):
        rung = (ladder or {}).get("ladder", {}).get(f"n{n0}")
        m[f"generator.us_per_event.n{n0}"] = (rung["us_per_event"] if rung else 0.0, "us")
    m["mem.run_rotation_peak_mb"] = ((memory or {}).get("run_rotation_peak_mb", 0.0), "MB")
    m["records.peak_mb"] = ((memory or {}).get("records_peak_mb", 0.0), "MB")
    m["trace.overhead_ratio"] = (spans["times"]["wall_s"] / plain["times"]["wall_s"], "ratio")
    # end-to-end numbers that apply to some workloads only (0 elsewhere)
    m["validate_states_per_s"] = (
        plain["states"] / plain["times"]["validate_s"] if "validate_s" in plain["times"]
        else 0.0, "1/s")
    m["record_mb"] = (plain.get("record_mb", 0.0), "MB")
    return m


# -- entry point --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "grtc" / "__init__.py").is_file():
        print("perfbench: no grtc source tree at ./src/grtc; "
              "run from the repository root", file=sys.stderr)
        return 2

    env = environment(root)
    work = WORK_ROOT / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, passes = traced(args.workload, args.seed, work)
        else:
            metrics, passes = measure(args.workload, args.seed, args.seconds, work)
    except PassFailed as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    finally:
        spans_file = work / "spans.json.gz"
        if spans_file.exists():
            spans_file.replace(WORK_ROOT / f"spans-{args.workload}.json.gz")
        shutil.rmtree(work, ignore_errors=True)
    env["loadavg_after"] = list(os.getloadavg())

    digest_passes = [p for p in passes if "digests" in p]
    golden = load_golden(args.workload, args.seed)
    d_attempted, d_failed, d_notes = check_digests(digest_passes, golden)
    attempted = sum(p["attempted"] for p in passes) + d_attempted
    failed = sum(p["failed"] for p in passes) + d_failed
    notes = [n for p in passes for n in p["notes"]] + d_notes
    if args.trace:
        metrics["error_rate"] = (failed / attempted, "ratio")
    if golden is None:
        notes.append(f"no committed digests for seed {args.seed}: outputs checked "
                     "by grtc validate, report/record agreement and repeat identity")

    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": env, "passes": len(passes), "golden": golden is not None,
              "notes": notes}
    if args.trace:
        detail["spans_file"] = str(WORK_ROOT / f"spans-{args.workload}.json.gz")
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    (WORK_ROOT / f"last-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps(dict(detail, pass_results=passes), indent=1, default=str))

    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
