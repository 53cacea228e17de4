#!/usr/bin/env python3
"""A mutant ledger: hand-made mutants of ``src/``, each run against a named
pytest selection, so that a rule no test pins shows as a survivor.

    python3 bench/mutants.py [--out FILE]

A mutant is one or more exact ``(file, old, new)`` text replacements in
``src/``.  Each ``old`` must occur exactly once in its file, else the
script stops: the source has drifted, and the mutant must be rewritten.
For each mutant, and for each seed in SEEDS, it copies ``src/``,
``tests/``, ``demos/`` and ``pyproject.toml`` into a temporary directory
(so hypothesis keeps its example database there, not here), applies the
mutant and runs the selection with ``-x`` and ``--hypothesis-seed``.
``-x`` matters: under the donor-size mutant the fast suite without it ran
for more than five minutes.  Two seeds show a kill that depends on the
hypothesis examples (the moved rule passed one fresh run and failed
another).  The unmutated tree runs first, as ``none``: if it does not
survive under every seed, the script stops before any mutant runs and
writes nothing, since every verdict after it would be a false kill.

It writes ``--out`` (default ``MUTANTS.json``): per mutant its edits,
selection and, per seed, "killed" or "survived", the first failing test
and the seconds taken, and whether the verdict depends on the seed.
Each run may use at most MEMORY_LIMIT bytes of address space.  Standard
library only; no test or gate reads the output.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
TIMEOUT_S = 900
MEMORY_LIMIT = 2 << 30
FAST = ("tests", "--ignore=tests/test_acceptance.py")

# name -> (edits, selection); each edit is (file under src/grtc, old, new)
MUTANTS = {
    "none": ((), FAST),
    "reconcile target order": (
        (("operators.py", "ahead = min((k - cur) % m", "ahead = max((k - cur) % m"),), FAST),
    "reconcile: no empty group first": (
        (("operators.py",
          "sizes = [0] if 0 in by_size else [size for size in by_size if size < floor]",
          "sizes = [size for size in by_size if size < floor]"),), FAST),
    "reconcile: a degraded outcome counts as a repair": (
        (("operators.py",
          "        ws.log.append(DegradedEntered(g))\n    return False\n",
          "        ws.log.append(DegradedEntered(g))\n    return True\n"),), FAST),
    "emergency donor size 3": (
        (("operators.py", "find_donor(ws, g, strategies.find_order, 2)",
          "find_donor(ws, g, strategies.find_order, 3)"),), FAST),
    "donor size": (
        (("strategies.py", "if size < min_size or at == [i]:",
          "if size < min_size - 1 or at == [i]:"),
         ("strategies.py", "if len(ms) < min_size:", "if len(ms) < min_size - 1:")), FAST),
    "sequence number": (
        (("operators.py", "    ws.next_seq += 1\n", ""),), FAST),
    "publish test: follows never fires": (
        (("generator.py", "if ws.tainted.isdisjoint(tokens):", "if True:"),), FAST),
    "publish test: floor one lower": (
        (("generator.py", "if min(by_size) < floor:", "if min(by_size) < floor - 1:"),), FAST),
    "stall marker last": (
        (("generator.py", "log = (Stalled(),) + log", "log = log + (Stalled(),)"),), FAST),
    "moved rule": (
        (("metrics.py", "moved = prev_g != g and w.token in moved_tokens",
          "moved = w.token in moved_tokens"),), FAST),
    "lap rule": (
        (("metrics.py", "expected = m - 1 if counter == 0 else counter - 1",
          "expected = prev_m - 1 if counter == 0 else counter - 1"),), FAST),
    "entries compare as plain tuples": (
        (("operators.py",
          "    cls.__eq__, cls.__ne__ = _same_kind(tuple.__eq__), _same_kind(tuple.__ne__)\n",
          ""),), ("tests/test_operators.py::TestEntryCodec",)),
    "quartile weight off by one": (
        (("metrics.py", "series[j] * (n - delta)", "series[j] * (n - delta - 1)"),),
        ("tests/test_metrics.py::TestQuartilesAndMeans",)),
}

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)")


def apply(tree: Path, edits, write: bool = True) -> None:
    for name, old, new in edits:
        path = tree / "src" / "grtc" / name
        text = path.read_text(encoding="utf-8")
        count = text.count(old)
        if count != 1:
            raise SystemExit(f"{name}: {old!r} occurs {count} times, not once")
        if write:
            path.write_text(text.replace(old, new), encoding="utf-8")


def limit_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_LIMIT, MEMORY_LIMIT))


def run_one(edits, selection, seed: int) -> dict:
    with tempfile.TemporaryDirectory(prefix="grtc-mutant-") as tmp:
        tree = Path(tmp)
        for name in ("src", "tests", "demos"):
            shutil.copytree(ROOT / name, tree / name,
                            ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tree)
        apply(tree, edits)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
               f"--hypothesis-seed={seed}", *selection]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True,
                                  timeout=TIMEOUT_S, preexec_fn=limit_memory)
        except subprocess.TimeoutExpired:
            return {"seed": seed, "verdict": "timeout", "killed_by": None,
                    "seconds": round(time.perf_counter() - start, 1)}
        seconds = round(time.perf_counter() - start, 1)
    failed = [m.group(1) for m in map(FAILED.match, proc.stdout.splitlines()) if m]
    if proc.returncode == 0:
        verdict = "survived"
    elif failed:
        verdict = "killed"
    else:  # pytest itself failed: report its last line
        verdict = "error: " + (proc.stdout.strip().splitlines() or ["no output"])[-1]
    return {"seed": seed, "verdict": verdict, "killed_by": failed[0] if failed else None,
            "seconds": seconds}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default="MUTANTS.json", help="output JSON")
    args = parser.parse_args()

    for edits, _ in MUTANTS.values():  # every edit must apply before anything runs
        apply(ROOT, edits, write=False)

    ledger = []
    for name in MUTANTS:
        edits, selection = MUTANTS[name]
        runs = [run_one(edits, selection, seed) for seed in SEEDS]
        verdicts = {r["verdict"] for r in runs}
        ledger.append({
            "name": name,
            "edits": [{"file": f"src/grtc/{f}", "old": old, "new": new}
                      for f, old, new in edits],
            "selection": list(selection),
            "runs": runs,
            "seed_dependent": len(verdicts) > 1,
        })
        print(f"{name}: " + ", ".join(f"seed {r['seed']} {r['verdict']}"
                                       f" ({r['killed_by'] or '-'}, {r['seconds']} s)"
                                       for r in runs), flush=True)
        if name == "none" and verdicts != {"survived"}:
            print("the unmutated tree does not survive: no ledger written", file=sys.stderr)
            return 1
    doc = {"python": platform.python_version(), "seeds": list(SEEDS), "mutants": ledger}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
