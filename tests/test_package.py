"""The package root: the names one run needs, nothing more.  Everything
else is imported from its module (``grtc.state``, ``grtc.operators``, ...).
Importing the package and its command line loads no more than they run."""

import os
import subprocess
import sys
import types
from pathlib import Path

import grtc

ROOT_NAMES = {
    # errors
    "GrtcError", "StallError",
    # configuration and state
    "OperatorPolicy", "StrategySet", "StressWeights", "TaskSchedule", "TraceConfig",
    "RotationState", "WorkerEvent",
    # run, score, validate
    "build_initial_state", "next_state", "run_rotation", "summarize_run", "validate_record",
    # traces and records
    "generate_trace", "read_trace", "write_trace",
    "record_to_dict", "dump_record", "load_record",
}


def test_root_exports_the_names_a_run_needs():
    public = {name for name, value in vars(grtc).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == ROOT_NAMES
    assert isinstance(grtc.__version__, str)


# the grtc modules perfbench's tracer wraps (``LAYERS`` in
# perfbench/tracing.py); it reads each from sys.modules after importing
# grtc and grtc.cli, so each must load with them
TRACED_LAYERS = ("traces", "generator", "strategies", "operators", "state", "metrics",
                 "records", "recordcheck", "sweep")


# what a grtc process must not pay for at start-up: the process-pool
# stack, which only a parallel sweep imports, and the modules that
# ``dataclasses`` (``inspect``) and ``statistics`` (``decimal``,
# ``fractions``) load
UNLOADED = ("concurrent.futures", "multiprocessing", "dataclasses", "inspect",
            "statistics", "decimal", "fractions")


def test_import_leaves_out_process_pool_dataclasses_and_statistics():
    """``import grtc, grtc.cli`` loads every traced layer and none of
    ``UNLOADED``."""
    src = Path(grtc.__file__).resolve().parent.parent
    probe = ("import sys, grtc, grtc.cli; "
             "print('\\n'.join(sorted(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(src))
    loaded = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert [name for name in loaded if name.startswith(UNLOADED)] == []
    assert {f"grtc.{layer}" for layer in TRACED_LAYERS} <= set(loaded)
