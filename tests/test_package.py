"""The package root: the names one run needs, nothing more.  Everything
else is imported from its module (``grtc.state``, ``grtc.operators``, ...)."""

import types

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
