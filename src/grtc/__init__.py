"""grtc: a simulator and strategy-exploration toolkit for group-rotation
crowdsourcing workflows.

Workers are partitioned into a ring of groups; one group performs each
task and the ring rotates.  Workers arrive and leave freely, so the
grouping is restructured on the fly - splits, joins, donations - under
pluggable strategies, while every published state keeps the rotation
contract: the group that just performed survives, its successor performs
next, and nobody performs twice in a row.

The package simulates such rotations over arrival/departure traces,
validates the produced records independently, and scores the tradeoff
between group count (worker burden) and restructuring stress.
"""

from .errors import GrtcError, StallError
from .generator import TaskSchedule, build_initial_state, next_state, run_rotation
from .metrics import StressWeights, summarize_run
from .operators import OperatorPolicy
from .records import dump_record, load_record, record_to_dict
from .recordcheck import validate_record
from .state import RotationState
from .strategies import StrategySet
from .traces import TraceConfig, WorkerEvent, generate_trace, read_trace, write_trace

__version__ = "0.1.0"
