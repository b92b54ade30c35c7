"""Online runtime verification for object-detection streams.

The package parses specifications written in a spatio-temporal quality
logic, derives how many past and future frames a verdict needs, and
evaluates specifications either offline over a recorded trace or online
over a FIFO-buffered stream, one Boolean verdict per frame.
"""

from .errors import (
    ConfigError,
    ContractViolation,
    IngestError,
    PercemonError,
    SpecError,
)
from .evaluate import (
    EMPTY_ENV,
    Env,
    EvalContext,
    EvalStats,
    evaluate,
    evaluate_trace,
    quantifier_assignments,
    ref_point,
)
from .generator import GenConfig, generate_frames
from .monitor import Monitor, MonitorConfig, Verdict, run_monitor
from .stql import (
    FrameBounds,
    check_bindings,
    compute_bounds,
    desugar,
    format_formula,
    parse,
    resolve_spec,
)
from .trace import (
    BoundingBox,
    DetectedObject,
    Frame,
    make_frame,
    parse_frame,
    read_stream,
    serialize_frame,
)

__version__ = "0.1.0"

__all__ = [
    "BoundingBox",
    "ConfigError",
    "ContractViolation",
    "DetectedObject",
    "EMPTY_ENV",
    "Env",
    "EvalContext",
    "EvalStats",
    "Frame",
    "FrameBounds",
    "GenConfig",
    "IngestError",
    "Monitor",
    "MonitorConfig",
    "PercemonError",
    "SpecError",
    "Verdict",
    "check_bindings",
    "compute_bounds",
    "desugar",
    "evaluate",
    "evaluate_trace",
    "format_formula",
    "generate_frames",
    "make_frame",
    "parse",
    "parse_frame",
    "quantifier_assignments",
    "read_stream",
    "ref_point",
    "resolve_spec",
    "run_monitor",
    "serialize_frame",
]
