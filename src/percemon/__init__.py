"""Online runtime verification for object-detection streams.

The package parses specifications written in a spatio-temporal quality
logic, derives how many past and future frames a verdict needs, and
evaluates specifications either offline over a recorded trace or online
over a FIFO-buffered stream, one Boolean verdict per frame.

The names re-exported here load their module on first use (PEP 562), so
a program pays only for the modules it reads.
"""

import importlib

# ``evaluate`` names both a module and its function. Bound here, before
# anything imports the module, the package attribute is the function.
from .evaluate import evaluate

__version__ = "0.1.0"

# Re-exported name -> the module that defines it.
_EXPORTS = {
    "BoundingBox": ".trace",
    "ConfigError": ".errors",
    "ContractViolation": ".errors",
    "DetectedObject": ".trace",
    "EMPTY_ENV": ".evaluate",
    "Env": ".evaluate",
    "EvalContext": ".evaluate",
    "EvalStats": ".evaluate",
    "Frame": ".trace",
    "FrameBounds": ".stql.bounds",
    "GenConfig": ".generator",
    "IngestError": ".errors",
    "Monitor": ".monitor",
    "MonitorConfig": ".monitor",
    "PercemonError": ".errors",
    "SpecError": ".errors",
    "Verdict": ".monitor",
    "check_bindings": ".stql.bindings",
    "compute_bounds": ".stql.bounds",
    "desugar": ".stql.desugar",
    "evaluate_trace": ".evaluate",
    "format_formula": ".stql.printer",
    "generate_frames": ".generator",
    "make_frame": ".trace",
    "parse": ".stql.parser",
    "parse_frame": ".trace",
    "quantifier_assignments": ".evaluate",
    "read_stream": ".trace",
    "resolve_spec": ".stql.builtins",
    "run_monitor": ".monitor",
    "serialize_frame": ".trace",
}

__all__ = sorted([*_EXPORTS, "evaluate"])


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module, __name__), name)
    return value
