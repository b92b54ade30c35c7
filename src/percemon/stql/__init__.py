"""Specification language: syntax trees, parsing, checks and analyses.

The names re-exported here load their module on first use (PEP 562)."""

import importlib

from . import ast
# ``desugar`` names both a module and its function. Bound here, before
# anything imports the module, the package attribute is the function.
from .desugar import desugar

# Re-exported name -> the module that defines it.
_EXPORTS = {
    "BindDiagnostic": ".bindings",
    "check_bindings": ".bindings",
    "FrameBounds": ".bounds",
    "compute_bounds": ".bounds",
    "resolve_params": ".builtins",
    "resolve_spec": ".builtins",
    "parse": ".parser",
    "format_formula": ".printer",
    "format_spatial": ".printer",
}

__all__ = ["ast", "desugar", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(module, __name__), name)
    return value
