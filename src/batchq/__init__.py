"""Batch queues, Burke-type verification, and first-passage time constants.

Submodules and the re-exported names load on first access, so a command
imports only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
    "DistSpec",
    "QueueParams",
    "Trace",
    "RandomStream",
    "distributions",
    "queue_core",
    "tandem",
    "percolation",
    "timeconstants",
    "stats",
    "verify",
]

_MODULES = ("distributions", "percolation", "queue_core", "stats", "streams", "tandem",
            "timeconstants", "verify")
# re-exported name -> the submodule that defines it
_NAMES = {"DistSpec": "distributions", "QueueParams": "queue_core", "Trace": "queue_core",
          "RandomStream": "streams"}


def __getattr__(name: str):
    if name in _NAMES:
        value = getattr(importlib.import_module(f".{_NAMES[name]}", __name__), name)
    elif name in _MODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
