"""Batch queues, Burke-type verification, and first-passage time constants.

Submodules load on first access, so a command imports only the modules it
uses.  The package re-exports no names: each one is reached through the
submodule that defines it.
"""

import importlib

__version__ = "0.1.0"

__all__ = [
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


def __getattr__(name: str):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f".{name}", __name__)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
