"""Batch queues, Burke-type verification, and first-passage time constants.

``import batchq`` loads no submodule and re-exports no names: each is reached
as ``import batchq.<module>``, so a command imports only the modules it uses.
"""

__version__ = "0.1.0"
