"""Fail if importing the library's entry points loads a package outside its runtime dependencies.

Run it against an install without the ``dev`` extra, from the repository
root: ``python tests/runtime_imports.py``. It exits 1 and names the
packages that were loaded, or exits 0.
"""

import sys

import propgraph
import propgraph.cli
import propgraph.evaluation

NOT_RUNTIME = ("networkx", "hypothesis", "pytest", "requests", "yaml")

loaded = [name for name in NOT_RUNTIME if name in sys.modules]
if loaded:
    sys.exit(f"importing {propgraph.__name__} loaded {', '.join(loaded)}")
