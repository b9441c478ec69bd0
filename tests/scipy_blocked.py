"""Run a Python script with every scipy import blocked.

    python tests/scipy_blocked.py SCRIPT [ARG ...]

A finder placed first on ``sys.meta_path`` raises ImportError for ``scipy``
and every ``scipy.*`` module, so SCRIPT runs as on an install without scipy
and fails where it first reaches for it.  Any attempted import fails, so
one interpreter that runs many cases is as strict as one per case.
"""

import importlib.abc
import runpy
import sys


class BlockScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ImportError(f"blocked: {name}")


if __name__ == "__main__":
    sys.meta_path.insert(0, BlockScipy())
    sys.argv = sys.argv[1:]
    runpy.run_path(sys.argv[0], run_name="__main__")
