"""The CLI tests run `python -m nnsft.cli` in subprocesses; point them at
the package these tests import, so a checkout runs without an install."""

import os
from pathlib import Path

import nnsft

_src = str(Path(nnsft.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_src, os.environ.get("PYTHONPATH"))))
