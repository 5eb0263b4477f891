import os
import sys

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "src")

sys.path.insert(0, SRC)
# the CLI tests start `python -m fpduality.cli` in a subprocess, which sees
# the environment and not this sys.path
os.environ["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
