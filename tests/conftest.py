"""Put the checkout's src/ on PYTHONPATH, so that the tests' python -m hbmfg
subprocesses import this package without an install."""
import os

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))
_path = os.environ.get("PYTHONPATH")
if SRC not in (_path or "").split(os.pathsep):
    os.environ["PYTHONPATH"] = SRC + os.pathsep + _path if _path else SRC
