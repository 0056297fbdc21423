#!/usr/bin/env python3
"""Run the acceptance suite and show one pass/fail line per criterion."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    # src first on the child's path, so the suite runs from a fresh checkout.
    path = os.pathsep.join(filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))
    code = subprocess.call(
        [
            sys.executable,
            "-m",
            "pytest",
            str(ROOT / "tests" / "test_acceptance.py"),
            "-q",
            "-s",
        ],
        cwd=ROOT,
        env={**os.environ, "PYTHONPATH": path},
    )
    sys.exit(code)
