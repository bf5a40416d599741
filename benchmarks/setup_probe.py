"""Set-up probe: the work a fresh `uavdsa` process does before its first
subcommand runs (importing the package and loading the config), then a
"ready" line. run.py times it from spawn to that line.

Usage: python3 benchmarks/setup_probe.py CONFIG_JSON
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from uavdsa.cli import cli_dispatch  # noqa: E402,F401  imports every layer the CLI uses
from uavdsa.config import load_config  # noqa: E402

load_config(sys.argv[1])
print("ready", flush=True)
