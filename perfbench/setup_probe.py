"""Set-up probe, started in a fresh interpreter by run.py: import mmcsim from
the checkout and build one workload's configs, then exit.  run.py starts one
after each untraced repetition and times the whole process, interpreter start
included.

    python3 perfbench/setup_probe.py <workload> <seed>
"""
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]](int(sys.argv[2]), ROOT / ".perfbench_out")
