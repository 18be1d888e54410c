"""Set-up probe: import ``repro`` and build a workload's first world.

Run by ``run.py`` as ``python3 perfbench/setup_child.py <workload>
<seed>`` in a fresh interpreter; it prints ``ready`` once the world is
built, and the parent times the whole span from process start.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import build_first_world  # noqa: E402

build_first_world(sys.argv[1], int(sys.argv[2]))
print("ready", flush=True)
