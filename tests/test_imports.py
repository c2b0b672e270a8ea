"""Importing the package loads only the scipy modules it uses.

The benchmark's setup time counts interpreter start through `import
lvdoe`.  The package needs scipy.linalg alone; importing scipy.sparse,
scipy.special, scipy.optimize or scipy.stats on top of it took about 10,
40, 220 and 850 ms on a 2-core machine.  A fresh interpreter, so that no
other test's imports count.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HEAVY = ("scipy.sparse", "scipy.optimize", "scipy.special", "scipy.stats")


def test_import_loads_no_heavy_scipy_package():
    script = f"import sys, lvdoe; print(sorted(m for m in sys.modules if m.startswith({HEAVY!r})))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"
