"""``scripts/sample_profile.py``: the stack sampler behind the per-layer
shares of a served SQL request (DESIGN.md §7)."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "sample_profile.py"


def test_the_sampler_prints_every_category_of_a_small_serve_mix():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, str(SCRIPT), "serve_mix", "--scale", "0.02",
         "--top", "5"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    took = time.perf_counter() - start
    assert done.returncode == 0, done.stderr
    assert took < 10, f"the sampler took {took:.1f}s"
    out = done.stdout
    samples = int(out.split("samples: ", 1)[1].split()[0])
    assert samples > 0
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        from sample_profile import CATEGORIES
    finally:
        sys.path.remove(str(SCRIPT.parent))
    lines = [line for line in out.splitlines()
             if line.startswith("category:")]
    labels = [label for label, _ in CATEGORIES]
    assert [line.split("%", 1)[1].strip() for line in lines] == labels
    shares = [float(line.split()[1].rstrip("%")) for line in lines]
    assert abs(sum(shares) - 100.0) < 1.0
    assert "top 5 by self samples:" in out
    assert "top 5 by inclusive samples:" in out
