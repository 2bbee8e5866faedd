"""The benchmark tracer's patch points still reach a traced ``run``.

``perfbench/tracer.py`` replaces package functions by name.  If one of those
names moves, a traced benchmark run fails or silently counts nothing; this
test runs one small traced ``run`` in a fresh interpreter and checks that
every step and every stream point went through the patched functions.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = textwrap.dedent("""
    import sys
    perfbench, out = sys.argv[1:]
    sys.path.insert(0, perfbench)
    import tracer
    t = tracer.Tracer()
    t.install("euclidean", "sine_1d")
    from protostream import cli
    code = cli.main(["run", "--steps", "200", "--target", "sine_1d",
                     "--metric", "euclidean", "--output", out])
    layers = t.summary()
    assert code == 0, code
    assert layers["learner.steps"][0] == 200, layers["learner.steps"]
    assert layers["streams.points"][0] == 200, layers["streams.points"]
""")


def test_traced_run_counts_every_step_and_point(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(ROOT / "perfbench"), str(tmp_path / "t.csv")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
