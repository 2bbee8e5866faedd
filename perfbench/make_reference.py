"""Record the reference SHA-256 of every workload's output, per seed.

    python3 perfbench/make_reference.py [--seeds N]

Runs each workload once per seed 0..N-1 (untraced, one child at a time),
requires every run to pass its checks, and rewrites ``reference.json``.
The digests pin today's outputs: a change that claims a speed-up must
leave them as they are, so rerun this only when a workload's definition
in ``run.WORKLOADS`` changes.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=16)
    args = parser.parse_args(argv)
    run.WORK_BASE.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=run.WORK_BASE))
    reference = {}
    try:
        for name, spec in run.WORKLOADS.items():
            digests = {}
            for seed in range(args.seeds):
                child = run.run_child(name, spec, seed, workdir, "ref", {})
                if child.errors or not child.digest:
                    print(f"{name} seed={seed}: {'; '.join(child.errors)}", file=sys.stderr)
                    return 1
                digests[str(seed)] = child.digest
                print(f"{name} seed={seed} {child.digest}", flush=True)
            reference[name] = {"spec": spec, "sha256": digests}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(run.HERE / "reference.json", "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
