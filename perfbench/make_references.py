"""Regenerate the stored reference outputs for every op of every pool.

    python3 perfbench/make_references.py [workload ...]

Run it only at a commit whose outputs are known to be right: the
benchmark then fails any op that drifts from them beyond the tolerances
in ``gate.py``.
"""

from __future__ import annotations

import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(names):
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ.setdefault("FILTERED_RF_WORKERS", str(min(2, len(os.sched_getaffinity(0)))))
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    workdir = ROOT / ".perfbench" / "references"
    for name in names or list(workloads.WORKLOADS):
        workload = workloads.get(name)
        workdir.mkdir(parents=True, exist_ok=True)
        outputs = {op_id: workload.run(op_id, workdir) for op_id in workload.pool}
        workload.save_references(outputs)
        print(f"{name}: {len(outputs)} references")
    shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1:])
