"""Child processes of the benchmark.

    python -m perfbench.child setup <workload>
        Time the workload's set-up in this fresh interpreter; print seconds.
    python -m perfbench.child cli <spans_dir> <filtered-rf arguments...>
        Run the CLI with every traced function wrapped; spans of this
        process and of its forked pool workers land in spans_dir.

Both expect this checkout's ``src`` and root on PYTHONPATH, as
``workloads.child_env`` sets them.
"""

from __future__ import annotations

import sys
import time


def _cli(spans_dir, argv):
    from perfbench import spans

    import filtered_rf.cli as cli

    recorder = spans.Recorder(spans_dir)
    recorder.install()
    code = cli.main(argv)
    recorder.flush()
    return code


def main(argv):
    mode, arg, *rest = argv
    if mode == "setup":
        from perfbench import workloads

        workload = workloads.get(arg)
        start = time.perf_counter()
        workload.set_up()
        print(repr(time.perf_counter() - start))
        return 0
    if mode == "cli":
        return _cli(arg, rest)
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
