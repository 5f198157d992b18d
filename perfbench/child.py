"""Child processes of the benchmark; each runs in a fresh interpreter.

    python3 perfbench/child.py measure RESULT -- ARGV...
        Run ARGV to completion and write its exit code, wall time, and the
        CPU time and peak RSS of its process tree to RESULT as JSON.

    python3 perfbench/child.py setup CONFIG INPUT
        Time the work ``augpipe run`` does before its first sample: import
        augpipe.cli, parse the config, scan the dataset and split it by
        class. Prints one JSON object of seconds.

    python3 perfbench/child.py traced SPANS -- RUN_ARGS...
        Run ``augpipe`` with RUN_ARGS under the span tracer and write the
        spans to SPANS as JSON. Exits with the CLI's exit code.

augpipe must be importable (the benchmark puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path


def measure(result_path: str, argv: list[str]) -> int:
    # A process's ru_maxrss starts from the peak RSS of the process that
    # forked it. This small, freshly started process forks ARGV, so the
    # peak reported is ARGV's own and not the benchmark harness's.
    started = time.perf_counter()
    proc = subprocess.Popen(argv)
    _pid, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - started
    Path(result_path).write_text(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss is in KiB on Linux and covers the reaped descendants too.
        "rss_mb": usage.ru_maxrss / 1024.0,
    }))
    return 0


def setup(config: str, root: str) -> int:
    t0 = time.perf_counter()
    from augpipe import cli

    t1 = time.perf_counter()
    cli.parse_config(Path(config).read_text(encoding="utf-8"))
    t2 = time.perf_counter()
    cli.split_by_class(cli.scan_dataset(root))
    t3 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "scan_s": t3 - t2}))
    return 0


def traced(spans_path: str, run_args: list[str]) -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer, install

    tracer = Tracer()
    root = tracer.begin("bench.root")
    from augpipe import cli

    install(tracer)
    code = cli.main(run_args)
    tracer.end(root)
    Path(spans_path).write_text(json.dumps(tracer.to_json()))
    return code


if __name__ == "__main__":
    if sys.argv[1:2] == ["measure"] and sys.argv[3:4] == ["--"] and len(sys.argv) > 4:
        sys.exit(measure(sys.argv[2], sys.argv[4:]))
    if sys.argv[1:2] == ["setup"] and len(sys.argv) == 4:
        sys.exit(setup(sys.argv[2], sys.argv[3]))
    if sys.argv[1:2] == ["traced"] and sys.argv[3:4] == ["--"]:
        sys.exit(traced(sys.argv[2], sys.argv[4:]))
    sys.exit(__doc__)
