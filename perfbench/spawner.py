"""Start the benchmark's commands from a small process.

On Linux a child's ``ru_maxrss`` starts from the resident size of the
process that spawned it, so commands started straight from the
benchmark (which holds numpy, scipy and its reference data) would all
report at least the benchmark's own size. This process stays small.

Reads one JSON job per line on stdin, ``{"argv", "cwd", "stdout",
"stderr"}``, runs it to completion and answers with one JSON line,
``{"wall_s", "maxrss_kb", "code"}``. Ends at end of input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["stdout"], "wb") as so, open(job["stderr"], "wb") as se:
            start = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=so, stderr=se, cwd=job["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall_s": wall, "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
