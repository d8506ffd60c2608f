#!/usr/bin/env python3
"""Build the lamp CLI and the benchmark driver with dune, then run one
workload of the benchmark from the root of a lamp checkout:

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Build output goes to standard error; standard output is the driver's,
whose last line is the JSON result. Exits non-zero when the build fails
(for instance outside a full checkout) or any answer is wrong.

The driver, and the `lamp serve` child it spawns, run pinned to one CPU
next to an idle-priority spinner. The spinner only gets that CPU when
nothing else wants it; it keeps the CPU from going idle, because on a
shared virtual machine waking an idle virtual CPU cost up to several
milliseconds, varying with the load of other tenants, and that wake-up
was most of the run-to-run spread of sub-millisecond request
latencies. Sharing one CPU also keeps client-server hand-offs off the
path between two virtual CPUs, which amplified host steal.
"""
import os
import signal
import subprocess
import sys

BUILD = ["dune", "build", "--root", ".", "-j", "2",
         "./bin/main.exe", "./perfbench/main.exe"]

# Exits when its parent (this script) is gone, so a killed run leaves no
# spinner behind.
SPIN = """
import os
os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))
parent = os.getppid()
while os.getppid() == parent:
    for _ in range(100000):
        pass
"""


def main():
    build = subprocess.run(BUILD, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    driver = os.path.join("_build", "default", "perfbench", "main.exe")
    lamp = os.path.join("_build", "default", "bin", "main.exe")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    spinner = subprocess.Popen([sys.executable, "-c", SPIN])
    child = None

    def forward(signum, frame):
        # The driver stops its server child on SIGTERM; let it.
        if child is not None:
            child.send_signal(signal.SIGTERM)

    signal.signal(signal.SIGTERM, forward)
    signal.signal(signal.SIGINT, forward)
    try:
        child = subprocess.Popen([driver, *sys.argv[1:], "--lamp", lamp])
        code = child.wait()
    finally:
        spinner.kill()
        spinner.wait()
    sys.exit(code)


if __name__ == "__main__":
    main()
