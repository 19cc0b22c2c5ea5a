"""Run the ditkit CLI as `python -m ditkit.cli ARGS` does, then report
this process's peak resident set on stderr as "peak_rss_kb N".

The peak is VmHWM from /proc/self/status, which counts this program
alone. getrusage's ru_maxrss would not: Linux carries into it the peak
of the process that started this one, here the benchmark harness.
Run with ditkit importable (PYTHONPATH=src).
"""
from __future__ import annotations

import sys

from ditkit.cli import main


def report_peak_rss() -> None:
    sys.stdout.flush()
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                print(f"peak_rss_kb {line.split()[1]}", file=sys.stderr)


if __name__ == "__main__":
    try:
        code = main(sys.argv[1:])
    finally:
        report_peak_rss()
    sys.exit(code)
