"""One untraced flatrank CLI invocation that reports its own peak memory.

Run as a child process of ``bench/run.py``:

    python3 bench/peakrss.py PEAK.txt verify rankchow --cap d=5

It runs ``flatrank.labcli.main`` on the remaining arguments, as
``python3 -m flatrank.labcli`` does, writes the process's peak resident set
size in KiB (``VmHWM`` of ``/proc/self/status``) to PEAK.txt and exits with
main's exit code.  The ``ru_maxrss`` that ``wait4`` hands the parent is no
substitute on Linux: exec carries the spawning process's resident set into
the child's figure, so it would read the benchmark's own size for any
invocation smaller than that.
"""

from __future__ import annotations

import sys


def peak_rss_kib() -> int:
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    out_path, cli_args = argv[0], argv[1:]
    from flatrank import labcli

    try:
        return labcli.main(cli_args)
    finally:
        with open(out_path, "w", encoding="ascii") as handle:
            handle.write(f"{peak_rss_kib()}\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
