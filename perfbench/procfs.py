"""Readers and parsers for the ``/proc`` counters the benchmark records.

The parsers take file text, so the tests feed them fixed strings; the
readers are thin wrappers that open the files.
"""

from __future__ import annotations

import os
import platform
from typing import Dict, Optional

CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: Field order of the aggregate ``cpu`` line of ``/proc/stat``.
PROC_STAT_FIELDS = (
    "user", "nice", "system", "idle", "iowait", "irq", "softirq", "steal",
)


def parse_stat_cpu_s(text: str) -> float:
    """User + system CPU seconds from a ``/proc/<pid>[/task/<tid>]/stat``.

    The command name may hold spaces and parentheses, so fields are
    counted from the last ``)``: utime and stime are fields 14 and 15.
    """
    fields = text[text.rindex(")") + 2 :].split()
    # fields[0] is field 3 (state); utime is field 14.
    return (int(fields[11]) + int(fields[12])) / CLOCK_TICKS


def parse_status(text: str) -> Dict[str, str]:
    """``Key: value`` lines of a ``/proc/.../status`` file."""
    out: Dict[str, str] = {}
    for line in text.splitlines():
        key, sep, value = line.partition(":")
        if sep:
            out[key.strip()] = value.strip()
    return out


def status_kib(status: Dict[str, str], key: str) -> int:
    """A ``kB`` field of a parsed status file, in KiB."""
    return int(status[key].split()[0])


def parse_proc_stat(text: str) -> Dict[str, int]:
    """Aggregate ``cpu`` jiffies of ``/proc/stat`` by field name."""
    for line in text.splitlines():
        if line.startswith("cpu "):
            values = [int(v) for v in line.split()[1:]]
            return dict(zip(PROC_STAT_FIELDS, values))
    raise ValueError("no aggregate cpu line in /proc/stat")


def steal_share(before: Dict[str, int], after: Dict[str, int]) -> float:
    """Share of all CPU time the hypervisor stole between two samples."""
    total = sum(after[k] - before[k] for k in PROC_STAT_FIELDS)
    return (after["steal"] - before["steal"]) / total if total > 0 else 0.0


def _read(path: str) -> str:
    with open(path) as handle:
        return handle.read()


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of every thread of a process."""
    return parse_stat_cpu_s(_read(f"/proc/{pid}/stat"))


def thread_cpu_s(pid: int, tid: int) -> float:
    return parse_stat_cpu_s(_read(f"/proc/{pid}/task/{tid}/stat"))


def thread_voluntary_switches(pid: int, tid: int) -> int:
    status = parse_status(_read(f"/proc/{pid}/task/{tid}/status"))
    return int(status["voluntary_ctxt_switches"])


def peak_rss_mib(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a process, in MiB."""
    return status_kib(parse_status(_read(f"/proc/{pid}/status")), "VmHWM") / 1024.0


def host_cpu_times() -> Dict[str, int]:
    return parse_proc_stat(_read("/proc/stat"))


def cpu_model() -> str:
    try:
        for line in _read("/proc/cpuinfo").splitlines():
            if line.startswith("model name"):
                return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine_record(client_cpus: Optional[str], server_cpus: Optional[str]) -> Dict[str, object]:
    """Placement and fingerprint written into every run's output."""
    import numpy

    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "client_cpus": client_cpus or "unpinned",
        "server_cpus": server_cpus or "unpinned",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
