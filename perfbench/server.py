"""One ``haan-serve --listen`` child process, timed from outside.

The child runs with ``PYTHONUNBUFFERED=1`` so each banner line reaches the
pipe when it is printed; the parent stamps lines on arrival and splits
set-up time at them:

* ``import_s``    -- spawn -> the ``calibrating ...`` line (interpreter and
  module imports, argument parsing);
* ``calibrate_s`` -- ``calibrating`` -> the layer-summary line
  (``CalibrationRegistry`` resolving the model);
* ``ready_s``     -- layer-summary line -> first successful ``ping`` on a
  fresh connection (service, bind, event loop, hello, ping).

The three add up to ``total_s``, the benchmark's ``setup_s``.
"""

from __future__ import annotations

import os
import select
import signal
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter, sleep
from typing import List, Optional, Set, Tuple

START_TIMEOUT_S = 120.0
STOP_TIMEOUT_S = 30.0


@dataclass
class SetupTiming:
    import_s: float
    calibrate_s: float
    ready_s: float

    @property
    def total_s(self) -> float:
        return self.import_s + self.calibrate_s + self.ready_s


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """Spawn, pin, time, signal and stop one server child."""

    def __init__(
        self,
        root: str,
        model: str,
        cpus: Optional[Set[int]],
        traced: bool = False,
        trace_out: Optional[str] = None,
    ):
        if traced:
            argv = [sys.executable, os.path.join("perfbench", "traced_server.py")]
        else:
            argv = [sys.executable, "-m", "repro.serving.cli"]
        argv += ["--listen", "127.0.0.1:0", "--model", model]
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), os.environ.get("PYTHONPATH")) if p
        )
        if trace_out is not None:
            env["PERFBENCH_TRACE_OUT"] = trace_out
        self._buffer = b""
        self._lines: List[Tuple[float, str]] = []
        self.spawned_at = perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=root, env=env, stdout=subprocess.PIPE, stdin=subprocess.DEVNULL,
            bufsize=0,
        )
        if cpus:
            # The interpreter is still starting: every thread it creates
            # later inherits this mask.
            os.sched_setaffinity(self.proc.pid, cpus)
        self.port: Optional[int] = None
        self.client = None
        self.setup: Optional[SetupTiming] = None

    @property
    def pid(self) -> int:
        return self.proc.pid

    # -- stdout ------------------------------------------------------------

    def read_line(self, timeout: float) -> Tuple[float, str]:
        """Next stdout line and the ``perf_counter`` time it arrived."""
        deadline = perf_counter() + timeout
        fd = self.proc.stdout.fileno()
        while not self._lines:
            remaining = deadline - perf_counter()
            if remaining <= 0:
                raise ServerError("timed out waiting for server output")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise ServerError(f"server exited with code {self.proc.wait()}")
            now = perf_counter()
            self._buffer += chunk
            *complete, self._buffer = self._buffer.split(b"\n")
            self._lines.extend((now, line.decode(errors="replace")) for line in complete)
        return self._lines.pop(0)

    def wait_line(self, needle: str, timeout: float) -> Tuple[float, str]:
        """The next line containing ``needle``, with its arrival time."""
        deadline = perf_counter() + timeout
        while True:
            at, line = self.read_line(deadline - perf_counter())
            if needle in line:
                return at, line

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "ServerProcess":
        """Wait for the banner, connect, ping: fills ``setup`` and ``client``."""
        from repro.api.client import NormClient
        from repro.api.envelopes import TransportError

        calibrating, _ = self.wait_line("calibrating", START_TIMEOUT_S)
        summary, _ = self.wait_line("normalization layers", START_TIMEOUT_S)
        _, banner = self.wait_line("listening on", START_TIMEOUT_S)
        address = banner.split("listening on ", 1)[1].split()[0]
        self.port = int(address.rsplit(":", 1)[1])
        self.client = NormClient.connect("127.0.0.1", self.port)
        deadline = perf_counter() + START_TIMEOUT_S
        while True:
            try:
                self.client.ping()
                break
            except TransportError:
                if perf_counter() > deadline:
                    raise
                sleep(0.005)
        ready = perf_counter()
        self.setup = SetupTiming(
            import_s=calibrating - self.spawned_at,
            calibrate_s=summary - calibrating,
            ready_s=ready - summary,
        )
        return self

    def mark(self) -> None:
        """Ask a traced server for a mark and wait for its acknowledgement."""
        self.proc.send_signal(signal.SIGUSR1)
        self.wait_line("perfbench: mark", 30.0)

    def stop(self) -> int:
        """SIGTERM, wait for the drain, reap; kill if it overruns."""
        if self.client is not None:
            self.client.close()
            self.client = None
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.proc.communicate(timeout=STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
        return self.proc.returncode

    def __enter__(self) -> "ServerProcess":
        try:
            return self.start()
        except BaseException:
            self.stop()
            raise

    def __exit__(self, *exc_info) -> None:
        self.stop()
