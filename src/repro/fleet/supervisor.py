"""Launch and supervise N local `AsyncNormServer` replicas as subprocesses.

Each replica is one ``haan-serve --listen 127.0.0.1:0`` process
(:mod:`repro.serving.cli`): its own interpreter, its own
``CalibrationRegistry``, its own event loop -- a real failure domain, so
killing one exercises exactly what the fleet's health/failover layer must
absorb.  The supervisor parses the server's startup line
(``haan-serve: listening on HOST:PORT ...``, printed with ``flush=True``
precisely so supervisors can do this) to learn the ephemeral port.

Supervision is pull-based: :meth:`FleetSupervisor.poll` reaps dead
replicas and (when ``restart=True``) launches replacements on fresh
ports, reporting ``(old_address, new_address)`` pairs so the caller can
update its :class:`~repro.fleet.transport.FleetTransport` membership.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Sequence, Tuple

_STARTUP_MARKER = "listening on "


class ReplicaProcess:
    """One supervised ``haan-serve --listen`` subprocess."""

    def __init__(
        self,
        model: str = "tiny",
        dataset: str = "default",
        max_inflight: int = 32,
        max_batch_size: int = 32,
        registry_capacity: int = 4,
        host: str = "127.0.0.1",
        extra_args: Sequence[str] = (),
        startup_timeout: float = 60.0,
    ):
        self.model = model
        self.dataset = dataset
        self.startup_timeout = startup_timeout
        self.address: Optional[str] = None
        #: Recent output lines (diagnostics when a replica dies).
        self.output: Deque[str] = deque(maxlen=200)
        self._argv = [
            sys.executable,
            "-m",
            "repro.serving.cli",
            "--model",
            model,
            "--dataset",
            dataset,
            "--listen",
            f"{host}:0",
            "--max-inflight",
            str(max_inflight),
            "--max-batch-size",
            str(max_batch_size),
            "--registry-capacity",
            str(registry_capacity),
            *extra_args,
        ]
        self._process: Optional[subprocess.Popen] = None
        self._drain: Optional[threading.Thread] = None

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> str:
        """Launch the process; blocks until it prints its listen address."""
        if self._process is not None:
            raise RuntimeError("replica already started")
        self._process = subprocess.Popen(
            self._argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        deadline = time.monotonic() + self.startup_timeout
        stdout = self._process.stdout
        assert stdout is not None
        while True:
            line = stdout.readline()
            if line:
                self.output.append(line.rstrip())
                if _STARTUP_MARKER in line:
                    after = line.split(_STARTUP_MARKER, 1)[1]
                    self.address = after.split()[0].strip()
                    break
            elif self._process.poll() is not None:
                raise RuntimeError(
                    "replica exited before listening; last output:\n"
                    + "\n".join(self.output)
                )
            if time.monotonic() > deadline:
                self.kill()
                raise RuntimeError(
                    f"replica did not start within {self.startup_timeout}s"
                )
        # Keep draining in the background so the pipe never fills and the
        # shutdown telemetry stays available for diagnostics.
        self._drain = threading.Thread(
            target=self._drain_loop, name="haan-fleet-replica-out", daemon=True
        )
        self._drain.start()
        return self.address

    def _drain_loop(self) -> None:
        stdout = self._process.stdout if self._process else None
        if stdout is None:
            return
        for line in stdout:
            self.output.append(line.rstrip())

    @property
    def alive(self) -> bool:
        return self._process is not None and self._process.poll() is None

    @property
    def pid(self) -> Optional[int]:
        return self._process.pid if self._process is not None else None

    def stop(self, timeout: float = 10.0) -> Optional[int]:
        """SIGTERM (clean shutdown path), escalating to SIGKILL on timeout."""
        if self._process is None:
            return None
        if self._process.poll() is None:
            self._process.terminate()
            try:
                self._process.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.kill()
        return self._process.poll()

    def kill(self) -> None:
        """SIGKILL: the abrupt mid-run death the fleet must survive."""
        if self._process is not None and self._process.poll() is None:
            self._process.kill()
            try:
                self._process.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                pass


class FleetSupervisor:
    """Own N replica processes; restart the dead; report the churn."""

    def __init__(
        self,
        replicas: int,
        restart: bool = True,
        **replica_kwargs,
    ):
        if replicas < 1:
            raise ValueError("a fleet needs at least one replica")
        self._count = replicas
        self._restart = restart
        self._kwargs = replica_kwargs
        self._replicas: List[ReplicaProcess] = []
        self._closed = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> List[str]:
        """Launch every replica; returns their addresses."""
        if self._replicas:
            raise RuntimeError("supervisor already started")
        for _ in range(self._count):
            replica = ReplicaProcess(**self._kwargs)
            replica.start()
            self._replicas.append(replica)
        return self.addresses()

    def addresses(self) -> List[str]:
        return [replica.address for replica in self._replicas if replica.address]

    def replica(self, index: int) -> ReplicaProcess:
        return self._replicas[index]

    def poll(self) -> List[Tuple[str, Optional[str]]]:
        """Reap dead replicas; returns ``(old_address, new_address)`` churn.

        With ``restart=False`` (or when closing) the new address is None:
        the replica is simply gone and the caller should drop it from the
        router.  Restarted replicas come back on a *fresh* ephemeral port
        -- deliberately: address reuse would mask stale-connection bugs.
        """
        events: List[Tuple[str, Optional[str]]] = []
        for index, replica in enumerate(self._replicas):
            if replica.alive or replica.address is None:
                continue
            old_address = replica.address
            if self._restart and not self._closed:
                replacement = ReplicaProcess(**self._kwargs)
                replacement.start()
                self._replicas[index] = replacement
                events.append((old_address, replacement.address))
            else:
                replica.address = None
                events.append((old_address, None))
        return events

    def close(self) -> None:
        self._closed = True
        for replica in self._replicas:
            replica.stop()

    def __enter__(self) -> "FleetSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
