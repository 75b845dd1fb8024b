"""Every console-script module imports without pulling in scipy.

A fresh ``haan-*`` process should load only NumPy, the standard library and
``repro``: fleet failover, supervisor restarts and chaos drills each pay the
import on the critical path.  scipy may still be installed in a development
environment, so a stray import would otherwise go unnoticed.
"""

from __future__ import annotations

import subprocess
import sys

import pytest

CONSOLE_SCRIPT_MODULES = [
    "repro.serving.cli",
    "repro.api.cli",
    "repro.fleet.cli",
    "repro.chaos.cli",
    "repro.eval.cli",
]


@pytest.mark.parametrize("module", CONSOLE_SCRIPT_MODULES)
def test_console_script_module_does_not_import_scipy(module):
    # A fresh interpreter per module: this test process may already hold scipy.
    probe = f"import sys, {module}; assert 'scipy' not in sys.modules, 'scipy was imported'"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
