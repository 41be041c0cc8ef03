"""Print the environment that test timings depend on.

The summary hook runs under ``-q`` too, unlike ``pytest_report_header``,
so every tier-1 log records which kernel backend ran.
"""

import os
import platform

from circshell import kernels


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"kernel backend: {kernels.backend()}; "
        f"numba importable: {kernels.HAVE_NUMBA}; "
        f"{os.cpu_count()} CPUs; Python {platform.python_version()}")
