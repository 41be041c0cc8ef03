"""Print the environment that test timings depend on.

The summary hook runs under ``-q`` too, unlike ``pytest_report_header``,
so every tier-1 log records the CPU count and Python version.
"""

import os
import platform


def pytest_terminal_summary(terminalreporter):
    terminalreporter.write_line(
        f"{os.cpu_count()} CPUs; Python {platform.python_version()}")
