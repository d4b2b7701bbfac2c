"""Suite-wide configuration: acceptance criterion reporting."""

from __future__ import annotations

import pytest

_ACCEPTANCE_RESULTS: dict[str, str] = {}


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is None:
        return
    name = marker.args[0]
    if report.when == "call":
        _ACCEPTANCE_RESULTS[name] = "PASS" if report.passed else "FAIL"
    elif report.when == "setup" and report.skipped:
        _ACCEPTANCE_RESULTS[name] = "SKIP"
    elif report.when == "setup" and report.failed:
        _ACCEPTANCE_RESULTS[name] = "FAIL"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, status in _ACCEPTANCE_RESULTS.items():
        terminalreporter.write_line(f"ACCEPTANCE {status}: {name}")
