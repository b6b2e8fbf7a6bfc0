import os

import pytest

from binpack3d.solver import config


def pytest_sessionfinish(session):
    """Close the solver's run workers, then fail the run if this process
    still has a child process, running or unreaped: a leaked worker must
    not pass unnoticed."""
    config.close_pool()
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    session.config.get_terminal_writer().line(
        "\na child process outlived the tests (closing the run worker pool left it)",
        red=True)
    session.exitstatus = pytest.ExitCode.TESTS_FAILED
