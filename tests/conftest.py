"""Checks that run around every test of the suite."""

import os
import threading

import pytest


@pytest.fixture(autouse=True)
def nothing_left_running():
    """A test reaps every child process it starts and joins every thread it starts."""
    threads = threading.active_count()
    yield
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        pass
    else:
        pytest.fail(f"a child process was left behind (waitpid gave pid {pid}, status {status})")
    assert threading.active_count() == threads, "a thread was left running"
