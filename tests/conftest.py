"""Fixtures shared by the test modules."""

import os
import signal

import pytest


@pytest.fixture(autouse=True)
def no_children_left():
    """After every test, this process has no child left, running or
    unreaped: every pool the test opened killed and reaped its own."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def watchdog(request):
    """Fails a test still running after 60 s, so a deadlocked job pool
    fails its test instead of hanging the suite.  SIGALRM reaches only
    this process: a forked child does not inherit the pending alarm."""

    def expire(signum, frame):
        raise TimeoutError(f"{request.node.nodeid} still running after 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
