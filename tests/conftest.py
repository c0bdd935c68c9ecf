"""Fixtures shared by the test modules."""

import os

import pytest


@pytest.fixture(autouse=True)
def no_children_left():
    """After every test, this process has no child left, running or
    unreaped: every pool the test opened killed and reaped its own."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
