"""Fixtures shared by the test modules."""

import os
import select

import pytest


@pytest.fixture
def worker_takes_first_job(monkeypatch):
    """Make the one worker of a two-CPU `training.JobPool` pull the pool's
    first job: after the fork the stage process waits until the worker
    calls the returned function, which a job wrapper calls when it starts
    in a worker, before the stage pulls any job itself.  The test sets
    the two CPUs (`os.sched_getaffinity`)."""
    read_end, write_end = os.pipe()
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            assert select.select([read_end], [], [], 60)[0], "the worker started no job"
            os.read(read_end, 1)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield lambda: os.write(write_end, b".")
    os.close(read_end)
    os.close(write_end)
