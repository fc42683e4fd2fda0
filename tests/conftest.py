"""Checks that hold for every test."""

import threading

import pytest


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves running a thread that was not running before it."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    if left:
        pytest.fail(f"threads left running: {left}")
