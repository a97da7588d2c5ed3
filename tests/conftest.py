import multiprocessing

import pytest


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    """Fail any test that leaves a child process running, such as the
    workers of a process pool that was never shut down."""
    yield
    leaked = multiprocessing.active_children()
    for child in leaked:
        child.terminate()
        child.join(timeout=10)
    assert not leaked, f"child processes left running: {leaked}"
