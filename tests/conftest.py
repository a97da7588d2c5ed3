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


@pytest.fixture
def hermitian_calls(monkeypatch):
    """A list that gains one entry per ``matcore.hermitian`` call made
    through any commrange module, for counting validations."""
    from commrange import maps, matcore, nrange, pauli2, structure, suite

    calls = []
    original = matcore.hermitian

    def counting(a):
        calls.append(1)
        return original(a)

    for module in (matcore, nrange, structure, pauli2, maps, suite):
        if hasattr(module, "hermitian"):
            monkeypatch.setattr(module, "hermitian", counting)
    return calls
