"""Session-wide guards for the test suite.

The shared-memory backing store (``repro.powerlist.shm``) creates named
OS-level segments that outlive the process if not unlinked — a leak that
survives the interpreter.  The guard below asserts every segment created
during the run was released by the code under test before the session
ends, then tears down the shared worker-process pool so no child outlives
pytest.

Every thread-backend run feeds the split policy's cost memo, and a cost
learned in one test may turn another test's parallel query into an
inline run (one leaf, no combiner call).  Each test therefore starts
from an empty memo.
"""

import pytest

from repro.powerlist import shm
from repro.streams.adaptive import reset_split_policy


@pytest.fixture(autouse=True)
def _fresh_split_policy():
    reset_split_policy()


@pytest.fixture(scope="session", autouse=True)
def _shm_leak_guard():
    yield
    from repro.streams import process_backend

    process_backend.shutdown_shared_executor()
    leaked = shm.active_segments()
    # Clean up even when the assertion is about to fail: a leaked segment
    # must not survive the test process just because we reported it.
    shm.release_all()
    shm.detach_all()
    assert leaked == [], (
        f"shared-memory segments leaked by the test session: {leaked}"
    )
