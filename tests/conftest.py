"""Keeps the tests directory importable for shared helpers (oracles, builders),
and gives every test a time limit, so that a loop that never ends fails its
test instead of hanging the suite."""

import signal

import pytest

# the slowest test takes under 2 s
TIME_LIMIT_S = 60


@pytest.fixture(autouse=True)
def time_limit():
    """Fail the running test once it has run TIME_LIMIT_S seconds.

    An alarm signal interrupts the test wherever it is; the limit is not
    kept where the platform has no SIGALRM.
    """
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail("test ran past its time limit of %d s" % TIME_LIMIT_S)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
