import contextlib
import signal

import pytest

# Seconds each phase of a test (setup, call, teardown) may run.  The slowest
# test takes about 5 s; a search whose cut stops firing never finishes, and
# must fail instead of hanging.  The limit wraps the setup phase too, because
# module-scoped fixtures in test_acceptance.py run unbudgeted searches there.
TEST_TIME_LIMIT = 60


@contextlib.contextmanager
def _time_limit():
    if not hasattr(signal, "SIGALRM"):  # no alarm signal on this platform
        yield
        return

    def expire(signum, frame):
        pytest.fail(f"test phase ran past its {TEST_TIME_LIMIT} s limit",
                    pytrace=False)

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_setup(item):
    with _time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_call(item):
    with _time_limit():
        return (yield)


@pytest.hookimpl(wrapper=True)
def pytest_runtest_teardown(item):
    with _time_limit():
        return (yield)
