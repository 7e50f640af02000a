import multiprocessing
import signal
import time

import pytest

from conftest import _time_limit


def test_time_limit_fails_a_sleeping_body():
    start = time.monotonic()
    with pytest.raises(pytest.fail.Exception, match="0.2 s time limit"):
        with _time_limit(0.2):
            time.sleep(5)
    assert time.monotonic() - start < 5
    # the per-test limit around this test is armed again
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0]


def test_forked_children_run_without_the_timer():
    with multiprocessing.get_context("fork").Pool(1) as pool:
        assert pool.apply(signal.getitimer, (signal.ITIMER_REAL,)) == (0.0, 0.0)
    assert 0 < signal.getitimer(signal.ITIMER_REAL)[0]
