"""The lane runner: result order, which thread runs each lane, and errors."""

import threading

import pytest

from drumsep import parallel
from drumsep.parallel import run_lanes


def where(i):
    """``i`` and whether it ran on the calling (main) thread."""
    return i, threading.current_thread() is threading.main_thread()


def raise_in(bad):
    def lane(i):
        if i == bad:
            raise RuntimeError(f"lane {i} failed")
        return i
    return lane


def test_results_in_args_order_first_lane_on_calling_thread():
    results = run_lanes(where, [(i,) for i in range(4)])
    assert [i for i, _ in results] == [0, 1, 2, 3]
    assert [main for _, main in results] == [True, False, False, False]


def test_lanes_run_at_once():
    """Each lane waits for all the others: a runner that ran them one after
    another would time out."""
    barrier = threading.Barrier(3, timeout=10)

    def lane(i):
        barrier.wait()
        return i

    assert run_lanes(lane, [(0,), (1,), (2,)]) == [0, 1, 2]


def test_one_lane_starts_no_thread(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(parallel, "ThreadPoolExecutor", no_pool)
    before = threading.active_count()
    assert run_lanes(where, [(7,)]) == [(7, True)]
    assert threading.active_count() == before


@pytest.mark.parametrize("bad", [0, 1])
def test_a_lane_error_reaches_the_caller(bad):
    with pytest.raises(RuntimeError, match=f"^lane {bad} failed$"):
        run_lanes(raise_in(bad), [(0,), (1,)])
