"""The fork runner: each way a pipe read can end, past the spin or within it, the work a
worker prepares ahead of each task, and the check for a reply that does not wait."""

import os
import time

import pytest

import fedsim.split as split
from fedsim.errors import ContractError
from helpers import linux_only

pytestmark = linux_only


@pytest.fixture
def blocking_reads(monkeypatch) -> list:
    """The sizes of this process's reads that stopped polling and blocked.

    A worker forked afterwards records its own reads in its copy of the list.
    """
    reads = []
    real = split._read_blocking

    def recorded(fd, n):
        reads.append(n)
        return real(fd, n)

    monkeypatch.setattr(split, "_read_blocking", recorded)
    return reads


def test_a_task_slower_than_the_spin_replies_through_a_blocking_read(blocking_reads):
    def slow(i):
        time.sleep(20 * split.SPIN_S)
        if i == 1:
            raise ValueError("slow and wrong")
        return b"slow %d" % i

    with split.Worker(slow, "test worker") as worker:
        worker.start(0)
        assert worker.finish() == b"slow 0"
        assert blocking_reads == [8]  # the reply's length; its bytes came with it
        worker.start(1)
        with pytest.raises(ContractError, match="^the test worker raised ValueError: slow and wrong$"):
            worker.finish()
        worker.start(2)
        assert worker.finish() == b"slow 2"


def test_a_worker_kept_waiting_past_the_spin_blocks_then_runs_its_task(blocking_reads):
    def count(i):  # this worker's blocking reads so far, and the task index
        return bytes([len(blocking_reads), i])

    with split.Worker(count, "test worker") as worker:
        worker.start(0)
        before = worker.finish()[0]
        time.sleep(100 * split.SPIN_S)
        worker.start(7)
        assert worker.finish() == bytes([before + 1, 7])


def test_the_end_of_the_pipe_while_the_parent_spins_reads_as_the_workers_exit(
    monkeypatch, blocking_reads
):
    monkeypatch.setattr(split, "SPIN_S", 60.0)  # every wait below ends within the spin

    def dies_in_task_1(i):
        if i == 1:
            os._exit(3)
        return b"ok"

    with split.Worker(dies_in_task_1, "test worker") as worker:
        worker.start(0)
        assert worker.finish() == b"ok"
        worker.start(1)
        with pytest.raises(ContractError, match="^the test worker exited during task 1$"):
            worker.finish()
    assert blocking_reads == []


def test_the_end_of_the_pipe_while_the_worker_spins_ends_it_at_once(monkeypatch):
    monkeypatch.setattr(split, "SPIN_S", 60.0)
    with split.Worker(lambda i: b"", "test worker") as worker:
        worker.start(0)
        assert worker.finish() == b""
        leaving = time.perf_counter()
    # The worker was polling for its next task: it read the end of its pipe
    # and exited, and the parent reaped it, well before its spin would end.
    assert time.perf_counter() - leaving < 30


def test_a_worker_prepares_before_its_first_task_and_after_each_reply():
    prepared = []  # the worker's own list: each task replies with what it holds

    with split.Worker(lambda i: bytes(prepared), "test worker", prepared.append) as worker:
        replies = []
        for i in (0, 1, 2, 7):
            worker.start(i)
            replies.append(worker.finish())
    # Each reply is sent before the next preparation, which gets the index
    # after the task's, whatever index comes next.
    assert replies == [bytes([0]), bytes([0, 1]), bytes([0, 1, 2]), bytes([0, 1, 2, 3])]


@pytest.mark.parametrize("failing", [0, 2])
def test_an_exception_while_preparing_is_raised_by_the_next_finish(failing):
    def prepare(i):
        if i == failing:
            raise ValueError(f"cannot prepare {i}")

    with split.Worker(lambda i: b"%d" % i, "test worker", prepare) as worker:
        for i in range(failing + 2):
            worker.start(i)
            if i == failing:
                message = f"^the test worker raised ValueError: cannot prepare {i}$"
                with pytest.raises(ContractError, match=message):
                    worker.finish()
            else:
                assert worker.finish() == b"%d" % i


def test_ready_says_whether_a_reply_has_come_and_reads_nothing():
    go_on, let_go = os.pipe()  # task 0 waits for a byte on this pipe

    def task(i):
        if i == 1:
            os._exit(3)
        os.read(go_on, 1)
        return b"done %d" % i

    def wait_until_ready(worker):
        deadline = time.monotonic() + 60
        while not worker.ready():
            assert time.monotonic() < deadline
            time.sleep(0.001)

    try:
        with split.Worker(task, "test worker") as worker:
            worker.start(0)
            try:
                time.sleep(10 * split.SPIN_S)
                waiting = worker.ready()
            finally:  # the worker cannot be reaped before task 0 ends
                os.write(let_go, b"x")
            assert not waiting
            wait_until_ready(worker)
            assert worker.ready()  # still there: ready read nothing
            assert worker.finish() == b"done 0"
            assert not worker.ready()
            worker.start(1)
            wait_until_ready(worker)  # the end of the pipe counts as a reply
            with pytest.raises(ContractError, match="^the test worker exited during task 1$"):
                worker.finish()
    finally:
        os.close(go_on)
        os.close(let_go)
