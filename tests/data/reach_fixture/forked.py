"""Fixture for tests/test_reach.py: one line runs only in a forked child,
one line runs nowhere."""

import multiprocessing


def in_child(flag):
    if flag:
        return "child"  # runs only in the forked child
    return "never"  # runs in no process


if __name__ == "__main__":
    context = multiprocessing.get_context("fork")
    process = context.Process(target=in_child, args=(True,))
    process.start()
    process.join()
    pool = context.Pool(1)
    assert pool.apply(in_child, (True,)) == "child"
    pool.close()  # a worker that exits on its own dumps; terminate() kills it
    pool.join()
