"""Run plumbing: in_order is the one thread pool every threaded loop calls."""

from __future__ import annotations

from collections import deque
from concurrent.futures import ThreadPoolExecutor


def in_order(fn, items, threads, off_thread=False):
    """An iterator of fn(item) for each item, in item order.

    threads below 1 raise ValueError at the call, before any item runs.  With
    at most one item fn runs inline on the consuming thread, and so it does at
    threads = 1 unless off_thread is true.  Otherwise it runs on n =
    min(threads, len(items)) pool threads, never more than n + 1 results
    ahead of the consumer.  Results are read in order, so the exception of
    the earliest failing item is the one raised.
    On leaving, early or by an exception, the items not yet started are
    cancelled and the pool's threads are joined.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    items = list(items)
    n = min(int(threads), len(items))
    if n > 1 or off_thread and len(items) > 1:
        return _pooled(fn, items, n)
    return map(fn, items)


def _pooled(fn, items, n):
    pool = ThreadPoolExecutor(max_workers=n)
    try:
        ahead = deque()
        for item in items:
            ahead.append(pool.submit(fn, item))
            if len(ahead) > n:
                yield ahead.popleft().result()
        while ahead:
            yield ahead.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
