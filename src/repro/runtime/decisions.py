"""Decision counters: how often a site took each of its branches, by cause.

A fallback the system takes silently (a tape gradient that walks
instead of running its staged plan) is counted here under ``(site,
cause)``, on the branch the code already takes, so "why did it do
that" has a number.  ``snapshot()`` reads every counter, ``reset()``
zeroes them.
"""

from __future__ import annotations

import collections
import threading

__all__ = ["count", "snapshot", "reset"]

_counts: collections.Counter = collections.Counter()
_lock = threading.Lock()


def count(site: str, cause: str) -> None:
    with _lock:
        _counts[site, cause] += 1


def snapshot() -> dict:
    """``{(site, cause): count}`` for every decision taken since the last reset."""
    with _lock:
        return dict(_counts)


def reset() -> None:
    with _lock:
        _counts.clear()
