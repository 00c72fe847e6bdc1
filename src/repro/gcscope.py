"""Keep full cyclic-GC collections out of the analysis entry points.

An analysis builds a large heap that stays live until it returns: tokens,
AST nodes, qualifier variables, constraints and their origins.  CPython's
collector walks every tracked object on a full (generation-2) collection,
so on a whole-program run those sweeps cost seconds and free almost
nothing.  While any call decorated with :func:`defer_full_collections` is
on the stack, the generation-2 threshold is raised out of reach; generations 0 and 1 keep running, so short-lived cyclic garbage is
still reclaimed.  The outermost exit restores the caller's thresholds.
The analyses themselves run in one thread; the lock only keeps the
nesting count exact for a host program that calls them from several.
"""

from __future__ import annotations

import functools
import gc
import threading
from typing import Callable, TypeVar

F = TypeVar("F", bound=Callable[..., object])

#: Generation-2 threshold while a deferred call runs.  A full collection
#: follows this many generation-1 collections, i.e. never in practice.
DEFERRED_GEN2_THRESHOLD = 1 << 30

# Module state because the thresholds it guards are process-wide: the
# number of deferred calls on any thread's stack, and the thresholds the
# outermost one found.
_lock = threading.Lock()
_depth = 0
_saved: tuple[int, int, int] = gc.get_threshold()


def defer_full_collections(func: F) -> F:
    """Run ``func`` with full collections deferred (reentrant, thread-safe)."""

    @functools.wraps(func)
    def deferred(*args, **kwargs):
        global _depth, _saved
        with _lock:
            if _depth == 0:
                _saved = gc.get_threshold()
                gc.set_threshold(_saved[0], _saved[1], DEFERRED_GEN2_THRESHOLD)
            _depth += 1
        try:
            return func(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    gc.set_threshold(*_saved)

    return deferred  # type: ignore[return-value]
