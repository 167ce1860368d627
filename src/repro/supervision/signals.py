"""Interrupt plumbing: deliver ``SIGTERM`` as ``KeyboardInterrupt``.

:func:`deliver_sigterm_as_interrupt` converts a polite ``SIGTERM`` (as
sent by cluster schedulers and ``timeout(1)``) into the same
``KeyboardInterrupt`` path as Ctrl-C, so the campaign layer has exactly
one interrupt story: keep what finished (already in the result cache),
raise :class:`~repro.core.campaign.CampaignInterrupted`.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from typing import Iterator


@contextmanager
def deliver_sigterm_as_interrupt() -> Iterator[None]:
    """Raise ``KeyboardInterrupt`` in the main thread on ``SIGTERM``.

    Active only inside the ``with`` block; the previous handler is
    restored on exit.  A no-op outside the main thread (signal handlers
    can only be installed there) and on platforms without ``SIGTERM``.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return
    try:
        previous = signal.getsignal(signal.SIGTERM)
    except (AttributeError, ValueError):  # pragma: no cover - platform
        yield
        return

    def handler(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)
