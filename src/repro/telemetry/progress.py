"""Live campaign progress lines, driven off the streaming result hook.

:class:`ProgressReporter` consumes batches of
:class:`~repro.core.experiment.LifetimeOutcome` as
:func:`~repro.core.campaign.run_campaign` collects them (the
``on_result`` streaming path, plus result-cache replays) and renders a
one-line status: runs completed, 95% CI half-width of the running mean,
censoring fraction, and simulator events per wall-second.

TTY-aware: on an interactive stream the line rewrites itself in place
(``\\r``); on a pipe or CI log it prints a fresh line at most once per
``min_interval`` seconds, so logs stay readable.  Reporting is
observation only — it never touches an RNG stream or an estimate, so
progress-on and progress-off campaigns are bit-identical.
"""

from __future__ import annotations

import sys
import time
from typing import Iterable, Optional, TextIO


def _format_count(value: float) -> str:
    if value >= 1e6:
        return f"{value / 1e6:.1f}M"
    if value >= 1e3:
        return f"{value / 1e3:.1f}k"
    return f"{value:.0f}"


class ProgressReporter:
    """Streams one status line per update window to ``stream``.

    Parameters
    ----------
    stream:
        Where lines go (default ``sys.stderr`` — campaign tables own
        stdout).
    label:
        Prefix of every line.
    min_interval:
        Minimum seconds between rendered lines (the final line always
        renders).
    """

    def __init__(
        self,
        stream: Optional[TextIO] = None,
        *,
        label: str = "campaign",
        min_interval: float = 0.2,
    ) -> None:
        from ..mc.executor import StreamingMoments  # deferred: layering

        self.stream = stream if stream is not None else sys.stderr
        self.label = label
        self.min_interval = min_interval
        self._isatty = bool(getattr(self.stream, "isatty", lambda: False)())
        self._moments = StreamingMoments()
        self.total_runs: Optional[int] = None
        self.runs = 0
        self.censored = 0
        self.events = 0
        self.lines_rendered = 0
        self._started = time.monotonic()
        self._last_render = float("-inf")
        self._open_line = False

    # ------------------------------------------------------------------
    def begin(self, total_runs: Optional[int] = None) -> None:
        """Declare the expected run count (``None`` = open-ended)."""
        self.total_runs = total_runs
        self._started = time.monotonic()

    def update(self, outcomes: Iterable) -> None:
        """Fold a batch of completed run outcomes and maybe render."""
        import numpy as np

        steps = []
        for outcome in outcomes:
            self.runs += 1
            self.events += outcome.metrics.events_executed
            if not outcome.compromised:
                self.censored += 1
            steps.append(float(outcome.steps))
        if steps:
            self._moments.update(np.asarray(steps, dtype=np.float64))
        self._render()

    def finish(self) -> None:
        """Render the final state and release the line."""
        self._render(force=True)
        if self._open_line:
            self.stream.write("\n")
            self.stream.flush()
            self._open_line = False

    # ------------------------------------------------------------------
    def _line(self) -> str:
        elapsed = max(time.monotonic() - self._started, 1e-9)
        if self.total_runs is not None:
            runs = f"{self.runs}/{self.total_runs} runs"
        else:
            runs = f"{self.runs} runs"
        if self.runs:
            censored = f"censored {self.censored / self.runs:.0%}"
        else:
            censored = "censored -"
        half = self._moments.ci_halfwidth
        if self._moments.count >= 2 and half != float("inf"):
            ci = f"mean {self._moments.mean:.1f} ±{half:.1f} steps"
        else:
            ci = "mean - (CI warming up)"
        rate = f"{_format_count(self.events / elapsed)} ev/s"
        return f"{self.label}: {runs} | {censored} | {ci} | {rate}"

    def _render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        line = self._line()
        if self._isatty:
            self.stream.write("\r\x1b[2K" + line)
            self._open_line = True
        else:
            self.stream.write(line + "\n")
        self.stream.flush()
        self.lines_rendered += 1
