"""Wall times scaled to a nominal host speed.

The shared virtual machines this benchmark runs on change speed by up to 2x
within seconds and by 15-60 % between minutes, with almost no steal time
reported: the same instructions simply run slower.  Every timed piece of
work is therefore followed by a host-speed sample: a fixed pure-Python
routine, ``reference``, runs for ``REF_SHARE`` of that work's wall time (at
least once).  A piece of work is reported in nominal seconds: its wall
seconds times ``NOMINAL_REF_S`` over the mean wall time of one reference call
in the samples around it -- the one just before and the one just after,
widened on both sides until they hold ``WINDOW_REF_S`` of reference time.

The reference imports nothing from storyweave, so no change to the program
moves it, and it runs with the garbage collector off, so the program's heap
does not move it either.
"""

from __future__ import annotations

import array
import gc
import random
import time

REF_SHARE = 0.15  # reference time per second of timed work
NOMINAL_REF_S = 4.0e-4  # one reference call at nominal speed
WINDOW_REF_S = 0.02  # least reference time behind one piece of work's factor


def reference() -> int:
    """Dictionary, list, sorting and random-number work, like the program's own."""
    rng = random.Random(5)
    seen: dict[tuple[int, int], int] = {}
    rows = []
    for k in range(150):
        key = (rng.randrange(20), k % 7)
        seen[key] = seen.get(key, 0) + 1
        rows.append(sorted((j * 7919) % 101 for j in range(6)))
    return len(seen) + len(rows)


class Clock:
    """Host-speed samples, one after each timed piece of work of a phase."""

    def __init__(self) -> None:
        # per sample: reference seconds and calls, kept flat so that a long
        # run's samples take 16 bytes each
        self.spent = array.array("d")
        self.calls = array.array("q")

    def sample(self, work_s: float) -> None:
        """Run the reference for ``REF_SHARE`` of ``work_s``, at least once."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            spent = 0.0
            calls = 0
            while not calls or spent < REF_SHARE * work_s:
                t0 = time.perf_counter()
                reference()
                spent += time.perf_counter() - t0
                calls += 1
        finally:
            if enabled:
                gc.enable()
        self.spent.append(spent)
        self.calls.append(calls)

    def scale(self) -> float:
        """Factor from wall to nominal seconds over the whole phase."""
        return NOMINAL_REF_S * sum(self.calls) / sum(self.spent)

    def scales(self) -> list[float]:
        """Factor from wall to nominal seconds for each sampled piece of work."""
        n = len(self.spent)
        out = []
        for i in range(n):
            lo, hi = max(i - 1, 0), i
            spent = sum(self.spent[lo : hi + 1])
            while spent < WINDOW_REF_S and (lo > 0 or hi < n - 1):
                if lo > 0:
                    lo -= 1
                    spent += self.spent[lo]
                if hi < n - 1:
                    hi += 1
                    spent += self.spent[hi]
            calls = sum(self.calls[lo : hi + 1])
            out.append(NOMINAL_REF_S * calls / spent)
        return out
