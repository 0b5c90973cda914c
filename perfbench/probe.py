"""Host-speed probe sampled during a pass.

A shared virtual machine's cores run the same code at speeds that swing by
up to 2x from second to second, depending on what other tenants run on the
host.  ``Probe`` times a fixed piece of pure-Python work every
``INTERVAL_S`` of wall time, from a SIGALRM handler, so on the core and in
the moments where the pass itself runs.  ``scale`` turns a span of wall
time into the time the same work would take at the probe's reference speed.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
# the probe's time on an unloaded core of the reference machine (2-vCPU Xeon VM)
REFERENCE_S = 0.0002


def _work() -> int:
    acc = 0
    seen: dict[int, int] = {}
    for i in range(800):
        k = i & 31
        seen[k] = seen.get(k, 0) + i
        acc += len(str(i)) + len(seen)
    return acc


class Probe:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (start, duration)

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        _work()
        t1 = time.perf_counter()
        self.samples.append((t0, t1 - t0))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, start: float, end: float) -> dict:
        """Raw and reference-speed time of the wall span [start, end]."""
        inside = [d for t, d in self.samples if start <= t < end]
        raw = end - start
        net = raw - sum(inside)
        if not inside:
            return {"raw_s": raw, "net_s": net, "ref_s": net, "probes": 0}
        # work done in a slice is its length over the slowdown seen in it
        speed = sum(REFERENCE_S / d for d in inside) / len(inside)
        return {"raw_s": raw, "net_s": net, "ref_s": net * speed, "probes": len(inside)}
