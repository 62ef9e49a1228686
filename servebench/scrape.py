"""Deltas of the server's ``/stats`` and ``/metrics`` across a timed window."""

from __future__ import annotations

import json
from dataclasses import dataclass


def parse_prom(text: str) -> dict[str, float]:
    """Prometheus text exposition -> ``{"name{labels}": value}``."""
    out = {}
    for line in text.splitlines():
        if line and not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            out[name] = float(value)
    return out


@dataclass
class Snapshot:
    """One scrape of both endpoints."""

    stats: dict
    prom: dict[str, float]

    @classmethod
    def parse(cls, stats: bytes, metrics: bytes) -> "Snapshot":
        """Build from the raw ``/stats`` and ``/metrics`` bodies."""
        return cls(json.loads(stats), parse_prom(metrics.decode()))


@dataclass
class Window:
    """What the server did between two snapshots."""

    before: Snapshot
    after: Snapshot

    def stat(self, name: str) -> int:
        """Delta of one ``/stats`` counter."""
        return self.after.stats[name] - self.before.stats[name]

    def counter(self, name: str) -> float:
        """Delta of one unlabelled metric (summed over its label sets)."""
        def total(prom):
            return sum(v for k, v in prom.items()
                       if k == name or k.startswith(name + "{"))
        return total(self.after.prom) - total(self.before.prom)

    def gauge(self, name: str) -> float:
        """Current value of an unlabelled gauge."""
        return self.after.prom[name]

    def count(self, hist: str) -> float:
        """Observations a histogram took in the window."""
        return self.counter(hist + "_count")

    def quantile(self, hist: str, q: float) -> float:
        """``q``-quantile (seconds) of a histogram's in-window observations.

        Linear interpolation inside the bucket that holds the quantile, as
        Prometheus' ``histogram_quantile`` does; 0.0 when the window saw no
        observation.
        """
        buckets = []
        for key in self.after.prom:
            if key.startswith(hist + "_bucket{le="):
                le = key.split('"')[1]
                bound = float("inf") if le == "+Inf" else float(le)
                delta = self.after.prom[key] - self.before.prom.get(key, 0.0)
                buckets.append((bound, delta))
        buckets.sort()
        total = buckets[-1][1] if buckets else 0.0
        if total <= 0:
            return 0.0
        rank = q * total
        lo_bound, lo_count = 0.0, 0.0
        for bound, cum in buckets:
            if cum >= rank:
                if bound == float("inf"):
                    return lo_bound
                width = cum - lo_count
                frac = (rank - lo_count) / width if width else 1.0
                return lo_bound + (bound - lo_bound) * frac
            lo_bound, lo_count = bound, cum
        return lo_bound
