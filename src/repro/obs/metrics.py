"""`MetricsRegistry`: thread-safe counters, gauges and latency histograms.

One registry is the process-wide source of numeric truth for every signal
the stack emits.  Three instrument kinds cover the surface:

- **Counter** — monotone totals (``repro_apsp_runs_total``);
- **Gauge** — point-in-time values, either set directly or *sampled* from a
  live object through a weakly-bound callback (queue depth, contention
  rate), so exposing a gauge never pins the object alive;
- **Histogram** — fixed-bucket latency distributions with cumulative
  Prometheus buckets and interpolated p50/p95/p99 summaries.

Instruments are *families*: ``registry.counter(name)`` returns the family,
``family.labels(tier="exact")`` a labelled child; calling ``inc`` /
``set`` / ``observe`` on the family operates on its unlabelled child.
Names are validated and, for the default :data:`REGISTRY`, must agree with
the catalogue (:mod:`repro.obs.catalog`) on type — the catalogue is also
pre-registered there, so an exposition always lists the full surface.

Two renderings, one state: :meth:`MetricsRegistry.render_prom` emits the
Prometheus 0.0.4 text format (``# HELP`` / ``# TYPE`` / samples), and
:meth:`MetricsRegistry.to_json` a lossless JSON dump that
:meth:`MetricsRegistry.from_json` reconstructs (the ``repro-label metrics
--from FILE`` path).

>>> r = MetricsRegistry()
>>> r.counter("demo_total", help="demo").inc(3)
>>> r.value("demo_total")
3.0
"""

from __future__ import annotations

import json
import re
import threading
import weakref
from pathlib import Path
from typing import Callable

from repro.errors import ReproError
from repro.obs.catalog import CATALOG, COUNTER, GAUGE, HISTOGRAM

#: Default latency buckets (seconds).  Spans four orders of magnitude:
#: sub-millisecond cache hits up to ten-second cold exact solves.
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
    0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Summary quantiles every histogram reports.
SUMMARY_QUANTILES: tuple[float, ...] = (0.5, 0.95, 0.99)

#: Format marker for JSON dumps.
_DUMP_VERSION = 1

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _fmt(value: float) -> str:
    """Render a sample value the Prometheus way (integers without '.0')."""
    f = float(value)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def _escape_label(value: str) -> str:
    """Escape a label value per the 0.0.4 text format."""
    return value.replace("\\", r"\\").replace('"', r"\"").replace("\n", r"\n")


def _escape_help(text: str) -> str:
    """Escape a HELP string per the 0.0.4 text format."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


def _render_labels(labels: tuple[tuple[str, str], ...], extra: str = "") -> str:
    """``{k="v",...}`` (empty string for no labels and no extra)."""
    parts = [f'{k}="{_escape_label(v)}"' for k, v in labels]
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


class _Counter:
    """A monotone total.  ``inc`` is the only mutation."""

    __slots__ = ("_lock", "_value")

    def __init__(self) -> None:
        """A zeroed counter."""
        self._lock = threading.Lock()
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the total."""
        if amount < 0:
            raise ReproError(f"counter increments must be >= 0, got {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """The current total."""
        with self._lock:
            return self._value


class _Gauge:
    """A point-in-time value: settable, or sampled through a weak callback."""

    __slots__ = ("_lock", "_value", "_fn", "_owner")

    def __init__(self) -> None:
        """A zeroed, unbound gauge."""
        self._lock = threading.Lock()
        self._value = 0.0
        self._fn: Callable | None = None
        self._owner: weakref.ref | None = None

    def set(self, value: float) -> None:
        """Set the gauge (detaches any sampling callback)."""
        with self._lock:
            self._value = float(value)
            self._fn = None
            self._owner = None

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (may be negative) to the stored value."""
        with self._lock:
            self._value += amount

    def set_function(self, fn: Callable, owner: object | None = None) -> None:
        """Sample the gauge from ``fn`` at read time.

        With ``owner`` given, only a weak reference to it is kept and
        ``fn(owner)`` produces the value; once the owner is collected the
        gauge falls back to the last sampled value.  Without ``owner``,
        ``fn()`` is called directly (and referenced strongly).
        """
        with self._lock:
            self._fn = fn
            self._owner = weakref.ref(owner) if owner is not None else None

    @property
    def value(self) -> float:
        """The stored value, refreshed through the callback when bound."""
        with self._lock:
            fn, owner_ref = self._fn, self._owner
        if fn is not None:
            if owner_ref is not None:
                owner = owner_ref()
                sample = None if owner is None else fn(owner)
            else:
                sample = fn()
            if sample is not None:
                with self._lock:
                    self._value = float(sample)
        with self._lock:
            return self._value


class _Histogram:
    """Fixed cumulative buckets plus sum/count, with quantile estimates."""

    __slots__ = ("_lock", "buckets", "_counts", "_sum", "_count")

    def __init__(self, buckets: tuple[float, ...]) -> None:
        """An empty histogram over strictly increasing ``buckets``."""
        if not buckets or list(buckets) != sorted(set(buckets)):
            raise ReproError(
                f"histogram buckets must be strictly increasing, got {buckets}"
            )
        self._lock = threading.Lock()
        self.buckets = tuple(float(b) for b in buckets)
        self._counts = [0] * (len(buckets) + 1)  # final slot: +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        """Record one sample."""
        v = float(value)
        idx = len(self.buckets)
        for i, bound in enumerate(self.buckets):
            if v <= bound:
                idx = i
                break
        with self._lock:
            self._counts[idx] += 1
            self._sum += v
            self._count += 1

    def state(self) -> tuple[list[int], float, int]:
        """A consistent ``(per-bucket counts, sum, count)`` snapshot."""
        with self._lock:
            return list(self._counts), self._sum, self._count

    def _restore(self, counts: list[int], total: float, count: int) -> None:
        """Overwrite internal state (JSON reload path)."""
        with self._lock:
            self._counts = list(counts)
            self._sum = float(total)
            self._count = int(count)

    def percentile(self, q: float) -> float:
        """Estimated ``q``-quantile by linear interpolation within buckets.

        Samples beyond the last finite bound are clamped to it (the +Inf
        bucket has no width to interpolate over); an empty histogram
        reports 0.0.
        """
        counts, _total, count = self.state()
        if count == 0:
            return 0.0
        target = q * count
        cumulative = 0.0
        lower = 0.0
        for i, bound in enumerate(self.buckets):
            in_bucket = counts[i]
            if cumulative + in_bucket >= target and in_bucket > 0:
                fraction = (target - cumulative) / in_bucket
                return lower + fraction * (bound - lower)
            cumulative += in_bucket
            lower = bound
        return self.buckets[-1]

    def summary(self) -> dict:
        """Count, sum and the standard quantiles as one JSON-ready dict."""
        _counts, total, count = self.state()
        out = {"count": count, "sum": round(total, 6)}
        for q in SUMMARY_QUANTILES:
            out[f"p{int(q * 100)}"] = round(self.percentile(q), 6)
        return out

    @property
    def count(self) -> int:
        """Total samples observed."""
        with self._lock:
            return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed values."""
        with self._lock:
            return self._sum


#: Child-instrument constructors by metric kind.
_KINDS = {COUNTER: _Counter, GAUGE: _Gauge, HISTOGRAM: _Histogram}

_LabelKey = tuple[tuple[str, str], ...]


class MetricFamily:
    """One named metric with zero or more labelled children.

    Operating on the family itself (``inc``/``set``/``observe``/...)
    addresses the unlabelled child, so label-free metrics need no
    ``labels()`` call.
    """

    def __init__(
        self,
        name: str,
        kind: str,
        help: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        """A family with no children yet."""
        if kind == HISTOGRAM:
            _Histogram(buckets)  # validate eagerly: fail at registration
        self.name = name
        self.kind = kind
        self.help = help
        self.buckets = buckets
        self._lock = threading.Lock()
        self._children: dict[_LabelKey, object] = {}

    def _make_child(self):
        """Construct one child instrument of this family's kind."""
        if self.kind == HISTOGRAM:
            return _Histogram(self.buckets)
        return _KINDS[self.kind]()

    def labels(self, **labelset: str):
        """The child for ``labelset`` (created on first use)."""
        for k in labelset:
            if not _LABEL_RE.match(k):
                raise ReproError(f"invalid label name {k!r} on {self.name}")
        key: _LabelKey = tuple(sorted((k, str(v)) for k, v in labelset.items()))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                child = self._make_child()
                self._children[key] = child
            return child

    def children(self) -> list[tuple[_LabelKey, object]]:
        """``(label key, child)`` pairs, sorted by label key."""
        with self._lock:
            return sorted(self._children.items())

    # convenience pass-throughs to the unlabelled child ------------------
    def inc(self, amount: float = 1.0) -> None:
        """Increment the unlabelled child."""
        self.labels().inc(amount)

    def set(self, value: float) -> None:
        """Set the unlabelled child (gauges)."""
        self.labels().set(value)

    def set_function(self, fn: Callable, owner: object | None = None) -> None:
        """Bind a sampling callback on the unlabelled child (gauges)."""
        self.labels().set_function(fn, owner=owner)

    def observe(self, value: float) -> None:
        """Observe into the unlabelled child (histograms)."""
        self.labels().observe(value)

    @property
    def value(self) -> float:
        """The unlabelled child's value (counters/gauges)."""
        return self.labels().value


class MetricsRegistry:
    """A named collection of metric families with text/JSON exposition.

    ``preregister`` instantiates a catalogue of ``name -> (type, help)``
    rows up front — the process-wide :data:`REGISTRY` does this with
    :data:`repro.obs.catalog.CATALOG` so every catalogued metric appears
    in every exposition, exercised or not.
    """

    def __init__(
        self, preregister: dict[str, tuple[str, str]] | None = None
    ) -> None:
        """An empty registry, optionally pre-seeded from a catalogue."""
        self._lock = threading.Lock()
        self._families: dict[str, MetricFamily] = {}
        if preregister:
            for name, (kind, help_text) in preregister.items():
                self._family(name, kind, help_text)

    # ------------------------------------------------------------------
    def _family(
        self,
        name: str,
        kind: str,
        help: str | None,
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        """Fetch-or-create the family, enforcing name and type consistency."""
        if not _NAME_RE.match(name):
            raise ReproError(f"invalid metric name {name!r}")
        if kind not in _KINDS:
            raise ReproError(f"unknown metric kind {kind!r}")
        catalogued = CATALOG.get(name)
        if help is None:
            help = catalogued[1] if catalogued else name
        if catalogued and catalogued[0] != kind:
            raise ReproError(
                f"metric {name!r} is catalogued as {catalogued[0]}, "
                f"requested as {kind}"
            )
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = MetricFamily(
                    name, kind, help, buckets=buckets or DEFAULT_BUCKETS
                )
                self._families[name] = family
            elif family.kind != kind:
                raise ReproError(
                    f"metric {name!r} already registered as {family.kind}, "
                    f"requested as {kind}"
                )
            return family

    def counter(self, name: str, help: str | None = None) -> MetricFamily:
        """The counter family ``name`` (created on first call)."""
        return self._family(name, COUNTER, help)

    def gauge(self, name: str, help: str | None = None) -> MetricFamily:
        """The gauge family ``name`` (created on first call)."""
        return self._family(name, GAUGE, help)

    def histogram(
        self,
        name: str,
        help: str | None = None,
        buckets: tuple[float, ...] | None = None,
    ) -> MetricFamily:
        """The histogram family ``name`` (created on first call)."""
        return self._family(name, HISTOGRAM, help, buckets=buckets)

    # ------------------------------------------------------------------
    def families(self) -> list[MetricFamily]:
        """Every family, sorted by name."""
        with self._lock:
            return [self._families[n] for n in sorted(self._families)]

    def value(self, name: str, **labelset: str) -> float:
        """Current value of one counter/gauge child (0.0 if never touched)."""
        with self._lock:
            family = self._families.get(name)
        if family is None:
            raise ReproError(f"unknown metric {name!r}")
        return family.labels(**labelset).value

    def histogram_summary(self, name: str, **labelset: str) -> dict:
        """Count/sum/p50/p95/p99 of one histogram child."""
        with self._lock:
            family = self._families.get(name)
        if family is None or family.kind != HISTOGRAM:
            raise ReproError(f"unknown histogram {name!r}")
        return family.labels(**labelset).summary()

    # ------------------------------------------------------------------
    def render_prom(self) -> str:
        """The Prometheus 0.0.4 text exposition of every family."""
        lines: list[str] = []
        for family in self.families():
            lines.append(f"# HELP {family.name} {_escape_help(family.help)}")
            lines.append(f"# TYPE {family.name} {family.kind}")
            for labels, child in family.children():
                if family.kind == HISTOGRAM:
                    counts, total, count = child.state()
                    cumulative = 0
                    for bound, in_bucket in zip(family.buckets, counts):
                        cumulative += in_bucket
                        le = _render_labels(labels, f'le="{_fmt(bound)}"')
                        lines.append(
                            f"{family.name}_bucket{le} {cumulative}"
                        )
                    le = _render_labels(labels, 'le="+Inf"')
                    lines.append(f"{family.name}_bucket{le} {count}")
                    suffix = _render_labels(labels)
                    lines.append(f"{family.name}_sum{suffix} {_fmt(total)}")
                    lines.append(f"{family.name}_count{suffix} {count}")
                else:
                    suffix = _render_labels(labels)
                    lines.append(
                        f"{family.name}{suffix} {_fmt(child.value)}"
                    )
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        """A lossless JSON dump (see :meth:`from_json`)."""
        metrics: dict[str, dict] = {}
        for family in self.families():
            values = []
            for labels, child in family.children():
                entry: dict = {"labels": dict(labels)}
                if family.kind == HISTOGRAM:
                    counts, total, count = child.state()
                    entry.update(
                        buckets=list(family.buckets),
                        counts=counts,
                        sum=round(total, 9),
                        count=count,
                        summary=child.summary(),
                    )
                else:
                    entry["value"] = child.value
                values.append(entry)
            metrics[family.name] = {
                "type": family.kind,
                "help": family.help,
                "values": values,
            }
        return {"version": _DUMP_VERSION, "metrics": metrics}

    @classmethod
    def from_json(cls, data: dict) -> "MetricsRegistry":
        """Reconstruct a registry from a :meth:`to_json` dump."""
        if data.get("version") != _DUMP_VERSION:
            raise ReproError(
                f"unsupported metrics dump version {data.get('version')!r}"
            )
        registry = cls()
        try:
            for name, payload in data["metrics"].items():
                kind, help_text = payload["type"], payload.get("help", name)
                for entry in payload.get("values", []):
                    labelset = entry.get("labels", {})
                    if kind == HISTOGRAM:
                        family = registry.histogram(
                            name, help_text,
                            buckets=tuple(entry["buckets"]),
                        )
                        family.labels(**labelset)._restore(
                            entry["counts"], entry["sum"], entry["count"]
                        )
                    elif kind == COUNTER:
                        registry.counter(name, help_text).labels(
                            **labelset
                        ).inc(entry["value"])
                    elif kind == GAUGE:
                        registry.gauge(name, help_text).labels(
                            **labelset
                        ).set(entry["value"])
                    else:
                        raise ReproError(f"unknown metric kind {kind!r}")
                if not payload.get("values"):
                    registry._family(name, kind, help_text)
        except (KeyError, TypeError, ValueError) as exc:
            raise ReproError(f"malformed metrics dump: {exc!r}") from exc
        return registry

    def save(self, path: str | Path) -> Path:
        """Write the JSON dump to ``path``; returns the path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_json()), encoding="utf-8")
        return target

    @classmethod
    def load(cls, path: str | Path) -> "MetricsRegistry":
        """Reconstruct a registry from a file written by :meth:`save`."""
        source = Path(path)
        try:
            data = json.loads(source.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ReproError(
                f"unreadable metrics dump {source}: {exc}"
            ) from exc
        return cls.from_json(data)


#: The process-wide default registry, pre-seeded with the full catalogue.
REGISTRY = MetricsRegistry(preregister=CATALOG)


def get_registry() -> MetricsRegistry:
    """The process-wide default registry."""
    return REGISTRY
