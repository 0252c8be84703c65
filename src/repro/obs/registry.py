"""`MetricsRegistry`: the unified, zero-dependency metrics surface.

Three first-class instrument kinds — `Counter` (monotonic), `Gauge`
(set-to-latest), `Histogram` (fixed-bucket latency distribution with
linear-interpolation percentile estimation) — plus *providers*: named
callables returning the nested stats dicts the serving stack already
produces (``SessionPool.stats``, ``DecideServer`` counters,
``ArtifactStore.stats``, fleet ring counters, ...).  Providers are
read lazily at snapshot/exposition time and their numeric leaves are
flattened into gauge-like samples, so registry values are *by
construction* equal to the legacy ``stats()`` values — there is no
second bookkeeping path to drift.

Everything is thread-safe; instruments take their own lock per update,
the registry locks only its instrument/provider tables.  Label sets
are caller-bounded: instruments declare their label names up front and
providers are expected to keep dict keys that become labels (e.g.
fingerprints) bounded by an existing LRU (see DESIGN.md §3c).

A series is addressed by its *label key*: the tuple of its label
values in declared order (`_Instrument.key`).  ``inc(**labels)`` and
``observe(value, **labels)`` build and check that key on every call;
a per-request caller computes its keys once and updates through
`Counter.inc_key` / `Histogram.observe_key`, the one update path both
spellings share.
"""

from __future__ import annotations

import bisect
import math
import re
import threading
from typing import Any, Callable, Iterable, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_LATENCY_BUCKETS_MS",
    "merge_snapshots",
]

#: Default request-latency bucket upper bounds, in milliseconds.
#: Roughly logarithmic from sub-millisecond cache hits to multi-second
#: chases; the terminal +Inf bucket is implicit.
DEFAULT_LATENCY_BUCKETS_MS: tuple[float, ...] = (
    0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)

_NAME_RE = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*$")
_SANITIZE_RE = re.compile(r"[^a-zA-Z0-9_]")
#: Dict keys that look like content fingerprints become a ``key``
#: label instead of a metric-name fragment (hex digests make illegal,
#: unbounded-name series).
_HEXISH_RE = re.compile(r"[0-9a-f]{16,}$")


def _labels_key(
    label_names: Sequence[str], labels: dict[str, str]
) -> tuple[str, ...]:
    # Hot path (every inc/observe): equal length + successful lookup of
    # every declared name implies the key sets match, without building
    # throwaway sets.
    if len(labels) == len(label_names):
        try:
            return tuple([str(labels[name]) for name in label_names])
        except KeyError:
            pass
    raise ValueError(
        f"expected labels {sorted(label_names)}, got {sorted(labels)}"
    )


class _Instrument:
    """Common shell: name, help text, declared label names, a lock."""

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:
        if not _NAME_RE.match(name):
            raise ValueError(f"invalid metric name: {name!r}")
        self.name = name
        self.help = help
        self.label_names = tuple(label_names)
        self._lock = threading.Lock()

    def key(self, **labels: str) -> tuple[str, ...]:
        """The label key of one series, for the ``*_key`` updates."""
        return _labels_key(self.label_names, labels)


class Counter(_Instrument):
    """A monotonically increasing counter, optionally labelled."""

    kind = "counter"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.inc_key(_labels_key(self.label_names, labels), amount)

    def inc_key(self, key: tuple[str, ...], amount: float = 1.0) -> None:
        """`inc` the series whose label key (`key`) is ``key``."""
        if amount < 0:
            raise ValueError("counters only go up")
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _labels_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            (dict(zip(self.label_names, key)), value)
            for key, value in items
        ]


class Gauge(_Instrument):
    """A set-to-latest value, optionally labelled."""

    kind = "gauge"

    def __init__(
        self, name: str, help: str, label_names: Sequence[str] = ()
    ) -> None:
        super().__init__(name, help, label_names)
        self._values: dict[tuple[str, ...], float] = {}

    def set(self, value: float, **labels: str) -> None:
        key = _labels_key(self.label_names, labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = _labels_key(self.label_names, labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        key = _labels_key(self.label_names, labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            items = sorted(self._values.items())
        return [
            (dict(zip(self.label_names, key)), value)
            for key, value in items
        ]


class _HistogramSeries:
    __slots__ = ("counts", "inf", "total", "sum")

    def __init__(self, n_buckets: int) -> None:
        self.counts = [0] * n_buckets  # per finite bucket
        self.inf = 0  # > last bound
        self.total = 0
        self.sum = 0.0


class Histogram(_Instrument):
    """A fixed-bucket histogram with percentile estimation.

    Bucket bounds are *upper* bounds (Prometheus ``le`` semantics);
    an implicit +Inf bucket catches overflow.  `percentile` assumes a
    uniform distribution inside the containing bucket and linearly
    interpolates between its lower and upper bound; observations in
    the +Inf bucket report the last finite bound (a floor, clearly
    better than inventing an upper edge).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        label_names: Sequence[str] = (),
    ) -> None:
        super().__init__(name, help, label_names)
        bounds = tuple(float(b) for b in buckets)
        if not bounds or any(
            b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])
        ):
            raise ValueError(
                f"bucket bounds must be strictly increasing: {bounds}"
            )
        self.buckets = bounds
        self._series: dict[tuple[str, ...], _HistogramSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        self.observe_key(value, _labels_key(self.label_names, labels))

    def observe_key(self, value: float, key: tuple[str, ...]) -> None:
        """`observe` into the series whose label key (`key`) is
        ``key``."""
        value = float(value)
        index = bisect.bisect_left(self.buckets, value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistogramSeries(
                    len(self.buckets)
                )
            if index < len(self.buckets):
                series.counts[index] += 1
            else:
                series.inf += 1
            series.total += 1
            series.sum += value

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(_labels_key(self.label_names, labels))
            return series.total if series is not None else 0

    def sum(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(_labels_key(self.label_names, labels))
            return series.sum if series is not None else 0.0

    def percentile(self, p: float, **labels: str) -> Optional[float]:
        """Estimate the ``p``-th percentile (``0 < p <= 100``).

        None when the series has no observations.
        """
        if not 0 < p <= 100:
            raise ValueError(f"percentile must be in (0, 100]: {p}")
        with self._lock:
            series = self._series.get(_labels_key(self.label_names, labels))
            if series is None or series.total == 0:
                return None
            counts = list(series.counts) + [series.inf]
            total = series.total
        rank = p / 100.0 * total
        cumulative = 0
        for index, count in enumerate(counts):
            if count == 0:
                continue
            if cumulative + count >= rank:
                if index >= len(self.buckets):
                    # +Inf bucket: the last finite bound is the best
                    # defensible floor.
                    return self.buckets[-1]
                lower = self.buckets[index - 1] if index else 0.0
                upper = self.buckets[index]
                fraction = (rank - cumulative) / count
                return lower + (upper - lower) * fraction
            cumulative += count
        return self.buckets[-1]  # pragma: no cover - unreachable

    def series(self) -> list[tuple[dict[str, str], dict]]:
        """Per-label-set state: finite bucket counts, +Inf, sum, count."""
        with self._lock:
            items = [
                (key, list(s.counts), s.inf, s.total, s.sum)
                for key, s in sorted(self._series.items())
            ]
        out = []
        for key, counts, inf, total, total_sum in items:
            out.append(
                (
                    dict(zip(self.label_names, key)),
                    {
                        "counts": counts,
                        "inf": inf,
                        "count": total,
                        "sum": total_sum,
                    },
                )
            )
        return out


def sanitize_fragment(text: str) -> str:
    """One dict key → one legal metric-name fragment."""
    fragment = _SANITIZE_RE.sub("_", str(text))
    return fragment or "_"


def flatten_stats(
    stats: Any, prefix: str
) -> list[tuple[str, dict[str, str], float]]:
    """Flatten a nested stats dict into ``(name, labels, value)``.

    * dicts recurse, joining keys into the metric name with ``_``;
      keys that look like content fingerprints (long hex) become a
      ``key`` label so series names stay legal and bounded;
    * lists of dicts carrying a ``"fingerprint"`` entry recurse per
      item under a ``fingerprint`` label (truncated to 12 chars);
      other lists are skipped (no defensible series shape);
    * bools and numbers become samples; strings and None are skipped
      (they stay visible in the JSON snapshot, just not in numeric
      exposition).
    """
    out: list[tuple[str, dict[str, str], float]] = []
    _flatten(stats, prefix, {}, out)
    return out


def _flatten(
    value: Any,
    prefix: str,
    labels: dict[str, str],
    out: list[tuple[str, dict[str, str], float]],
) -> None:
    if isinstance(value, bool):
        out.append((prefix, dict(labels), 1.0 if value else 0.0))
    elif isinstance(value, (int, float)):
        if isinstance(value, float) and not math.isfinite(value):
            return
        out.append((prefix, dict(labels), float(value)))
    elif isinstance(value, dict):
        for key, item in sorted(value.items(), key=lambda kv: str(kv[0])):
            text = str(key)
            if _HEXISH_RE.match(text) and "key" not in labels:
                sub = dict(labels)
                sub["key"] = text[:12]
                _flatten(item, prefix, sub, out)
            else:
                fragment = sanitize_fragment(text)
                if not fragment[0].isalpha() and fragment[0] != "_":
                    fragment = "_" + fragment
                _flatten(item, f"{prefix}_{fragment}", labels, out)
    elif isinstance(value, (list, tuple)):
        if all(
            isinstance(item, dict) and "fingerprint" in item
            for item in value
        ) and value:
            for item in value:
                sub = dict(labels)
                sub["fingerprint"] = str(item["fingerprint"])[:12]
                rest = {
                    k: v for k, v in item.items() if k != "fingerprint"
                }
                _flatten(rest, prefix, sub, out)
        # other list shapes: skipped (unbounded/positional series).
    # strings, None, other objects: skipped.


class MetricsRegistry:
    """The process-wide instrument table plus lazy stats providers."""

    def __init__(self, namespace: str = "repro") -> None:
        self.namespace = namespace
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self._providers: dict[str, Callable[[], Any]] = {}

    # -- instrument creation (get-or-create, kind-checked) -------------
    def _register(self, instrument: _Instrument) -> _Instrument:
        with self._lock:
            existing = self._instruments.get(instrument.name)
            if existing is not None:
                if type(existing) is not type(instrument) or (
                    existing.label_names != instrument.label_names
                ):
                    raise ValueError(
                        f"metric {instrument.name!r} already registered "
                        f"with a different kind or label set"
                    )
                return existing
            self._instruments[instrument.name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Counter:
        instrument = self._register(Counter(name, help, labels))
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(
        self, name: str, help: str = "", labels: Sequence[str] = ()
    ) -> Gauge:
        instrument = self._register(Gauge(name, help, labels))
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        labels: Sequence[str] = (),
    ) -> Histogram:
        instrument = self._register(Histogram(name, help, buckets, labels))
        assert isinstance(instrument, Histogram)
        return instrument

    def instruments(self) -> list[_Instrument]:
        with self._lock:
            return [
                self._instruments[name]
                for name in sorted(self._instruments)
            ]

    # -- providers ------------------------------------------------------
    def register_provider(
        self, name: str, stats: Callable[[], Any]
    ) -> None:
        """Register (or replace) a named legacy-stats source.

        ``stats()`` is called at snapshot/exposition time; its nested
        numeric leaves surface as ``<namespace>_<name>_...`` samples.
        """
        fragment = sanitize_fragment(name)
        with self._lock:
            self._providers[fragment] = stats

    def provider_names(self) -> list[str]:
        with self._lock:
            return sorted(self._providers)

    def collect_providers(self) -> dict[str, Any]:
        """Evaluate every provider; a failing provider yields an
        ``{"error": ...}`` stub rather than poisoning the scrape."""
        with self._lock:
            providers = list(self._providers.items())
        out: dict[str, Any] = {}
        for name, stats in sorted(providers):
            try:
                out[name] = stats()
            except Exception as error:  # pragma: no cover - defensive
                out[name] = {"error": f"{type(error).__name__}: {error}"}
        return out

    def provider_samples(self) -> list[tuple[str, dict[str, str], float]]:
        samples: list[tuple[str, dict[str, str], float]] = []
        for name, stats in self.collect_providers().items():
            samples.extend(
                flatten_stats(stats, f"{self.namespace}_{name}")
            )
        return samples

    # -- snapshots ------------------------------------------------------
    def snapshot(self, percentiles: Iterable[float] = (50, 95, 99)) -> dict:
        """A JSON-safe dump of every instrument plus every provider.

        This is the payload of the ``op: "metrics"`` wire frame; it is
        mergeable across workers with `merge_snapshots`.
        """
        counters: dict[str, Any] = {}
        gauges: dict[str, Any] = {}
        histograms: dict[str, Any] = {}
        for instrument in self.instruments():
            if isinstance(instrument, Histogram):
                series = []
                for labels, state in instrument.series():
                    entry = {"labels": labels, **state}
                    for p in percentiles:
                        entry[f"p{p:g}"] = instrument.percentile(
                            p, **labels
                        )
                    series.append(entry)
                histograms[instrument.name] = {
                    "buckets": list(instrument.buckets),
                    "series": series,
                }
            else:
                table = counters if instrument.kind == "counter" else gauges
                table[instrument.name] = [
                    {"labels": labels, "value": value}
                    for labels, value in instrument.samples()
                ]
        return {
            "namespace": self.namespace,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "providers": self.collect_providers(),
        }

    def render(self) -> str:
        from .exposition import render_prometheus

        return render_prometheus(self)


def _percentile_from_counts(
    buckets: Sequence[float], counts: Sequence[int], inf: int, p: float
) -> Optional[float]:
    total = sum(counts) + inf
    if total == 0:
        return None
    rank = p / 100.0 * total
    cumulative = 0
    for index, count in enumerate(list(counts) + [inf]):
        if count == 0:
            continue
        if cumulative + count >= rank:
            if index >= len(buckets):
                return buckets[-1]
            lower = buckets[index - 1] if index else 0.0
            return lower + (buckets[index] - lower) * (
                (rank - cumulative) / count
            )
        cumulative += count
    return buckets[-1]  # pragma: no cover - unreachable


def merge_snapshots(
    snapshots: Sequence[dict], percentiles: Iterable[float] = (50, 95, 99)
) -> dict:
    """Merge per-worker `MetricsRegistry.snapshot` payloads.

    Counters and gauges with identical (name, labels) sum; histogram
    series with identical (name, labels) and identical bucket bounds
    merge bucket-wise and re-estimate percentiles from the merged
    counts.  Providers are not merged (their shapes are worker-local);
    the fleet frame keeps them per worker instead.
    """
    counters: dict[str, dict[tuple, float]] = {}
    gauges: dict[str, dict[tuple, float]] = {}
    histograms: dict[str, dict] = {}

    def label_key(labels: dict) -> tuple:
        return tuple(sorted(labels.items()))

    for snapshot in snapshots:
        if not isinstance(snapshot, dict):
            continue
        for table, merged in (
            (snapshot.get("counters") or {}, counters),
            (snapshot.get("gauges") or {}, gauges),
        ):
            for name, samples in table.items():
                slot = merged.setdefault(name, {})
                for sample in samples:
                    key = label_key(sample.get("labels") or {})
                    slot[key] = slot.get(key, 0.0) + float(
                        sample.get("value") or 0.0
                    )
        for name, family in (snapshot.get("histograms") or {}).items():
            buckets = tuple(family.get("buckets") or ())
            slot = histograms.setdefault(
                name, {"buckets": buckets, "series": {}}
            )
            if tuple(slot["buckets"]) != buckets:
                continue  # incompatible bounds: first writer wins
            for entry in family.get("series") or []:
                key = label_key(entry.get("labels") or {})
                state = slot["series"].get(key)
                if state is None:
                    state = {
                        "labels": dict(entry.get("labels") or {}),
                        "counts": [0] * len(buckets),
                        "inf": 0,
                        "count": 0,
                        "sum": 0.0,
                    }
                    slot["series"][key] = state
                counts = list(entry.get("counts") or [])
                for i, c in enumerate(counts[: len(buckets)]):
                    state["counts"][i] += int(c)
                state["inf"] += int(entry.get("inf") or 0)
                state["count"] += int(entry.get("count") or 0)
                state["sum"] += float(entry.get("sum") or 0.0)

    def samples(table: dict[str, dict[tuple, float]]) -> dict:
        return {
            name: [
                {"labels": dict(key), "value": value}
                for key, value in sorted(slot.items())
            ]
            for name, slot in sorted(table.items())
        }

    merged_histograms: dict[str, Any] = {}
    for name, slot in sorted(histograms.items()):
        series = []
        for key, state in sorted(slot["series"].items()):
            entry = dict(state)
            for p in percentiles:
                entry[f"p{p:g}"] = _percentile_from_counts(
                    slot["buckets"], state["counts"], state["inf"], p
                )
            series.append(entry)
        merged_histograms[name] = {
            "buckets": list(slot["buckets"]),
            "series": series,
        }

    return {
        "counters": samples(counters),
        "gauges": samples(gauges),
        "histograms": merged_histograms,
        "workers_merged": len(snapshots),
    }
