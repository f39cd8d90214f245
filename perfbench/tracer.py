"""Spans and counters around the calls into each rfsom module.

The tracer records from outside the package: it rebinds the names that an
importing module holds (every rfsom function that ``rfsom.cli`` imports, the
``neighborhood_weight`` that ``rfsom.mrf`` and ``rfsom.som`` call per training
step, and the ``atomic_write_text`` that ``rfsom.datagen.save_csv`` calls) and
restores them afterwards. Nothing under ``src/`` changes.

Spans stay in memory and are written out once, at the end of a run. The
per-step ``neighborhood_weight`` calls are aggregated into counters instead
of spans: a traced paper-size run makes hundreds of thousands of them.
"""

from __future__ import annotations

import json
import types
from dataclasses import dataclass
from time import perf_counter

import rfsom.cli
import rfsom.datagen
import rfsom.mrf
import rfsom.som


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    run: str

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _layer(fn) -> str:
    return fn.__module__.rpartition(".")[2]


def _count_synthesis(counters, args, result) -> None:
    counters["datagen.attempts"] += result.attempts
    counters["datagen.rows"] += result.data.shape[0]


def _count_mrf_steps(counters, args, result) -> None:
    # mrf_train(codebook, dataset, mask, schedule, cfg)
    counters["mrf.train_steps"] += len(args[1]) * args[3].epochs


def _count_som_steps(counters, args, result) -> None:
    # train(codebook, dataset, schedule)
    counters["som.train_steps"] += len(args[1]) * args[2].epochs


def _count_text_write(counters, args, result) -> None:
    counters["fileio.write_calls"] += 1
    counters["fileio.write_bytes"] += len(args[1].encode("utf-8"))


def _count_bytes_write(counters, args, result) -> None:
    counters["fileio.write_calls"] += 1
    counters["fileio.write_bytes"] += len(args[1])


def _count_csv_write(counters, args, result) -> None:
    size = len(args[1].encode("utf-8"))
    counters["fileio.write_calls"] += 1
    counters["fileio.write_bytes"] += size
    counters["datagen.csv_bytes"] += size


# format_float runs once per config field while the CLI resolves its
# configuration; that time belongs to the command's own (self) time
_UNTRACED = {"format_float"}

_COUNTER_KEYS = (
    "datagen.attempts",
    "datagen.rows",
    "datagen.csv_bytes",
    "mrf.train_steps",
    "som.train_steps",
    "fileio.write_calls",
    "fileio.write_bytes",
    "lattice.neighborhood_weight_calls",
    "lattice.neighborhood_weight_s",
)

# span name -> what its arguments and result add to the counters
_OBSERVERS = {
    "datagen.synthesize_self_touch": _count_synthesis,
    "mrf.mrf_train": _count_mrf_steps,
    "som.train": _count_som_steps,
    "fileio.atomic_write_text": _count_text_write,
    "fileio.atomic_write_bytes": _count_bytes_write,
}


class Tracer:
    """Collects spans and counters for one benchmark run.

    ``command`` opens the root span of one CLI command and installs the
    wrappers for its duration; everything the command calls through a
    rebound name becomes a descendant span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []
        self._run = ""
        self._saved: list[tuple[types.ModuleType, str, object]] = []

    def _targets(self):
        for name, obj in vars(rfsom.cli).items():
            if (
                isinstance(obj, types.FunctionType)
                and obj.__module__.startswith("rfsom.")
                and obj.__module__ != "rfsom.cli"
                and name not in _UNTRACED
            ):
                span = f"{_layer(obj)}.{name}"
                yield rfsom.cli, name, self._spanned(span, obj, _OBSERVERS.get(span))
        write = rfsom.datagen.atomic_write_text
        yield rfsom.datagen, "atomic_write_text", self._spanned(
            "fileio.atomic_write_text", write, _count_csv_write
        )
        for module in (rfsom.mrf, rfsom.som):
            yield module, "neighborhood_weight", self._counted(
                "lattice.neighborhood_weight", module.neighborhood_weight
            )

    def _open(self, name: str):
        parent = self._stack[-1] if self._stack else None
        sid = len(self.spans)
        self.spans.append(Span(name, perf_counter(), 0.0, parent, self._run))
        self._stack.append(sid)
        return sid

    def _close(self, sid: int) -> None:
        self.spans[sid].end = perf_counter()
        self._stack.pop()

    def _spanned(self, name, fn, observe):
        counters = self.counters

        def wrapper(*args, **kwargs):
            sid = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(sid)
            if observe is not None:
                observe(counters, args, result)
            return result

        return wrapper

    def _counted(self, name, fn):
        counters = self.counters
        calls, seconds = name + "_calls", name + "_s"

        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            counters[seconds] += perf_counter() - start
            counters[calls] += 1
            return result

        return wrapper

    def begin_run(self, run: str) -> None:
        """Start a new traced pass; counters restart from zero."""
        self._run = run
        self.counters.clear()
        self.counters.update(dict.fromkeys(_COUNTER_KEYS, 0))

    def command(self, name: str, call):
        """Run ``call()`` as the root span ``cli.<name>`` with tracing on."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for module, attr, wrapper in list(self._targets()):
            self._saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, wrapper)
        try:
            sid = self._open(f"cli.{name}")
            try:
                return call()
            finally:
                self._close(sid)
        finally:
            for module, attr, original in reversed(self._saved):
                setattr(module, attr, original)
            self._saved.clear()

    def run_spans(self, run: str) -> list[tuple[int, Span]]:
        return [(i, s) for i, s in enumerate(self.spans) if s.run == run]

    def dump(self, path, header: dict) -> None:
        doc = dict(header)
        doc["span_fields"] = ["name", "start", "end", "parent", "run"]
        doc["spans"] = [[s.name, s.start, s.end, s.parent, s.run] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
            fh.write("\n")


def self_seconds(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Self time per root span name: duration minus its direct children."""
    children: dict[int, float] = {}
    for _, span in spans:
        if span.parent is not None:
            children[span.parent] = children.get(span.parent, 0.0) + span.seconds
    out: dict[str, float] = {}
    for sid, span in spans:
        if span.parent is None:
            out[span.name] = out.get(span.name, 0.0) + span.seconds - children.get(sid, 0.0)
    return out


def total_seconds(spans: list[tuple[int, Span]]) -> dict[str, float]:
    """Summed duration per span name."""
    out: dict[str, float] = {}
    for _, span in spans:
        out[span.name] = out.get(span.name, 0.0) + span.seconds
    return out
