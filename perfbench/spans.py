"""In-memory span recorder that wraps gradcomm's public functions from outside.

``Tracer.install`` replaces module attributes of the imported ``gradcomm``
package with timing wrappers; ``uninstall`` puts the originals back.  Nothing
under ``src/`` changes: the package looks its collaborators up by module
attribute or module global at call time, so callers inside the package see the
wrappers too.  Spans are stored column-wise (name id, start, end, parent,
session) so a million calls cost tens of megabytes, and are written out once
when the run ends.
"""

from __future__ import annotations

import json
import time
from array import array
from collections import Counter, defaultdict

import numpy as np

# A gradient of at most this many coordinates belongs to the "small"
# (startup-dominated) regime; larger ones to the "large" (per-element) regime.
SMALL_REGIME_MAX_D = 10_000


def regime(d: int) -> str:
    return "small" if d <= SMALL_REGIME_MAX_D else "large"


def _matches(name: str, prefix: str) -> bool:
    """Span and counter names are dotted; a prefix matches whole components."""
    return name == prefix or name.startswith(prefix + ".")


class Tracer:
    """Records (name, start, end, parent span, session) for every wrapped call."""

    def __init__(self):
        self._ids: dict[str, int] = {}
        self.names: list[str] = []
        self.name_id = array("l")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.session = array("l")
        self._stack: list[int] = []
        self._session = -1
        self.counters: dict[int, Counter] = defaultdict(Counter)
        self._originals: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin_session(self) -> None:
        self._session += 1

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[self._session][name] += amount

    def _open(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.session.append(self._session)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, fn, name_of):
        """Wrap ``fn``; ``name_of(args, kwargs)`` names the span."""

        def wrapper(*args, **kwargs):
            index = self._open(name_of(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return wrapper

    def wrap_generator(self, fn, name: str):
        """Wrap a generator function; the span runs from first to last item.

        While the generator is suspended the span stays open, so the consumer
        must not call wrapped functions between items (``list(gen)`` does not).
        """

        def wrapper(*args, **kwargs):
            index = self._open(name)
            try:
                for item in fn(*args, **kwargs):
                    self.count(name + ".items")
                    yield item
            finally:
                self._close(index)

        return wrapper

    # -- installation --------------------------------------------------------

    def _patch(self, module, attr: str, replacement) -> None:
        self._originals.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def install(self) -> None:
        """Wrap every public function the per-layer metrics are computed from."""
        from gradcomm import adaptive, cli, estimator, netprobe, optimizer

        def static(name):
            return lambda args, kwargs: name

        def cli_name(args, kwargs):
            argv = args[0] if args else kwargs.get("argv")
            return "cli." + (argv[0] if argv else "none")

        def compress_name(args, kwargs):
            x, spec = args[0], args[1]
            return f"compression.compress.{spec.kind}.{regime(x.d)}"

        def decompress_name(args, kwargs):
            msg = args[0]
            return f"compression.decompress.{msg.kind}.{regime(msg.d)}"

        def gd_name(args, kwargs):
            # Also counts the worker-messages, the base of self time per message.
            problem, config = args[0], args[1]
            self.count(f"optimizer.msgs.{config.compressor.kind}.{regime(problem.d)}",
                       problem.n * config.steps)
            return f"optimizer.run_compressed_gd.{config.compressor.kind}.{regime(problem.d)}"

        compress = optimizer.compress

        def counted_compress(*args, **kwargs):
            msg = compress(*args, **kwargs)
            self.count("compression.uplink_bits", msg.bits)
            return msg

        self._patch(cli, "main", self.wrap(cli.main, cli_name))
        for attr in ("read_samples_csv", "update", "advance", "fit"):
            self._patch(estimator, attr,
                        self.wrap(getattr(estimator, attr), static(f"estimator.{attr}")))
        self._patch(adaptive, "adaptive_controller",
                    self.wrap_generator(adaptive.adaptive_controller,
                                        "adaptive.adaptive_controller"))
        for attr in ("select_power", "predicted_cost"):
            self._patch(adaptive, attr,
                        self.wrap(getattr(adaptive, attr), static(f"adaptive.{attr}")))
        self._patch(optimizer, "run_compressed_gd",
                    self.wrap(optimizer.run_compressed_gd, gd_name))
        self._patch(optimizer, "compress", self.wrap(counted_compress, compress_name))
        self._patch(optimizer, "decompress", self.wrap(optimizer.decompress, decompress_name))
        self._patch(optimizer, "sample_time",
                    self.wrap(optimizer.sample_time, static("commodel.sample_time")))
        self._patch(netprobe, "probe", self.wrap(netprobe.probe, static("netprobe.probe")))

    def uninstall(self) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    # -- analysis ------------------------------------------------------------

    def save(self, path) -> None:
        """Write all spans and counters to an ``.npz`` file."""
        np.savez_compressed(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int64),
            start_ns=np.asarray(self.start, dtype=np.int64),
            end_ns=np.asarray(self.end, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            session=np.asarray(self.session, dtype=np.int64),
            names=np.array(json.dumps(self.names)),
            counters=np.array(json.dumps({str(k): dict(v) for k, v in self.counters.items()})),
        )


class SpanTable:
    """Vectorised view of recorded spans: durations and self times per name."""

    def __init__(self, tracer: Tracer):
        self.names = tracer.names
        self.counters = tracer.counters
        self.name_id = np.asarray(tracer.name_id, dtype=np.int64)
        self.session = np.asarray(tracer.session, dtype=np.int64)
        parent = np.asarray(tracer.parent, dtype=np.int64)
        self.duration = (np.asarray(tracer.end, dtype=np.int64)
                         - np.asarray(tracer.start, dtype=np.int64)).astype(np.float64)
        self.parent_name = np.where(parent >= 0, self.name_id[np.maximum(parent, 0)], -1)
        # Wrapped calls are synchronous and nested, so children never overlap
        # and the time they cover is the sum of their durations.
        has_parent = parent >= 0
        covered = np.bincount(parent[has_parent], weights=self.duration[has_parent],
                              minlength=self.duration.size)
        self.self_time = self.duration - covered

    def _ids(self, prefix: str) -> list[int]:
        return [i for i, name in enumerate(self.names) if _matches(name, prefix)]

    def _mask(self, prefix: str) -> np.ndarray:
        return np.isin(self.name_id, self._ids(prefix))

    def calls(self, prefix: str, session: int = 0) -> int:
        return int(np.count_nonzero(self._mask(prefix) & (self.session == session)))

    def mean_ns(self, prefix: str, self_time: bool = False) -> float:
        mask = self._mask(prefix)
        if not mask.any():
            return 0.0
        values = self.self_time if self_time else self.duration
        return float(values[mask].mean())

    def total_ns(self, prefix: str, self_time: bool = False) -> float:
        values = self.self_time if self_time else self.duration
        return float(values[self._mask(prefix)].sum())

    def children_calls(self, child: str, parent_prefix: str, session: int = 0) -> int:
        mask = (self._mask(child) & np.isin(self.parent_name, self._ids(parent_prefix))
                & (self.session == session))
        return int(np.count_nonzero(mask))

    def counter(self, name: str, session: int = 0) -> int:
        return int(self.counters.get(session, Counter()).get(name, 0))

    def counter_total(self, prefix: str) -> int:
        return sum(v for c in self.counters.values() for k, v in c.items()
                   if _matches(k, prefix))
