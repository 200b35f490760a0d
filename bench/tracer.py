"""Span tracer installed around onecomp's layer boundaries for a traced pass.

Wrappers are installed only while a ``Tracer`` is active, and each name is
patched where the caller looks it up: a function imported by name into
another module is patched in that module.  Spans live in flat arrays in
memory (name, start, end, parent, job), are written out at the end, and
the per-layer metrics, self time included, are derived from them.

``CarlesonSquare.member`` is deliberately left alone: the companion spot
check calls it about 10^8 times per construct at full size, and a wrapper
there would time the wrapper.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

import numpy as np

# (span name, module, attribute).  Module-level names are patched in the
# module whose globals the caller reads.
FUNCTION_SPANS = (
    ("cli.load", "onecomp.cli", "inner_from_json"),
    ("cli.dumps", "onecomp.cli", "dumps"),
    ("cli.zeros_csv", "onecomp.cli", "dump_zeros_csv"),
    ("classify.scan", "onecomp.classify", "criterion_scan"),
    ("classify.scan", "onecomp.companion", "criterion_scan"),
    ("classify.sawtooth", "onecomp.classify", "sawtooth_test"),
    ("classify.radial", "onecomp.classify", "radial_limit_test"),
    ("levelset", "onecomp.cli", "level_set_components"),
    # the recursive depth-1 call reads the module global
    ("levelset.recount", "onecomp.levelset", "level_set_components"),
    ("companion", "onecomp.cli", "construct_companion"),
    ("companion.radii", "onecomp.companion", "choose_radii"),
    ("companion.march", "onecomp.companion", "place_zeros"),
    ("inner.separation", "onecomp.companion", "separation_constants"),
)

# (span name, module, class, method)
METHOD_SPANS = (
    ("measures.poisson", "onecomp.measures", "AtomicMeasure", "poisson_bounds"),
    ("measures.poisson", "onecomp.measures", "CantorMeasure", "poisson_bounds"),
    ("measures.poisson", "onecomp.measures", "CdfMeasure", "poisson_bounds"),
    ("measures.arc_mass", "onecomp.measures", "AtomicMeasure", "mass_of_arc_bounds"),
    ("measures.arc_mass", "onecomp.measures", "CantorMeasure", "mass_of_arc_bounds"),
    ("measures.arc_mass", "onecomp.measures", "CdfMeasure", "mass_of_arc_bounds"),
    ("measures.herglotz", "onecomp.measures", "AtomicMeasure", "herglotz_integral"),
    ("measures.herglotz", "onecomp.measures", "CantorMeasure", "herglotz_integral"),
    ("measures.herglotz", "onecomp.measures", "CdfMeasure", "herglotz_integral"),
    ("inner.modulus", "onecomp.inner", "InnerFunction", "modulus_bounds"),
    ("inner.blaschke", "onecomp.inner", "BlaschkeProduct", "modulus_bounds"),
    ("inner.singular", "onecomp.inner", "SingularInner", "modulus_bounds"),
    ("inner.mu_square", "onecomp.inner", "MuMeasure", "of_square_bounds"),
    ("cli.export", "onecomp.levelset", "LevelSetAnalysis", "to_csv"),
    ("cli.export", "onecomp.levelset", "LevelSetAnalysis", "to_pgm"),
    ("cli.export", "onecomp.companion", "GammaCurve", "to_polyline_csv"),
)

# Cheap, very frequent functions: counted per enclosing span, not timed.
COUNTED = (
    ("geometry.carleson_square", "onecomp.classify", "carleson_square"),
    ("geometry.carleson_square", "onecomp.companion", "carleson_square"),
    ("geometry.pseudo_distance", "onecomp.companion", "pseudo_distance"),
)


class Tracer:
    """In-memory span recorder; ``with tracer:`` installs the wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.counts: Counter = Counter()      # (name id, parent span) -> calls
        self.raised: dict[int, BaseException] = {}   # PrecisionExhausted seen
        self.job_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open_span(self, name: str) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def close_span(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _spanned(self, name: str, fn):
        tracer = self
        precision_exhausted = sys.modules["onecomp.errors"].PrecisionExhausted
        measures = name.startswith("measures.")

        def wrapper(*args, **kwargs):
            idx = tracer.open_span(name)
            try:
                return fn(*args, **kwargs)
            except precision_exhausted as exc:
                if measures:
                    tracer.raised[id(exc)] = exc
                raise
            finally:
                tracer.close_span(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name: str, fn):
        counts, stack, nid = self.counts, self._stack, self.name_id(name)

        def wrapper(*args, **kwargs):
            counts[(nid, stack[-1])] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, make) -> None:
        original = vars(owner)[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def __enter__(self) -> "Tracer":
        mods = sys.modules
        for name, module, attr in FUNCTION_SPANS:
            self._patch(mods[module], attr, lambda fn, n=name: self._spanned(n, fn))
        for name, module, cls, meth in METHOD_SPANS:
            self._patch(getattr(mods[module], cls), meth,
                        lambda fn, n=name: self._spanned(n, fn))
        for name, module, attr in COUNTED:
            self._patch(mods[module], attr, lambda fn, n=name: self._counted(n, fn))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self) -> "Spans":
        return Spans(self.names, self.name, self.start, self.end, self.parent)

    def calls(self, name: str) -> int:
        """Calls of a counted function."""
        nid = self._name_ids.get(name)
        return sum(n for (cid, _), n in self.counts.items() if cid == nid)

    def calls_under(self, name: str, *parents: str) -> int:
        """Calls of a counted function made directly inside the named spans."""
        if name not in self._name_ids:
            return 0
        nid = self._name_ids[name]
        pids = {self._name_ids[p] for p in parents if p in self._name_ids}
        return sum(n for (cid, span), n in self.counts.items()
                   if cid == nid and span >= 0 and self.name[span] in pids)

    def write(self, path: str) -> None:
        """Write the spans as arrays to a NumPy ``.npz`` file."""
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), job=np.asarray(self.job))


class Spans:
    """Spans as arrays, with inclusive and self time per span.

    A span's self time is its duration minus the time its direct child
    spans cover.  Children of one span run one after another in a single
    thread, so their intervals do not overlap and the covered time is the
    sum of their durations.
    """

    def __init__(self, names, name, start, end, parent):
        self.names = list(names)
        self.name = np.asarray(name, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.float64)
        self.end = np.asarray(end, dtype=np.float64)
        self.parent = np.asarray(parent, dtype=np.int64)
        self.duration = self.end - self.start
        nested = self.parent >= 0
        covered = np.bincount(self.parent[nested], weights=self.duration[nested],
                              minlength=len(self.start))
        self.self_time = self.duration - covered

    def mask(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def calls(self, *names: str) -> int:
        return int(np.count_nonzero(self.mask(*names)))

    def seconds(self, *names: str) -> float:
        return float(self.duration[self.mask(*names)].sum())

    def self_seconds(self, *names: str) -> float:
        return float(self.self_time[self.mask(*names)].sum())

    def calls_under(self, name: str, *parents: str) -> int:
        """Spans of ``name`` whose direct parent is one of ``parents``."""
        child = self.mask(name)
        inside = np.zeros(len(self.start), dtype=bool)
        nested = child & (self.parent >= 0)
        inside[nested] = self.mask(*parents)[self.parent[nested]]
        return int(np.count_nonzero(inside))
