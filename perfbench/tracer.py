"""In-memory span tracer for the benchmark's traced samples.

`install` wraps chosen slnbranch functions at every place they are bound
(the defining module, every module that imported the name, the package
namespace, and class attributes such as `__rmul__ = __mul__`).  Each call
becomes one span: name, kind, parent span, start and end.  Generator
functions get one zero-length "call" span when created and one "step" span
per `next()` (the last one, which ends the generator, is marked END), so
self time lands on the generator body and yield counts are exact.  Spans
live in flat arrays (23 bytes each) and are written once, when the sample
ends; `derive` turns a span file into per-name counts and self times.

Spans are recorded by the benchmark's own wrappers around calls into each
layer; nothing inside slnbranch is changed.
"""

from __future__ import annotations

import array
import inspect
import struct
import sys
import time

# Defining module -> attribute paths to trace.  Besides the functions the
# per-layer metrics name, the list holds the boundaries needed to attribute
# self time correctly: the census and bucket lookup, the fermionic entry, and
# the verify suites (so `cli.main` self time is argparse, dispatch and JSON).
TARGETS = {
    "slnbranch.partitions": ("partitions_of", "residue_counts"),
    "slnbranch.branching": (
        "branching_series",
        "in_path_set",
        "in_fow",
        "_census",
        "_class_members",
        "verify_fow_theorem",
    ),
    "slnbranch.qseries": (
        "fermionic_series",
        "lattice_points",
        "inv_pochhammer",
        "QuadraticFormData.admissible",
        "QuadraticFormData.exponent",
        "TruncatedSeries.__mul__",
    ),
    "slnbranch.crystal": ("eps_phi", "epsilon_vector", "e_tilde", "f_tilde", "build_component"),
    "slnbranch.cores": ("n_core",),
    "slnbranch.jantzen_seitz": (
        "is_js",
        "is_js_by_crystal",
        "js_set",
        "chi_direct",
        "chi_by_branching",
        "verify_rectangle_cores",
    ),
    "slnbranch.weights": ("weight_of",),
    "slnbranch.verify": ("verify_methods", "verify_js", "verify_cores", "verify_crystal"),
    "slnbranch.cli": ("main",),
}

CALL, YIELD, END = 0, 1, 2
_HEADER = struct.Struct("<4sIIq")  # magic, name count, sample id, span count
_MAGIC = b"SPN1"


def span_names() -> list[str]:
    """Span names, e.g. "qseries.QuadraticFormData.admissible"; index = name id."""
    return [
        f"{module.rsplit('.', 1)[1]}.{path}"
        for module, paths in TARGETS.items()
        for path in paths
    ]


class Tracer:
    """Span arrays for one sample; `current` is the open span's index or -1."""

    def __init__(self, sample_id: int):
        self.sample_id = sample_id
        self.names = array.array("H")
        self.kinds = array.array("b")
        self.parents = array.array("q")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.current = [-1]

    def wrap(self, fn, name_id: int):
        names, kinds, parents = self.names, self.kinds, self.parents
        starts, ends, current = self.starts, self.ends, self.current
        clock = time.perf_counter

        def open_span(kind: int) -> int:
            idx = len(names)
            names.append(name_id)
            kinds.append(kind)
            parents.append(current[0])
            ends.append(0.0)
            current[0] = idx
            starts.append(clock())
            return idx

        def close_span(idx: int):
            ends[idx] = clock()
            current[0] = parents[idx]

        if inspect.isgeneratorfunction(fn):

            def traced_gen(*args, **kwargs):
                close_span(open_span(CALL))
                gen = fn(*args, **kwargs)
                while True:
                    idx = open_span(YIELD)
                    try:
                        item = next(gen)
                    except StopIteration:
                        kinds[idx] = END
                        return
                    finally:
                        close_span(idx)
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            idx = open_span(CALL)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return traced

    def install(self):
        """Replace every binding of each target with its traced wrapper."""
        import slnbranch.cli  # noqa: F401  (loads every slnbranch module)

        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "slnbranch"]
        for name_id, name in enumerate(span_names()):
            module = "slnbranch." + name.split(".", 1)[0]
            owner = sys.modules[module]
            *outer, attr = name.split(".", 1)[1].split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            wrapper = self.wrap(original, name_id)
            holders = [owner] if outer else modules
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)

    def write(self, path: str):
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, len(span_names()), self.sample_id, len(self.names)))
            for arr in (self.names, self.kinds, self.parents, self.starts, self.ends):
                arr.tofile(fh)


def read_spans(path: str):
    """(sample_id, names, kinds, parents, starts, ends) from a span file."""
    with open(path, "rb") as fh:
        magic, name_count, sample_id, count = _HEADER.unpack(fh.read(_HEADER.size))
        if magic != _MAGIC or name_count != len(span_names()):
            raise ValueError(f"{path}: not a span file of this tracer version")
        arrays = []
        for code in ("H", "b", "q", "d", "d"):
            arr = array.array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    return (sample_id, *arrays)


def derive(path: str) -> dict:
    """Counts and self times of one span file.

    `by_name[name]` holds `calls`, `yields` and `self_s`; a span's self time
    is its duration minus the durations of its direct children.
    `by_edge[(name, parent_name)]` holds `calls` and `yields` split by the
    span that was open at the time (parent_name None at top level).
    """
    _, names, kinds, parents, starts, ends = read_spans(path)
    labels = span_names()
    self_s = [e - s for s, e in zip(starts, ends)]
    for idx, parent in enumerate(parents):
        if parent >= 0:
            self_s[parent] -= ends[idx] - starts[idx]
    by_name = {label: {"calls": 0, "yields": 0, "self_s": 0.0} for label in labels}
    by_edge: dict[tuple[str, str | None], dict[str, int]] = {}
    for idx, name_id in enumerate(names):
        label = labels[name_id]
        by_name[label]["self_s"] += self_s[idx]
        kind = kinds[idx]
        if kind == END:
            continue
        field = "calls" if kind == CALL else "yields"
        by_name[label][field] += 1
        parent = parents[idx]
        key = (label, labels[names[parent]] if parent >= 0 else None)
        edge = by_edge.setdefault(key, {"calls": 0, "yields": 0})
        edge[field] += 1
    return {"spans": len(names), "by_name": by_name, "by_edge": by_edge}
