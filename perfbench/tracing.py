"""Per-layer spans recorded from outside dgres.

`install` wraps the public functions of each layer by replacing module
attributes at run time: the defining module and every other dgres module
(`dgres.classify` above all) that imported the same function object, plus
methods on `LabeledFreeComplex` and `DGStructure`.  Each call records a
span (name, start, end, parent) in memory; self time is a span's duration
minus the time its child spans cover.

`dgres.poly` is not wrapped: it is called too often to wrap from outside
without swamping the run, so its time falls into its callers' self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counters: defaultdict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def wrap(self, name: str, fn, count=None):
        """`fn` recording one span per call; `count(counters, args, kwargs,
        result)` runs after the span closes."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                count(self.counters, args, kwargs, result)
            return result

        return traced

    def self_times(self) -> tuple[dict[str, float], dict[str, int]]:
        """Summed self time and call count per span name."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        for i, (name, start, end, _) in enumerate(self.spans):
            self_s[name] += end - start - child[i]
            calls[name] += 1
        return self_s, calls

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for name, start, end, parent in self.spans:
                out.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent})
                    + "\n"
                )


# -- counters, measured at the layer boundary --------------------------------


def _cells(cx) -> int:
    return sum(cx.ranks())


def _count_dg_check(counters, args, kwargs, report):
    counters["dg.pairs"] += report.checked_pairs
    counters["dg.triples"] += report.checked_triples


def _count_taylor(counters, args, kwargs, cx):
    counters["taylor.cells"] += _cells(cx)


def _count_lyubeznik(counters, args, kwargs, cx):
    ideal = args[0] if args else kwargs["ideal"]
    counters["morse.lyubeznik_cells"] += _cells(cx)
    counters["morse.taylor_cells"] += 2 ** len(ideal.generators)


def _count_morse(counters, args, kwargs, cx):
    before = args[0] if args else kwargs["T"]
    counters["morse.pairs_cancelled"] += (_cells(before) - _cells(cx)) // 2


def _count_strands(counters, args, kwargs, result):
    cx = args[0]
    counters["complexes.strands"] += 2 ** len(cx.ring.active_names())


# (span name, module, attribute, counter); several attributes may share a span
FUNCTIONS = [
    ("dg.dg_check", "dg", "dg_check", _count_dg_check),
    ("dg.quotient_dg", "dg", "quotient_dg", None),
    ("dg.dg_ideal_closure", "dg", "dg_ideal_closure", None),
    ("diam4.build_cone_resolution", "diam4", "build_cone_resolution", None),
    ("diam4.lemmas", "diam4", "check_phi_z_multiplicative", None),
    ("diam4.lemmas", "diam4", "check_sigma_zification", None),
    ("diam4.lemmas", "diam4", "check_boundary_action", None),
    ("classify.classify", "classify", "classify", None),
    ("classify.verify_certificate", "classify", "verify_certificate", None),
    ("taylor.taylor_resolution", "taylor", "taylor_resolution", _count_taylor),
    ("morse.lyubeznik_resolution", "morse", "lyubeznik_resolution", _count_lyubeznik),
    ("morse.lyubeznik_matching", "morse", "lyubeznik_matching", None),
    ("morse.morse_reduce", "morse", "morse_reduce", _count_morse),
    ("complexes.total_betti", "complexes", "total_betti", None),
    ("linalg.rank", "linalg", "rank", None),
    ("prune.prune_complex", "prune", "prune_complex", None),
    ("prune.prune_ideal", "prune", "prune_ideal", None),
]

# (span name, class, method, counter)
METHODS = [
    ("complexes.LabeledFreeComplex", "LabeledFreeComplex", "__init__", None),
    ("complexes.verify", "LabeledFreeComplex", "verify", None),
    ("complexes.is_resolution_of", "LabeledFreeComplex", "is_resolution_of", _count_strands),
]


def _counting_products(counters, product_fn):
    """`product_fn` counting the distinct basis products it computes (the
    structure caches them) and how many are nonzero."""

    @functools.wraps(product_fn)
    def product(a, b):
        prod = product_fn(a, b)
        counters["dg.products"] += 1
        if not prod.is_zero():
            counters["dg.products_nonzero"] += 1
        return prod

    return product


def install(tracer: Tracer):
    """Wrap every layer; returns a function that restores the originals."""
    saved = []

    def replace(obj, attr, new):
        saved.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    dgres_mods = [
        m for n, m in sys.modules.items() if n == "dgres" or n.startswith("dgres.")
    ]
    for span, mod, attr, count in FUNCTIONS:
        orig = getattr(importlib.import_module(f"dgres.{mod}"), attr)
        traced = tracer.wrap(span, orig, count)
        for m in dgres_mods:
            for name, value in list(vars(m).items()):
                if value is orig:
                    replace(m, name, traced)

    complexes = importlib.import_module("dgres.complexes")
    for span, cls, meth, count in METHODS:
        klass = getattr(complexes, cls)
        replace(klass, meth, tracer.wrap(span, getattr(klass, meth), count))

    dg_structure = importlib.import_module("dgres.dg").DGStructure
    init = dg_structure.__init__

    @functools.wraps(init)
    def counting_init(self, complex, product_fn, *args, **kwargs):
        init(self, complex, _counting_products(tracer.counters, product_fn), *args, **kwargs)

    replace(dg_structure, "__init__", counting_init)

    def restore():
        for obj, attr, orig in reversed(saved):
            setattr(obj, attr, orig)

    return restore


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric the traced pass produced, by name."""
    self_s, calls = tracer.self_times()
    c = tracer.counters
    out = {f"{name}.self_s": self_s.get(name, 0.0) for name in _span_names()}
    for name in ("dg.dg_check", "taylor.taylor_resolution", "linalg.rank"):
        out[f"{name}.calls"] = calls.get(name, 0)
    for name in ("dg.pairs", "dg.triples", "taylor.cells", "morse.pairs_cancelled", "complexes.strands"):
        out[name] = c[name]
    out["dg.product_nonzero_ratio"] = _ratio(c["dg.products_nonzero"], c["dg.products"])
    out["morse.survivor_ratio"] = _ratio(c["morse.lyubeznik_cells"], c["morse.taylor_cells"])
    return out


def _span_names() -> list[str]:
    names = [span for span, *_ in FUNCTIONS] + [span for span, *_ in METHODS]
    return list(dict.fromkeys(names))


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
