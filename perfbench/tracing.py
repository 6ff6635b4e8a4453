"""Layer tracing from outside the library.

`Tracer.install` replaces each traced public function of `charform` with a
wrapper, in every loaded `charform` module that holds the function under
its name, so calls between modules are seen too.  Nothing under `src/` is
edited.  Each wrapped call is a span: name, start, end, the span that
caused it and the task it belongs to.  Spans are kept in memory and written
out when the run ends, at most MAX_SPANS_PER_NAME of each name; calls,
total and self time are summed per name as the spans close, so the sums
stay exact beyond that cap.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (module, attribute, recursive).  A recursive function calls itself through
# its module global; it is traced at its outermost call only, by putting the
# original back in that global for the duration of the call.
TARGETS = [
    ("algebra", "subalgebra_closure", False),
    ("algebra", "quotient", False),
    ("algebra", "induced_subalgebra", False),
    ("algebra", "HeytingAlgebra.__init__", False),
    ("algebra", "HeytingAlgebra._validate", False),
    ("algebra", "canonical_key", False),
    ("algebra", "in_sh", False),
    ("algebra", "homomorphism_search", False),
    ("algebra", "enumerate_filters", False),
    ("algebra", "is_isomorphic", False),
    ("catalog", "all_algebras", False),
    ("catalog", "standard_corpus", False),
    ("presentation", "build_corpus", False),
    ("presentation", "check_defines", False),
    ("presentation", "extends_to_homomorphism", False),
    ("formula", "enumerate_top_valuations", False),
    ("formula", "is_valid", False),
    ("jankov", "jankov_formula", False),
    ("modal", "modal_validity", False),
    ("modal", "evaluate_modal", True),
    ("modal", "gmt_translate", True),
    ("modal", "span", False),
    ("modal", "heyting_carcass", False),
    ("rn", "trunc", False),
]

# is_valid is reported per engine argument, as formula.is_valid.<engine>.
IS_VALID_ENGINES = ("auto", "propagate")

MAX_SPANS_PER_NAME = 5_000


def _engine(args, kwargs):
    return kwargs.get("engine", args[2] if len(args) > 2 else "auto")


def timed_names():
    """Span names whose calls, self and total time are reported."""
    names = []
    for module, attr, _ in TARGETS:
        if attr == "enumerate_filters":
            continue
        if attr == "is_valid":
            names += [f"{module}.{attr}.{e}" for e in IS_VALID_ENGINES]
        else:
            names.append(f"{module}.{attr}")
    return names


def metric_names():
    """Every per-layer metric a traced run reports, with its unit."""
    out = {}
    for name in timed_names():
        out[f"{name}.calls"] = "count"
        out[f"{name}.self_s"] = "s"
        out[f"{name}.total_s"] = "s"
    out.update({
        "algebra.enumerate_filters.calls": "count",
        "algebra.in_sh.hit_ratio": "ratio",
        "algebra.homomorphism_search.hit_ratio": "ratio",
        "presentation.extends_to_homomorphism.ok_ratio": "ratio",
        "formula.enumerate_top_valuations.tuples": "count",
        "presentation.build_corpus.yield": "ratio",
        "trace.overhead_ratio": "ratio",
    })
    return out


class Tracer:
    def __init__(self):
        self.task = -1
        self.spans = []
        self.kept = {}      # name -> spans kept
        self.dropped = 0
        self.stats = {}     # name -> [calls, total_s, self_s]
        self.counts = {}    # outcome counters behind the ratio metrics
        self.corpus_depth = 0  # open build_corpus spans
        self._stack = []    # open spans: [span id, start, time covered by children]
        self._next_id = 0
        self._restore = []

    # -- spans -------------------------------------------------------------

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span named name."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            dur = end - frame[1]
            if self._stack:
                self._stack[-1][2] += dur
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = [0, 0.0, 0.0]
            st[0] += 1
            st[1] += dur
            st[2] += dur - frame[2]
            kept = self.kept.get(name, 0)
            if kept < MAX_SPANS_PER_NAME:
                self.kept[name] = kept + 1
                self.spans.append((sid, parent, self.task, name, frame[1], end))
            else:
                self.dropped += 1

    def count(self, key, n=1):
        self.counts[key] = self.counts.get(key, 0) + n

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target in every loaded charform module."""
        mods = {name.split(".", 1)[1]: mod for name, mod in sys.modules.items()
                if name.startswith("charform.")}
        for module, attr, recursive in TARGETS:
            mod = mods[module]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(f"{module}.{attr}", orig))
                self._restore.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapper = self._wrap(f"{module}.{attr}", orig,
                                 home=mod if recursive else None, attr=attr)
            for m in mods.values():
                if getattr(m, attr, None) is orig:
                    setattr(m, attr, wrapper)
                    self._restore.append((m, attr, orig))

    def uninstall(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, name, fn, home=None, attr=None):
        tracer = self
        outcome = _OUTCOMES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name
            if name == "formula.is_valid":
                span = f"{name}.{_engine(args, kwargs)}"
            elif name == "algebra.canonical_key" and tracer.corpus_depth:
                tracer.count("corpus.canonical_key")
            elif name == "presentation.build_corpus":
                tracer.corpus_depth += 1
            if home is not None:
                setattr(home, attr, fn)
            try:
                result = tracer.call(span, fn, args, kwargs)
            finally:
                if home is not None:
                    setattr(home, attr, wrapper)
                if name == "presentation.build_corpus":
                    tracer.corpus_depth -= 1
            if outcome is not None:
                tracer.count(outcome[0], outcome[1](result))
            return result
        return wrapper

    # -- results -----------------------------------------------------------

    def metrics(self, overhead_ratio):
        out = {}
        for name in timed_names():
            calls, total, self_s = self.stats.get(name, (0, 0.0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total
        c = self.counts
        calls = lambda name: self.stats.get(name, (0,))[0]
        ratio = lambda num, den: num / den if den else 0.0
        out["algebra.enumerate_filters.calls"] = calls("algebra.enumerate_filters")
        out["algebra.in_sh.hit_ratio"] = ratio(c.get("in_sh.hit", 0),
                                               calls("algebra.in_sh"))
        out["algebra.homomorphism_search.hit_ratio"] = ratio(
            c.get("homomorphism_search.hit", 0), calls("algebra.homomorphism_search"))
        out["presentation.extends_to_homomorphism.ok_ratio"] = ratio(
            c.get("extends.ok", 0), calls("presentation.extends_to_homomorphism"))
        out["formula.enumerate_top_valuations.tuples"] = c.get("top_valuations", 0)
        out["presentation.build_corpus.yield"] = ratio(
            c.get("corpus.members", 0), c.get("corpus.canonical_key", 0))
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write(self, path, header):
        """Write the header line, then one JSON line per kept span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, spans=len(self.spans),
                                     dropped=self.dropped)) + "\n")
            for sid, parent, task, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "task": task,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


# Outcome counters, recorded at the same boundaries as the spans:
# name -> (counter, amount the call's result adds to it).
_OUTCOMES = {
    "algebra.in_sh": ("in_sh.hit", lambda r: int(r[0])),
    "algebra.homomorphism_search": ("homomorphism_search.hit", lambda r: int(bool(r))),
    "presentation.extends_to_homomorphism": ("extends.ok", int),
    "formula.enumerate_top_valuations": ("top_valuations", len),
    "presentation.build_corpus": ("corpus.members", len),
}
