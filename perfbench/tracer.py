"""In-memory spans and counters around the public functions of each layer.

The wrappers live in the benchmark, not in the program: `Tracer.install`
replaces a function object wherever a `pelwedge.*` module binds it (so a
`from .x import y` call site is timed too), and wraps `CycloElement`
methods on the class.  Functions called hundreds of thousands of times
per request get a counter instead of a span.  `Tracer.uninstall` puts
every original back.

A layer's self time is its span's duration minus the part of that
interval covered by its child spans (`self_times`).
"""

from __future__ import annotations

import importlib
import sys
import time
from array import array
from collections import defaultdict

# metric prefix -> (module, attribute path) of the wrapped callable
SPANS = {
    "cli.main": ("pelwedge.cli", "main"),
    "reporting.load_pel_input": ("pelwedge.reporting", "load_pel_input"),
    "reporting.to_jsonl": ("pelwedge.reporting", "ReportDocument.to_jsonl"),
    "pairings.verify_prinz": ("pelwedge.pairings", "verify_prinz"),
    "pairings.trace_gram": ("pelwedge.pairings", "trace_gram"),
    "pairings.perfectness_valuation": ("pelwedge.pairings", "perfectness_valuation"),
    "exterior.compound": ("pelwedge.exterior", "compound"),
    "exterior.wedge_gram": ("pelwedge.exterior", "wedge_gram"),
    "instances.rand_perfect_pair": ("pelwedge.instances", "rand_perfect_pair"),
    "hodge.verify_type11": ("pelwedge.hodge", "verify_type11"),
    "hodge.signature_at": ("pelwedge.hodge", "signature_at"),
    "serretate.verify_vdrei": ("pelwedge.serretate", "verify_vdrei"),
    "serretate.verify_vzehn": ("pelwedge.serretate", "verify_vzehn"),
    "domains.satake_matrix": ("pelwedge.domains", "satake_matrix"),
    "domains.op_norm": ("pelwedge.domains", "op_norm"),
    "domains.embedding_trial_stats": ("pelwedge.domains", "embedding_trial_stats"),
    "cyclofield.all_cm_types": ("pelwedge.cyclofield", "all_cm_types"),
}

COUNTERS = {
    "cyclofield.mul": ("pelwedge.cyclofield", "CycloElement.__mul__"),
    "cyclofield.inverse": ("pelwedge.cyclofield", "CycloElement.inverse"),
    "cyclofield.trace_LQ": ("pelwedge.cyclofield", "trace_LQ"),
}

# Per-layer metrics the traced run derives from spans and counters, with
# unit and the wrapped names each one needs.  Calls and seconds are per
# request of the traced phase.
TRACE_METRICS = {
    "cyclofield.mul.calls": ("count", ["cyclofield.mul"]),
    "cyclofield.inverse.calls": ("count", ["cyclofield.inverse"]),
    "cyclofield.trace_LQ.calls": ("count", ["cyclofield.trace_LQ"]),
    "cyclofield.all_cm_types.s": ("s", ["cyclofield.all_cm_types"]),
    "exterior.compound.self_s": ("s", ["exterior.compound"]),
    "exterior.compound.calls": ("count", ["exterior.compound"]),
    "exterior.wedge_gram.self_s": ("s", ["exterior.wedge_gram"]),
    "pairings.trace_gram.self_s": ("s", ["pairings.trace_gram"]),
    "pairings.trace_gram.calls": ("count", ["pairings.trace_gram"]),
    "pairings.perfectness_valuation.self_s": ("s", ["pairings.perfectness_valuation"]),
    "pairings.perfectness_valuation.calls": ("count", ["pairings.perfectness_valuation"]),
    "pairings.verify_prinz.self_s": ("s", ["pairings.verify_prinz"]),
    "pairings.form_dim_max": ("count", ["pairings.trace_gram"]),
    "instances.rand_perfect_pair.self_s": ("s", ["instances.rand_perfect_pair"]),
    "instances.accept_ratio": (
        "ratio",
        ["instances.rand_perfect_pair", "pairings.perfectness_valuation"],
    ),
    "hodge.verify_type11.calls": ("count", ["hodge.verify_type11"]),
    "hodge.verify_type11.self_s": ("s", ["hodge.verify_type11"]),
    "hodge.signature_at.calls": ("count", ["hodge.signature_at"]),
    "hodge.signature_at.self_s": ("s", ["hodge.signature_at"]),
    "serretate.verify_vdrei.self_s": ("s", ["serretate.verify_vdrei"]),
    "serretate.verify_vzehn.self_s": ("s", ["serretate.verify_vzehn"]),
    "domains.satake_matrix.self_s": ("s", ["domains.satake_matrix"]),
    "domains.op_norm.self_s": ("s", ["domains.op_norm"]),
    "domains.embedding_trial_stats.self_s": ("s", ["domains.embedding_trial_stats"]),
    "reporting.load_pel_input.self_s": ("s", ["reporting.load_pel_input"]),
    "reporting.to_jsonl.self_s": ("s", ["reporting.to_jsonl"]),
    "cli.main.self_s": ("s", ["cli.main"]),
}


def self_times(starts, ends, parents) -> list[float]:
    """Self time of every span: its duration minus the union of its
    children's intervals, each clipped to the parent's interval."""
    children = defaultdict(list)
    for sid, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[sid], ends[sid]))
    out = []
    for sid in range(len(starts)):
        lo, hi = starts[sid], ends[sid]
        covered = 0.0
        run_lo = run_hi = None
        for c_lo, c_hi in sorted(children.get(sid, ())):
            c_lo, c_hi = max(c_lo, lo), min(c_hi, hi)
            if c_hi <= c_lo:
                continue
            if run_hi is None or c_lo > run_hi:
                if run_hi is not None:
                    covered += run_hi - run_lo
                run_lo, run_hi = c_lo, c_hi
            else:
                run_hi = max(run_hi, c_hi)
        if run_hi is not None:
            covered += run_hi - run_lo
        out.append((hi - lo) - covered)
    return out


def _resolve(module_name: str, path: str):
    """(owner, object) or None when the name is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, attr, None)
    return None if obj is None else (owner, obj)


class Tracer:
    """Spans (parallel arrays, one entry per call) and call counters."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("l")
        self.requests = array("l")
        self.request = -1
        self.counts: dict[str, list[int]] = {}
        self.missing: set[str] = set()
        self.form_dim_max = 0
        self.draws = 0  # perfectness tests made under rand_perfect_pair
        self.accepted = 0  # draws rand_perfect_pair returned
        self._stack: list[int] = []
        self._pair_depth = 0
        self._patches: list[tuple[object, str, object]] = []

    # -- installing wrappers -------------------------------------------

    def install(self) -> None:
        for key, (module_name, path) in SPANS.items():
            self._patch(key, module_name, path, self._span(key))
        for key, (module_name, path) in COUNTERS.items():
            self._patch(key, module_name, path, self._counter(key))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, key, module_name, path, make_wrapper) -> None:
        found = _resolve(module_name, path)
        if found is None:
            self.missing.add(key)
            print(f"perfbench: {module_name}.{path} not found; its metrics are absent",
                  file=sys.stderr)
            return
        owner, original = found
        wrapper = self._hook(key, make_wrapper(original))
        if isinstance(owner, type):
            # a method: every class attribute bound to it (__mul__ and __rmul__)
            bindings = [(owner, name) for name, value in vars(owner).items() if value is original]
        else:
            bindings = [
                (module, name)
                for module_name_, module in list(sys.modules.items())
                if module is not None
                and (module_name_ == "pelwedge" or module_name_.startswith("pelwedge."))
                for name, value in vars(module).items()
                if value is original
            ]
        for owner_, name in bindings:
            self._patches.append((owner_, name, original))
            setattr(owner_, name, wrapper)

    def _span(self, key):
        name_id = len(self.names)
        self.names.append(key)
        starts, ends, parents = self.starts, self.ends, self.parents
        name_ids, requests, stack = self.name_ids, self.requests, self._stack
        clock = time.perf_counter

        def make(fn):
            def wrapper(*args, **kwargs):
                sid = len(starts)
                parents.append(stack[-1] if stack else -1)
                name_ids.append(name_id)
                requests.append(self.request)
                ends.append(0.0)
                stack.append(sid)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[sid] = clock()
                    stack.pop()

            return wrapper

        return make

    def _counter(self, key):
        cell = self.counts.setdefault(key, [0])

        def make(fn):
            def wrapper(*args, **kwargs):
                cell[0] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def _hook(self, key, fn):
        """Extra bookkeeping for the trace form size and rejection sampling."""
        if key == "pairings.trace_gram":
            def trace_gram(*args, **kwargs):
                gram = fn(*args, **kwargs)
                self.form_dim_max = max(self.form_dim_max, len(gram.matrix))
                return gram

            return trace_gram
        if key == "pairings.perfectness_valuation":
            def perfectness_valuation(*args, **kwargs):
                if self._pair_depth:
                    self.draws += 1
                return fn(*args, **kwargs)

            return perfectness_valuation
        if key == "instances.rand_perfect_pair":
            def rand_perfect_pair(*args, **kwargs):
                self._pair_depth += 1
                try:
                    pair = fn(*args, **kwargs)
                finally:
                    self._pair_depth -= 1
                self.accepted += len(pair)
                return pair

            return rand_perfect_pair
        return fn

    # -- results -------------------------------------------------------

    def metrics(self, n_requests: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, per request; absent when a name is missing."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        for name_id, own in zip(self.name_ids, self_times(self.starts, self.ends, self.parents)):
            calls[self.names[name_id]] += 1
            self_s[self.names[name_id]] += own
        for key, cell in self.counts.items():
            calls[key] = cell[0]
        out = {}
        for metric, (unit, needs) in TRACE_METRICS.items():
            if self.missing.intersection(needs):
                continue
            key = needs[0]
            if metric == "pairings.form_dim_max":
                value = float(self.form_dim_max)
            elif metric == "instances.accept_ratio":
                value = self.accepted / self.draws if self.draws else 0.0
            elif metric.endswith(".calls"):
                value = calls[key] / n_requests
            else:
                value = self_s[key] / n_requests
            out[metric] = (value, unit)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,parent,request,name,start_s,end_s\n")
            for sid, (parent, req, name_id, lo, hi) in enumerate(
                zip(self.parents, self.requests, self.name_ids, self.starts, self.ends)
            ):
                fh.write(f"{sid},{parent},{req},{self.names[name_id]},{lo:.9f},{hi:.9f}\n")
