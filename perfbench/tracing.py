"""Per-layer tracing of hopfalg from outside the package.

`Tracer.install()` replaces each public entry point listed in
`ENTRY_POINTS` by a wrapper that records a span (name, start, end, parent
span, run id) and, after the call, the counts of that layer.  The wrapper
is bound wherever callers resolve the name at call time: the defining
module or class, and every hopfalg module that imported the name.  Any
other reference to an original function is reported as a gap; the
package itself is never edited.

Spans nest.  A layer's self time is its span durations minus the
durations of their direct child spans.  The counting done after a call
runs inside its own `trace.bookkeeping` span, so it is charged to no
layer.  `Element.__mul__`, `GradedPresentation.normalize_terms` and
`GradedPresentation.degree_basis` are counted but not timed.

`cobar.d_peak_mb` is the `tracemalloc` peak while a fresh `CobarComplex`
assembles the iteration's largest differential (most cells) once more,
after the traced iteration has ended.  Tracing allocations slows
differential assembly about eightfold, so doing it during the iteration
would falsify every self time of the traced run.
"""
from __future__ import annotations

import functools
import gc
import importlib
import inspect
import pkgutil
import sys
import time
import tracemalloc
import types
import weakref
from collections import Counter

BOOKKEEPING = "trace.bookkeeping"

# (module, attribute, self-time metric); attribute "Class.method" wraps a
# method.  Several entry points may share one metric.
ENTRY_POINTS = [
    ("cli", "run", "cli.ext_s"),
    ("files", "write_algebroid", "files.write_s"),
    ("files", "parse_algebroid", "files.parse_s"),
    ("fgl", "assemble_bp", "fgl.assemble_s"),
    ("fgl", "quotient_localize", "fgl.localize_s"),
    ("fgl", "johnson_wilson", "fgl.localize_s"),
    ("hopf", "check_hopf_axioms", "hopf.axioms_s"),
    ("morita", "induced_algebroid", "morita.induce_s"),
    ("morita", "check_hopf_map", "morita.hopf_map_s"),
    ("morita", "check_iso", "morita.iso_s"),
    ("morita", "check_flat_witness", "morita.flat_witness_s"),
    ("morita", "theoremD_verdict", "morita.certificate_s"),
    ("cobar", "CobarComplex.basis", "cobar.basis_s"),
    ("cobar", "CobarComplex.differential", "cobar.differential_s"),
    ("cobar", "CobarComplex.ext_dim", "cobar.ext_s"),
    ("cobar", "CobarComplex.ext_dim_stable", "cobar.ext_s"),
    ("cobar", "CobarComplex.d_squared_is_zero", "cobar.d2_s"),
    ("linalg", "rank_fp", "linalg.rank_s"),
    ("linalg", "kernel_basis_fp", "linalg.kernel_s"),
    ("groupoid", "evaluate_groupoid", "groupoid.evaluate_s"),
    ("groupoid", "analyze_map", "groupoid.analyze_s"),
    ("groupoid", "check_descent", "groupoid.descent_s"),
    ("comodule", "check_comodule", "comodule.check_s"),
    ("comodule", "sheaf_data", "comodule.sheaf_s"),
    ("comodule", "comodule_from_sheaf", "comodule.roundtrip_s"),
]

# (module, attribute, count metric): counted, not timed
COUNTED = [
    ("presentation", "Element.__mul__", "presentation.mul_calls"),
    ("presentation", "GradedPresentation.normalize_terms",
     "presentation.normalize_calls"),
    ("presentation", "GradedPresentation.degree_basis",
     "presentation.degree_basis_calls"),
]

COUNT_METRICS = [
    "cobar.basis_keys", "cobar.d_keys", "cobar.d_cells", "cobar.d_nnz",
    "linalg.rank_calls", "linalg.kernel_calls", "linalg.elim_cells",
    "hopf.axiom_gens", "groupoid.evaluate_calls", "groupoid.morphisms",
    "groupoid.composites", "groupoid.pair_scans", "groupoid.descent_modules",
    "comodule.fibre_maps",
] + [metric for _, _, metric in COUNTED]


def layer_metric_names():
    """Every per-layer metric a traced run reports, in a fixed order."""
    times = list(dict.fromkeys(metric for _, _, metric in ENTRY_POINTS))
    return times + COUNT_METRICS + [
        "cobar.d_density", "cobar.d_peak_mb", "linalg.rank_repeat_frac",
        "groupoid.evaluate_repeat_frac", "trace.bookkeeping_s", "trace.gaps",
    ]


def _resolve(module, attr):
    owner = importlib.import_module(f"hopfalg.{module}")
    if "." in attr:
        cls, attr = attr.split(".")
        owner = getattr(owner, cls)
    return owner, attr


def _cells(rows, ncols=None):
    if not rows:
        return 0
    return len(rows) * (len(rows[0]) if ncols is None else ncols)


class Tracer:
    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []  # [name, start, end, parent span index or None]
        self.counts = Counter()
        self.gaps = []
        self._stack = []
        self._metric_of = {}
        self._restore = []
        self._originals = {}
        self._seen = weakref.WeakKeyDictionary()  # complex -> keys counted
        self._rank_digests = set()
        self._rank_repeats = 0
        self._groupoid_keys = set()
        self._groupoid_repeats = 0
        self._largest_d = None  # (cells, H, M, s, t)

    # -- spans -----------------------------------------------------------

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index):
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name):
        return any(self.spans[i][0] == name for i in self._stack)

    def self_times(self):
        """Self time per span name."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        out = Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return out

    # -- wrappers ----------------------------------------------------------

    def _timed(self, name, fn, after):
        """`fn` inside a span; then, in a bookkeeping span, `after` gets
        the call's arguments by parameter name and its result."""
        tracer = self
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if after is not None:
                span = tracer._open(BOOKKEEPING)
                after(signature.bind(*args, **kwargs).arguments, result)
                tracer._close(span)
            return result

        return wrapper

    def _counted(self, metric, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Wrap every entry point; returns the list of gaps found."""
        for info in pkgutil.iter_modules(
                importlib.import_module("hopfalg").__path__):
            importlib.import_module(f"hopfalg.{info.name}")
        modules = [m for n, m in sys.modules.items()
                   if n == "hopfalg" or n.startswith("hopfalg.")]
        after = {
            "cobar.CobarComplex.basis": self._after_basis,
            "cobar.CobarComplex.differential": self._after_differential,
            "linalg.rank_fp": self._after_rank,
            "linalg.kernel_basis_fp": self._after_kernel,
            "hopf.check_hopf_axioms": self._after_axioms,
            "groupoid.evaluate_groupoid": self._after_evaluate,
            "groupoid.check_descent": self._after_descent,
            "comodule.sheaf_data": self._after_sheaf,
        }
        wrapped = []
        for module, attr, metric in ENTRY_POINTS:
            name = f"{module}.{attr}"
            self._metric_of[name] = metric
            owner, key = _resolve(module, attr)
            original = self._originals[name] = getattr(owner, key)
            wrapped.append((owner, key, original,
                            self._timed(name, original, after.get(name))))
        for module, attr, metric in COUNTED:
            owner, key = _resolve(module, attr)
            original = getattr(owner, key)
            wrapped.append((owner, key, original,
                            self._counted(metric, original)))
        for owner, key, original, wrapper in wrapped:
            setattr(owner, key, wrapper)
            self._restore.append((owner, key, original))
            if isinstance(owner, type):
                continue
            for module in modules:  # names bound by `from .x import y`
                for alias, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, alias, wrapper)
                        self._restore.append((module, alias, original))
        self.gaps = self._find_gaps(wrapped, self._restore)
        return self.gaps

    def uninstall(self):
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    def _find_gaps(self, wrapped, restore):
        """References to an original entry point that no wrapper replaced:
        a caller holding one bypasses the trace."""
        gc.collect()
        ours = [self._originals] + wrapped + restore
        gaps = []
        for owner, key, original, wrapper in wrapped:
            mine = ours + [wrapper.__dict__] + list(wrapper.__closure__)
            for ref in gc.get_referrers(original):
                if isinstance(ref, types.FrameType) or any(
                        ref is o for o in mine):
                    continue
                gaps.append(f"{getattr(owner, '__name__', owner)}.{key}: "
                            f"held by a {type(ref).__name__}")
        return gaps

    # -- counts taken at the layer boundaries -------------------------------

    def _first(self, obj, *key):
        """True the first time `key` is seen for the object `obj`."""
        seen = self._seen.setdefault(obj, set())
        if key in seen:
            return False
        seen.add(key)
        return True

    def _after_basis(self, a, result):
        if self._first(a["self"], "basis", a["s"], a["t"]):
            self.counts["cobar.basis_keys"] += len(result)

    def _after_differential(self, a, result):
        complex_, s, t = a["self"], a["s"], a["t"]
        if self._first(complex_, "d", s, t):
            c = self.counts
            basis = self._originals["cobar.CobarComplex.basis"]
            c["cobar.d_keys"] += len(basis(complex_, s, t))
            cells = _cells(result)
            c["cobar.d_cells"] += cells
            c["cobar.d_nnz"] += sum(len(r) - r.count(0) for r in result)
            if self._largest_d is None or cells > self._largest_d[0]:
                self._largest_d = (cells, complex_.H, complex_.M, s, t)

    def _after_rank(self, a, result):
        rows = a["rows"]
        self.counts["linalg.rank_calls"] += 1
        self.counts["linalg.elim_cells"] += _cells(rows)
        digest = (a["p"], hash(tuple(map(tuple, rows))))
        if digest in self._rank_digests:
            self._rank_repeats += 1
        self._rank_digests.add(digest)

    def _after_kernel(self, a, result):
        self.counts["linalg.kernel_calls"] += 1
        self.counts["linalg.elim_cells"] += _cells(a["rows"], a["ncols"])

    def _after_axioms(self, a, result):
        H, bound = a["H"], a["bound"]
        self.counts["hopf.axiom_gens"] += sum(
            abs(d) <= bound
            for d in list(H.A.degrees) + list(H.Gamma.degrees))

    def _after_evaluate(self, a, result):
        H, R = a["H"], a["R"]
        c = self.counts
        c["groupoid.evaluate_calls"] += 1
        c["groupoid.morphisms"] += len(result.morphisms)
        c["groupoid.composites"] += len(result.comp)
        c["groupoid.pair_scans"] += len(result.morphisms) ** 2
        key = (H.name, H.A.fingerprint(), H.Gamma.fingerprint(), R.name)
        if key in self._groupoid_keys:
            self._groupoid_repeats += 1
        self._groupoid_keys.add(key)

    def _after_descent(self, a, result):
        if not self._inside("groupoid.check_descent"):
            self.counts["groupoid.descent_modules"] += 1

    def _after_sheaf(self, a, result):
        self.counts["comodule.fibre_maps"] += sum(
            len(pt.maps) for pt in result.points)

    # -- the per-layer metrics ---------------------------------------------

    def metrics(self):
        """Every per-layer metric: self times in seconds, counts, ratios.
        Call it after `uninstall`: it assembles one differential again."""
        out = dict.fromkeys(layer_metric_names(), 0)
        self_times = self.self_times()
        for name, seconds in self_times.items():
            metric = self._metric_of.get(name)
            if metric is not None:
                out[metric] += seconds
        out["trace.bookkeeping_s"] = self_times[BOOKKEEPING]
        out["trace.gaps"] = len(self.gaps)
        out.update(self.counts)
        c = self.counts
        if c["cobar.d_cells"]:
            out["cobar.d_density"] = c["cobar.d_nnz"] / c["cobar.d_cells"]
        out["cobar.d_peak_mb"] = self._largest_differential_peak_mb()
        if c["linalg.rank_calls"]:
            out["linalg.rank_repeat_frac"] = (
                self._rank_repeats / c["linalg.rank_calls"])
        if c["groupoid.evaluate_calls"]:
            out["groupoid.evaluate_repeat_frac"] = (
                self._groupoid_repeats / c["groupoid.evaluate_calls"])
        return out

    def _largest_differential_peak_mb(self):
        if self._largest_d is None:
            return 0
        from hopfalg.cobar import CobarComplex

        _, H, M, s, t = self._largest_d
        complex_ = CobarComplex(H, M=M)
        tracemalloc.start()
        try:
            complex_.differential(s, t)
            return tracemalloc.get_traced_memory()[1] / 2 ** 20
        finally:
            tracemalloc.stop()

    def span_records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "run": self.run_id}
                for name, start, end, parent in self.spans]
