"""Span and call-count recording around the admira package's public calls.

The wrappers are installed from outside the package.  Every name through
which a caller reaches a traced function is rebound to one wrapper: the
module attributes that hold the function object (``solver`` and
``baseline`` bind ``truncated_svd`` at import, ``bench`` binds
``admira_solve``, the package re-exports most of them) and, for methods,
the class attribute.  Nothing under ``src/`` changes.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the
enclosing span (-1 at top level).  Spans stay in memory until the caller
reads them.  Self time is a span's duration minus the durations of its
direct children; the package is single-threaded, so children never
overlap.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

class Tracer:
    """In-memory span recorder with byte counters for file I/O."""

    def __init__(self):
        self.spans = []
        self.bytes = {"read": 0, "written": 0}
        self._stack = []

    def wrap(self, name, fn, io=None):
        """Return ``fn`` wrapped in a span called ``name``.  With ``io``
        set to "read" or "written", the size of the file named by the
        first argument is added to that byte counter."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if io is not None and args and os.path.exists(args[0]):
                    self.bytes[io] += os.path.getsize(args[0])

        return traced

    def take(self):
        """Return ``(spans, bytes)`` recorded so far and start afresh."""
        spans, nbytes = self.spans, self.bytes
        self.spans, self.bytes = [], {"read": 0, "written": 0}
        return spans, nbytes


def install(tracer):
    """Rebind the package's traced entry points to ``tracer``'s wrappers."""
    import admira
    from admira import analysis, baseline, bench, cli, fileio, linalg, operators, solver

    modules = (admira, analysis, baseline, bench, cli, fileio, linalg,
               operators, solver)
    functions = [
        ("operators.sample_indices", operators.sample_indices_without_replacement, None),
        ("bench.generate", bench.generate_problem, None),
        ("linalg.truncated_svd", linalg.truncated_svd, None),
        ("linalg.svd_of_factored", linalg.svd_of_factored, None),
        ("solver.least_squares", solver.least_squares_on_span, None),
        ("solver.admira_solve", solver.admira_solve, None),
        ("baseline.svt_solve", baseline.svt_solve, None),
        ("analysis.snr_recon", analysis.snr_recon, None),
    ]
    for attr, fn in vars(fileio).items():
        if callable(fn) and getattr(fn, "__module__", None) == fileio.__name__:
            if attr.startswith("write_"):
                functions.append(("fileio.write", fn, "written"))
            elif attr.startswith("read_"):
                functions.append(("fileio.read", fn, "read"))
    for name, fn, io in functions:
        wrapped = tracer.wrap(name, fn, io)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    for cls in (operators.SamplingOperator, operators.GaussianOperator):
        for name, attr in (("operators.adjoint", "adjoint"),
                           ("operators.apply_combination", "apply_combination")):
            setattr(cls, attr, tracer.wrap(name, vars(cls)[attr]))
    init = operators.GaussianOperator.__init__
    operators.GaussianOperator.__init__ = tracer.wrap("operators.gaussian_init", init)


def summarize(spans):
    """Per-name totals ``{name: {"s": total, "self_s": self, "calls": n}}``,
    and the number of ``linalg.truncated_svd`` calls made inside an SVT
    solve."""
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    svt_svd_calls = 0
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out[name]
        entry["s"] += end - start
        entry["self_s"] += end - start - child_time[index]
        entry["calls"] += 1
        if name == "linalg.truncated_svd":
            while parent >= 0 and spans[parent][0] != "baseline.svt_solve":
                parent = spans[parent][3]
            svt_svd_calls += parent >= 0
    return dict(out), svt_svd_calls


def layer_metrics(spans, nbytes, svt_iterations, import_s):
    """The per-layer metrics of one round, as ``{name: value}``; counts
    are ints."""
    totals, svt_svd_calls = summarize(spans)

    def get(name, key):
        return totals.get(name, {}).get(key, 0)

    return {
        "operators.sample_indices_s": get("operators.sample_indices", "s"),
        "operators.gaussian_init_s": get("operators.gaussian_init", "s"),
        "bench.generate_self_s": get("bench.generate", "self_s"),
        "operators.adjoint_s": get("operators.adjoint", "s"),
        "operators.adjoint_calls": get("operators.adjoint", "calls"),
        "operators.apply_combination_s": get("operators.apply_combination", "s"),
        "operators.apply_combination_calls": get("operators.apply_combination", "calls"),
        "linalg.truncated_svd_s": get("linalg.truncated_svd", "s"),
        "linalg.truncated_svd_calls": get("linalg.truncated_svd", "calls"),
        "linalg.svd_of_factored_s": get("linalg.svd_of_factored", "s"),
        "solver.least_squares_self_s": get("solver.least_squares", "self_s"),
        "solver.least_squares_calls": get("solver.least_squares", "calls"),
        "solver.admira_self_s": get("solver.admira_solve", "self_s"),
        "baseline.svd_calls_per_iteration": (svt_svd_calls / svt_iterations
                                             if svt_iterations else 0.0),
        "analysis.snr_recon_s": get("analysis.snr_recon", "s"),
        "fileio.write_s": get("fileio.write", "s"),
        "fileio.bytes_written": nbytes["written"],
        "fileio.read_s": get("fileio.read", "s"),
        "fileio.bytes_read": nbytes["read"],
        "cli.import_s": import_s,
    }
