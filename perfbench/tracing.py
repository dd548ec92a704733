"""Spans around calls into the infobridge layers, recorded from outside.

A traced run installs wrappers on the public functions each layer exposes
(module attributes, class methods, and the names ``ensemble`` and ``cli``
import), so the package's own call sites record one span per call: name,
start, end, parent span and request id (the path or query being worked
on).  Spans stay in memory and are written out when the run ends; self time
is computed from them afterwards.  Nothing is wrapped outside a ``Tracer.installed()`` block,
so untraced runs execute the package unchanged.
"""

import contextlib
import time

from infobridge import cli, distributions, ensemble, laws, paths

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self.start = []
        self.end = []
        self.parent = []
        self.request = []
        self.current_request = -1
        self._stack = []
        self.hooks = {}      # span name -> callable(args, result), run untimed

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.current_request)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx, t0):
        self.end[idx] = _now()
        self.start[idx] = t0
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``; its hook, if any, runs
        after the span has closed."""
        idx = self._open(name)
        t0 = _now()
        try:
            result = fn(*args, **kwargs)
        finally:
            self._close(idx, t0)
        hook = self.hooks.get(name)
        if hook is not None:
            hook(args, result)
        return result

    @contextlib.contextmanager
    def span(self, name):
        """Span around a block of benchmark code (chunks, paths, queries)."""
        idx = self._open(name)
        t0 = _now()
        try:
            yield
        finally:
            self._close(idx, t0)

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _occupation(self, fn):
        """``occupation_estimate`` with its credit table is the per-path
        route; without one it is the exact (table-less) route."""
        def traced(*args, **kwargs):
            name = ("localtime.occupation" if kwargs.get("credit_table") is not None
                    else "localtime.occupation_exact")
            return self.call(name, fn, *args, **kwargs)
        return traced

    def _request_setter(self, cls):
        def make(master_seed, path_index=0):
            self.current_request = int(path_index)
            return cls(master_seed, path_index)
        return make

    @contextlib.contextmanager
    def installed(self):
        """Wrap every layer boundary for the duration of the block."""
        targets = [
            (paths.RandomStream, "generator", "paths.stream"),
            (paths, "recover_b", "paths.recover_b"),
            (distributions.DefaultDistribution, "density_f", "distributions.density"),
            (distributions.DefaultDistribution, "quantile", "distributions.quantile"),
            (laws, "integrate_semi_infinite", "quadrature.integrate"),
            (laws, "survival_probability", "laws.survival"),
            (laws, "posterior_density", "laws.posterior"),
            (laws, "mean_reversion_drift", "laws.drift"),
            (laws, "hazard_window_rates", "laws.hazard_rates"),
            (laws, "compensator_weights", "laws.compensator_weights"),
            # the ensemble's own call sites (_run_chunk and _path_row)
            (ensemble, "_run_chunk", "ensemble.chunk"),
            (ensemble, "BandCreditTable", "localtime.credit_table"),
            (ensemble, "sample_path_direct", "paths.sample"),
            (ensemble, "tanaka_estimate", "localtime.tanaka"),
            (ensemble, "laplacian_approximation", "compensator.window"),
            # the convergence command's own call sites
            (cli, "sample_path_direct", "paths.sample"),
            (cli, "tanaka_estimate", "localtime.tanaka"),
            (cli, "build_curve", "compensator.curve"),
            (cli, "laplacian_approximation", "compensator.window"),
        ]
        special = [
            (ensemble, "occupation_estimate", self._occupation),
            (cli, "occupation_estimate", self._occupation),
            (ensemble, "RandomStream", self._request_setter),
            (cli, "RandomStream", self._request_setter),
        ]
        saved = [(owner, attr, owner.__dict__[attr])
                 for owner, attr, _ in targets + special]
        try:
            for owner, attr, name in targets:
                setattr(owner, attr, self._wrapper(name, getattr(owner, attr)))
            for owner, attr, make in special:
                setattr(owner, attr, make(getattr(owner, attr)))
            yield self
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def totals(self):
        """Per span name: (calls, total seconds, self seconds)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        out = {}
        for i, name in enumerate(self.names):
            n, tot, own = out.get(name, (0, 0.0, 0.0))
            out[name] = (n + 1, tot + dur[i], own + dur[i] - child[i])
        return out

    def write(self, fh):
        """All spans as CSV, times relative to the first span."""
        t0 = self.start[0] if self.start else 0.0
        fh.write("id,name,start_s,end_s,parent,request\n")
        for i, name in enumerate(self.names):
            fh.write(f"{i},{name},{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                     f"{self.parent[i]},{self.request[i]}\n")
