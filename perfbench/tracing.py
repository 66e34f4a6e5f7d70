"""Span tracing for the traced benchmark run.

Wrappers are installed from here, around the calls into each layer of
`torus_lqg`; the package itself is not edited.  Modules import their
dependencies by name (`from .gff import modes_to_grid` in `chaos` and
`lqft`), so a function is replaced in every `torus_lqg` module namespace
that holds it, not only where it is defined.  Methods are replaced on
their class.  Generator functions get one span per `next()`, so the work
is timed where it happens rather than at creation.  A name that a later
version of the package no longer defines is reported as absent and its
metrics stay zero.

Each span records name, start, end, parent span and op id; only calls
made inside a benchmark op are recorded, not those of the output checks.
Spans stay in memory until the run ends.  A layer's self time is its span duration
minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import json
import math
import sys
import time
from collections import defaultdict


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_fft(counts, args, kwargs, result):
    # one complex G x G inverse FFT: 5 N log2 N flops, N = G^2; 16-byte
    # complex input and output arrays
    g = int(_arg(args, kwargs, 1, "grid"))
    n = g * g
    counts["gff.fft.gflop_computed"] += 5.0 * n * math.log2(n) / 1e9
    counts["gff.fft.mb_computed"] += 2 * 16 * n / 1e6


def _count_j0(counts, args, kwargs, result):
    # the n = 0 row (2c terms) plus c positive rows of 2c + 1 terms
    c = int(_arg(args, kwargs, 1, "cutoff"))
    counts["gff.regularized_variance.j0_evals_computed"] += 2 * c + c * (2 * c + 1)


def _count_replicas(key, mc_pos):
    def count(counts, args, kwargs, result):
        counts[key] += _arg(args, kwargs, mc_pos, "mc").replicas

    return count


def _count_checks(counts, args, kwargs, result):
    for check in result:
        counts[f"checks.{check.name}.s"] += check.seconds


# (span name, defining module, attribute, count hook).  An attribute
# written "Class.method" is replaced on the class.
SPANS = (
    ("gff.generator", "torus_lqg.gff", "RngStream.generator", None),
    ("gff.draw_hermitian_modes", "torus_lqg.gff", "draw_hermitian_modes", None),
    ("gff.modes_to_grid", "torus_lqg.gff", "modes_to_grid", _count_fft),
    ("gff.regularized_variance", "torus_lqg.gff", "regularized_variance", _count_j0),
    ("gff.scaled_mode_weights", "torus_lqg.gff", "scaled_mode_weights", None),
    ("chaos.sample_total_masses", "torus_lqg.chaos", "sample_total_masses",
     _count_replicas("chaos.replicas", 3)),
    ("lqft.insertion_mass_samples", "torus_lqg.lqft", "insertion_mass_samples",
     _count_replicas("lqft.replicas", 3)),
    ("lqft.insertion_potential_grid", "torus_lqg.lqft", "insertion_potential_grid", None),
    ("lqft.liouville_field_law_sampler", "torus_lqg.lqft",
     "liouville_field_law_sampler", None),
    ("lqft.partition_function", "torus_lqg.lqft", "partition_function", None),
    ("lqg.build_density_table", "torus_lqg.lqg", "build_density_table", None),
    ("lqg.negative_moment", "torus_lqg.lqg", "negative_moment", None),
    ("lqg.sample_modulus", "torus_lqg.lqg", "sample_modulus", None),
    ("lqg.joint_law_sampler", "torus_lqg.lqg", "joint_law_sampler", None),
    ("cache.get", "torus_lqg.cache", "MomentCache.get", None),
    ("cache.put", "torus_lqg.cache", "MomentCache.put", None),
    ("special.dedekind_eta", "torus_lqg.special", "dedekind_eta", None),
    ("special.theta1", "torus_lqg.special", "theta1", None),
    ("special.theta1_over_z", "torus_lqg.special", "theta1_over_z", None),
    ("green.green", "torus_lqg.green", "green", None),
    ("green.green_log_subtracted", "torus_lqg.green", "green_log_subtracted", None),
    ("green.green_mean_zero", "torus_lqg.green", "green_mean_zero", None),
    ("modular.reduce_to_fundamental", "torus_lqg.modular", "reduce_to_fundamental", None),
    ("checks.run_checks", "torus_lqg.checks", "run_checks", _count_checks),
    ("svg.render_heatmap", "torus_lqg.svg", "render_heatmap", None),
)

CHECK_NAMES = (
    "special-identities",
    "green-oracles",
    "green-modular",
    "variance-constant",
    "kpz-scaling",
    "seiberg-gating",
    "weyl-anomaly",
    "fundamental-reduction",
)

# Every per-layer metric, in report order, with its unit and direction.
PER_LAYER = (
    [(f"{name}.{kind}", unit, "lower")
     for name, *_ in SPANS
     for kind, unit in (("calls", "count"), ("self_s", "s"))]
    + [
        ("gff.fft.gflop_computed", "GFLOP", "lower"),
        ("gff.fft.mb_computed", "MB", "lower"),
        ("gff.regularized_variance.j0_evals_computed", "count", "lower"),
        ("chaos.replicas", "count", "lower"),
        ("lqft.replicas", "count", "lower"),
        ("cache.get.hits", "count", "higher"),
        ("cache.get.misses", "count", "lower"),
        ("cache.store_bytes", "bytes", "lower"),
    ]
    + [(f"checks.{name}.s", "s", "lower") for name in CHECK_NAMES]
    + [
        ("cli.calls", "count", "lower"),
        ("cli.self_s", "s", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("trace.untraced_wall_ref_s", "s", "lower"),
        ("trace.traced_wall_ref_s", "s", "lower"),
        ("trace.overhead_s", "s", "lower"),
    ]
)


class Tracer:
    """Records spans while installed; `op()` opens the root span of one op."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._op = -1
        self._undo: list[tuple] = []

    def reset(self) -> None:
        """Start a new pass: no spans, no counts, op ids from 0."""
        self.spans = []
        self.counts = defaultdict(int)
        self._op = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @property
    def installed(self) -> bool:
        return bool(self._undo)

    @contextlib.contextmanager
    def op(self, root: str):
        """One benchmark op: a root span named `root` while installed."""
        if not self.installed:
            yield
            return
        self._op += 1
        rec = self._open(root)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, name, fn, count):
        if inspect.isgeneratorfunction(fn):

            def traced(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self._stack:
                        yield from it
                        return
                    rec = self._open(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item

        else:

            def traced(*args, **kwargs):
                if not self._stack:
                    return fn(*args, **kwargs)
                rec = self._open(name)
                try:
                    result = fn(*args, **kwargs)
                finally:
                    self._close(rec)
                if count is not None:
                    count(self.counts, args, kwargs, result)
                return result

        return functools.wraps(fn)(traced)

    def install(self) -> None:
        """Replace every traced function or method with its span wrapper."""
        package = [
            mod for key, mod in list(sys.modules.items())
            if key == "torus_lqg" or key.startswith("torus_lqg.")
        ]
        self.absent = []
        for name, modname, attr, count in SPANS:
            owner = sys.modules.get(modname)
            cls_name, _, leaf = attr.rpartition(".")
            if cls_name:
                owner = getattr(owner, cls_name, None)
                orig = owner.__dict__.get(leaf) if owner is not None else None
            else:
                orig = getattr(owner, leaf, None)
            if orig is None:
                self.absent.append(name)
                continue
            traced = self._wrap(name, orig, count)
            if cls_name:
                targets = [(owner, leaf)]
            else:
                targets = [
                    (mod, key) for mod in package
                    for key, val in vars(mod).items() if val is orig
                ]
            for target, key in targets:
                setattr(target, key, traced)
                self._undo.append((target, key, orig))

    def uninstall(self) -> None:
        for target, key, orig in reversed(self._undo):
            setattr(target, key, orig)
        self._undo = []


def layer_totals(spans: list[list]) -> tuple[dict, dict]:
    """(calls, self seconds) per span name."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    calls: defaultdict[str, int] = defaultdict(int)
    self_s: defaultdict[str, float] = defaultdict(float)
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        self_s[name] += (end - start) - covered[i]
    return calls, self_s


def write_spans(path, passes: list[list[list]]) -> None:
    """All spans of the traced passes as gzipped JSON lines."""
    with gzip.open(path, "wt", encoding="utf-8") as fh:
        for k, spans in enumerate(passes):
            for i, (name, start, end, parent, op) in enumerate(spans):
                fh.write(json.dumps([k, i, name, start, end, parent, op]) + "\n")
