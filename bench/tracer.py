"""Spans around the package's public functions, for the traced run only.

`Tracer.installed()` wraps each traced name in every module that looks it
up (a name imported into several modules is bound separately in each), and
puts the originals back when the run ends.  A span is (id, parent id,
operation id, name, start ns, end ns); spans stay in memory until the run
is over.  The layer of a span is the first part of its name; the
benchmark's own root span per operation is layer "bench".
"""

from __future__ import annotations

import contextlib
import functools
import gzip
from collections import defaultdict
from time import perf_counter_ns

from rmt_autocorr import contour, haar, identities, orthogonal, symcore, symplectic, unitary
from rmt_autocorr.precision import DoubleOps, ExtendedOps

LAYERS = ("bench", "unitary", "symplectic", "orthogonal", "symcore", "precision",
          "haar", "contour", "identities")

# Route functions: (module, function name, span name).
ROUTES = (
    (unitary, "autocorr_schur", "unitary.schur"),
    (unitary, "autocorr_det", "unitary.det"),
    (unitary, "autocorr_comb", "unitary.comb"),
    (unitary, "autocorr_contour", "unitary.contour"),
    (symplectic, "sp_autocorr_schur", "symplectic.schur"),
    (symplectic, "sp_autocorr_det", "symplectic.det"),
    (symplectic, "sp_autocorr_eps", "symplectic.eps"),
    (symplectic, "sp_autocorr_contour", "symplectic.contour"),
    (orthogonal, "so_autocorr_schur", "orthogonal.so_schur"),
    (orthogonal, "so_autocorr_det", "orthogonal.so_det"),
    (orthogonal, "so_autocorr_eps", "orthogonal.so_eps"),
    (orthogonal, "ominus_autocorr_schur", "orthogonal.ominus_schur"),
    (orthogonal, "ominus_autocorr_det", "orthogonal.ominus_det"),
    (orthogonal, "ominus_autocorr_eps", "orthogonal.ominus_eps"),
    (orthogonal, "orthogonal_contour", "orthogonal.contour"),
)

# Enumerators whose yielded items are counted as symcore.enumerated.terms,
# by every module that looks them up.
ENUMERATORS = (
    ((symcore, symplectic, orthogonal), "enumerate_even_partitions"),
    ((symcore, orthogonal), "enumerate_so_index_sets"),
    ((symcore, unitary, contour), "enumerate_split_permutations"),
    ((symplectic, orthogonal), "parity_index_vectors"),
    ((orthogonal,), "_odd_partitions_exact"),
)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op_id = -1
        self._stack: list[int] = []
        self._next_id = 0
        self._saved: list[tuple] = []

    # -- spans ---------------------------------------------------------------

    def span(self, name: str, fn, count=None):
        """`fn` wrapped in a span; `count(args, kwargs, result)` may add counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                self._stack.pop()
                self.spans.append((sid, parent, self.op_id, name, start, end))
            if count is not None:
                count(args, kwargs, result)
            return result

        return wrapper

    def counting(self, key: str, gen_fn):
        @functools.wraps(gen_fn)
        def wrapper(*args, **kwargs):
            for item in gen_fn(*args, **kwargs):
                self.counts[key] += 1
                yield item

        return wrapper

    def root(self, op_id: int, fn, *args):
        """Run one operation under its root span."""
        self.op_id = op_id
        return self.span("bench.op", fn)(*args)

    # -- installation --------------------------------------------------------

    def _patch(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _patch_everywhere(self, modules, attr: str, make) -> None:
        original = getattr(modules[0], attr)
        wrapped = make(original)
        for mod in modules:
            if getattr(mod, attr) is original:
                self._patch(mod, attr, wrapped)

    @contextlib.contextmanager
    def installed(self):
        try:
            self._install()
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()

    def _install(self) -> None:
        counts = self.counts

        for mod, attr, name in ROUTES:
            self._patch(mod, attr, self.span(name, getattr(mod, attr)))

        for modules, attr in ENUMERATORS:
            self._patch_everywhere(modules, attr,
                                   lambda f: self.counting("symcore.enumerated.terms", f))
        self._patch_everywhere((symcore, unitary, symplectic, orthogonal), "schur_stable",
                               lambda f: self.span("symcore.schur_stable", f))
        self._patch(symcore, "complete_homogeneous",
                    self.span("symcore.complete_homogeneous", symcore.complete_homogeneous))

        def det_dims(args, _kw, _res):
            counts["precision.det.rows"] += len(args[1])

        def fsum_count(args, _kw, _res):
            counts["precision.fsum.terms"] += len(args[0])

        def listed(fn):
            # the term count needs a sized argument; fsum consumes it either way
            return lambda terms: fn(list(terms))

        self._patch(DoubleOps, "det", classmethod(
            self.span("precision.det.double", DoubleOps.__dict__["det"].__func__, det_dims)))
        self._patch(ExtendedOps, "det",
                    self.span("precision.det.extended", ExtendedOps.__dict__["det"], det_dims))
        for cls in (DoubleOps, ExtendedOps):
            inner = self.span("precision.fsum", cls.__dict__["fsum"].__func__, fsum_count)
            self._patch(cls, "fsum", staticmethod(listed(inner)))

        def last_s() -> float:
            # called right after a span closes: that span is the current call's
            _sid, _parent, _op, _name, start, end = self.spans[-1]
            return (end - start) * 1e-9

        def sampled(args, _kw, _res):
            counts["haar.samples"] += args[2]
            counts[f"haar.{args[0].family}.sample.s"] += last_s()

        def eigensolved(args, _kw, _res):
            counts[f"haar.{args[0].family}.eig.s"] += last_s()

        self._patch(haar, "sample_matrix_batch",
                    self.span("haar.sample", haar.sample_matrix_batch, sampled))
        self._patch(haar, "eigenangles_of",
                    self.span("haar.eig", haar.eigenangles_of, eigensolved))

        factory = haar.autocorr_integrand
        self._patch(haar, "autocorr_integrand",
                    lambda *a, **kw: self.span("haar.integrand", factory(*a, **kw)))

        def quad_points(args, kwargs, _res):
            spec = args[0]
            nodes = kwargs.get("nodes_per_dim", args[2] if len(args) > 2 else 64)
            counts["haar.quadrature.points"] += nodes ** spec.free_angles

        self._patch(haar, "quadrature_average",
                    self.span("haar.quadrature", haar.quadrature_average, quad_points))
        for attr in ("weyl_autocorrelation", "monte_carlo_average"):
            self._patch(haar, attr, self.span(f"haar.{attr}", getattr(haar, attr)))

        original_integral = contour.circular_integral
        scalar = self.span("contour.scalar", original_integral)
        vector = self.span("contour.vectorized", original_integral)

        def circular_integral(dim, integrand, cfg=None, enclosed_points=(), vectorized=False):
            nodes = (cfg or contour.DEFAULT_CONTOUR).nodes_per_dim
            kind = "vectorized" if vectorized else "scalar"
            counts[f"contour.{kind}.points"] += nodes ** dim
            return (vector if vectorized else scalar)(dim, integrand, cfg, enclosed_points,
                                                      vectorized)

        self._patch_everywhere((contour, unitary, symplectic, orthogonal), "circular_integral",
                               lambda _f: circular_integral)
        for attr in ("lemma_unitary_check", "lemma_sym_check"):
            self._patch(contour, attr, self.span(f"contour.{attr}", getattr(contour, attr)))

        def suite(args, kwargs, report):
            prec = args[2] if len(args) > 2 else kwargs.get("prec")
            mode = "double" if prec is None or prec.is_double else "extended"
            counts[f"identities.trials.{mode}"] += report.trials
            key = f"identities.worst_residual.{mode}"
            counts[key] = max(counts[key], report.worst())
            counts[f"identities.{mode}.s"] += last_s()

        self._patch(identities, "run_identity_suite",
                    self.span("identities.run_identity_suite", identities.run_identity_suite,
                              suite))

    # -- aggregation ---------------------------------------------------------

    def self_times(self) -> list[tuple[tuple, int]]:
        """(span, self ns) for every span: its duration minus its children's."""
        covered: dict[int, int] = defaultdict(int)
        for sid, parent, _op, _name, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return [(s, (s[5] - s[4]) - covered[s[0]]) for s in self.spans]

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_ns\tend_ns\n")
            for span in self.spans:
                fh.write("\t".join(map(str, span)) + "\n")


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer counters, span totals and self times of one traced run."""
    calls: dict[str, int] = defaultdict(int)
    seconds: dict[str, float] = defaultdict(float)
    self_s = {layer: 0.0 for layer in LAYERS}
    for span, own in tracer.self_times():
        name = span[3]
        calls[name] += 1
        seconds[name] += (span[5] - span[4]) * 1e-9
        self_s[name.split(".")[0]] += own * 1e-9

    c = tracer.counts
    out: dict[str, float] = {}
    for name in ("symcore.schur_stable", "symcore.complete_homogeneous", "precision.det.double",
                 "precision.det.extended", "precision.fsum", "haar.quadrature",
                 "contour.scalar", "contour.vectorized"):
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    for _mod, _attr, name in ROUTES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = seconds[name]
    dets = calls["precision.det.double"] + calls["precision.det.extended"]
    out["precision.det.mean_dim"] = c["precision.det.rows"] / dets if dets else 0.0
    for key in ("symcore.enumerated.terms", "precision.fsum.terms", "haar.samples",
                "haar.quadrature.points", "contour.scalar.points", "contour.vectorized.points",
                "identities.trials.double", "identities.trials.extended",
                "identities.double.s", "identities.extended.s",
                "identities.worst_residual.double", "identities.worst_residual.extended"):
        out[key] = c[key]
    for phase in ("sample", "eig", "integrand"):
        out[f"haar.{phase}.s"] = seconds[f"haar.{phase}"]
    mc = out["haar.sample.s"] + out["haar.eig.s"] + out["haar.integrand.s"]
    out["haar.eig.share"] = out["haar.eig.s"] / mc if mc else 0.0
    for family in ("unitary", "symplectic", "so", "ominus"):
        for phase in ("sample", "eig"):
            key = f"haar.{family}.{phase}.s"
            out[key] = c[key]
    for layer, value in self_s.items():
        out[f"{layer}.self_s"] = value
    out["trace.spans"] = len(tracer.spans)
    out["trace.op_s"] = seconds["bench.op"]
    return out
