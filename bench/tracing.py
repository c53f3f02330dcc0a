"""Per-layer tracing, installed from outside the program for the traced run.

``install`` wraps the public functions and methods of each alphafrac layer,
replacing every module attribute that refers to the original so that each
name is patched wherever it is looked up.  A wrapped call appends one span
(name, parent, start, end) to flat arrays kept in memory; ``save`` writes
them out when the run ends and ``layer_metrics`` derives the per-layer
figures.  Three frequent methods are counted instead of spanned.
"""

import json
import sys
import time
from array import array
from collections import Counter

# (module, attribute or Class.method, span name)
SPANS = (
    [("polyring", "Polynomial." + m, "polyring.mul")
     for m in ("__mul__", "__rmul__", "__truediv__")]
    + [("polyring", "Polynomial." + m, "polyring.addsub")
       for m in ("__add__", "__radd__", "__sub__", "__rsub__", "__neg__")]
    + [("polyring", "Polynomial." + m, "polyring.divmod")
       for m in ("__divmod__", "__floordiv__", "__mod__")]
    + [("polyring", "Polynomial.synthetic_div", "polyring.synthetic_div"),
       ("polyring", "Polynomial.__call__", "polyring.eval"),
       ("polyring", "poly_sqrt", "polyring.poly_sqrt")]
    + [("expansion", f, "expansion." + f)
       for f in ("convergents", "expansion_to_triple", "admissible_decompose",
                 "build_transfer_matrix", "factorize_transfer_matrix",
                 "verify_expansion", "pure_expand", "expand",
                 "numeric_residual")]
    + [("symmetry", f, "symmetry." + f)
       for f in ("apply_sigma", "apply_eps_pi", "apply_word", "orbit")]
    + [("jacobi", f, "jacobi." + f)
       for f in ("jacobi_from_divisor", "divisor_from_jacobi",
                 "alpha_triple_from_jacobi", "jacobi_from_alpha_triple",
                 "pure_beta_candidates")]
    + [("serialize", f, "serialize.decode")
       for f in ("frac_from_json", "poly_from_json", "expansion_from_json",
                 "triple_from_json", "jacobi_from_json", "divisor_from_json")]
    + [("serialize", f, "serialize.encode")
       for f in ("frac_to_str", "poly_to_json", "expansion_to_json",
                 "triple_to_json", "jacobi_to_json", "divisor_to_json",
                 "orbit_to_json", "canonical_dumps")]
    + [("datasets", "example", "datasets.example"),
       ("cli", "main", "cli.main")]
)

COUNTS = [
    ("expansion", "AlphaSequence.__init__", "expansion.alpha_sequence.constructed"),
    ("expansion", "Expansion.key", "expansion.key.calls"),
    ("expansion", "AlphaSequence.vanishing_poly", "expansion.vanishing_poly.calls"),
]

# Per-layer metrics: name -> unit.  Timings are per operation of the
# workload, scaled like the end-to-end latencies (see worker.py).
SELF_MS = ["polyring." + p for p in ("mul", "addsub", "divmod", "synthetic_div",
                                     "poly_sqrt", "eval")] + [
    "expansion." + f for f in ("convergents", "expansion_to_triple",
                               "admissible_decompose", "build_transfer_matrix",
                               "factorize_transfer_matrix", "verify_expansion",
                               "pure_expand")] + [
    "symmetry.apply_sigma", "symmetry.apply_eps_pi", "symmetry.orbit"] + [
    "jacobi." + f for f in ("jacobi_from_divisor", "divisor_from_jacobi",
                            "alpha_triple_from_jacobi", "jacobi_from_alpha_triple",
                            "pure_beta_candidates")] + [
    "serialize.decode", "serialize.encode", "datasets.example"]
CALLS = ["polyring." + p for p in ("mul", "addsub", "divmod", "synthetic_div",
                                   "poly_sqrt", "eval")] + [
    "symmetry.apply_sigma", "symmetry.apply_eps_pi"]
METRICS = dict(
    [(n + ".self_ms", "ms/op") for n in SELF_MS]
    + [(n + ".calls", "count/op") for n in CALLS]
    + [(name, "count/op") for _, _, name in COUNTS]
    + [("polyring.self_ms", "ms/op"), ("polyring.max_coeff_bits", "bits"),
       ("symmetry.orbit.elements", "count/op"),
       ("symmetry.orbit.skipped_edges", "count/op"),
       ("symmetry.orbit.useful_edge_ratio", "ratio"),
       ("jacobi.divisor_from_jacobi.evals", "count/op"),
       ("jacobi.root_hit_ratio", "ratio"),
       ("cli.interpreter_start_ms", "ms/op"), ("cli.import_ms", "ms/op"),
       ("cli.main_ms", "ms/op")])

# Spans the CLI trace shim records by hand; reported as total durations.
CLI_PHASES = {"cli.interpreter_start": "cli.interpreter_start_ms",
              "cli.import": "cli.import_ms", "cli.main": "cli.main_ms"}


class Tracer:
    """The spans and counts of one process, in flat arrays."""

    def __init__(self):
        self.names = []
        self.ids = {}
        self.name = array("H")
        self.parent = array("l")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.counts = Counter()
        self.max_bits = 0
        self.unwrapped = []

    def _id(self, name):
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def record(self, name, start, end):
        """A span measured by hand, at the top level."""
        self.name.append(self._id(name))
        self.parent.append(-1)
        self.start.append(start)
        self.end.append(end)

    def span(self, name, fn, observe=None):
        nid = self._id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kw):
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kw)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe is not None:
                observe(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def count(self, name, fn):
        counts = self.counts

        def counted(*args, **kw):
            counts[name] += 1
            return fn(*args, **kw)

        counted.__wrapped__ = fn
        return counted

    # -- observers of results --

    def _bits(self, out):
        for p in out if isinstance(out, tuple) else (out,):
            if not hasattr(p, "coeff"):
                continue
            for k in range(p.degree + 1 if p else 0):
                c = p.coeff(k)
                b = max(c.numerator.bit_length(), c.denominator.bit_length())
                if b > self.max_bits:
                    self.max_bits = b

    def _orbit(self, out):
        self.counts["symmetry.orbit.elements"] += len(out.expansions)
        self.counts["symmetry.orbit.skipped_edges"] += len(out.skipped_edges)

    def _roots(self, out):
        self.counts["jacobi.roots_found"] += len(out)

    def install(self, package):
        """Wrap every name in SPANS and COUNTS inside the loaded package."""
        polys = {"polyring.mul", "polyring.divmod", "polyring.synthetic_div",
                 "polyring.poly_sqrt"}
        modules = [m for k, m in list(sys.modules.items())
                   if k == package.__name__ or k.startswith(package.__name__ + ".")]
        for module, attr, name in SPANS + COUNTS:
            mod = sys.modules.get("%s.%s" % (package.__name__, module))
            if mod is None:
                continue        # not loaded in this process
            owner, _, method = attr.rpartition(".")
            holder = getattr(mod, owner, None) if owner else mod
            orig = getattr(holder, method, None)
            if orig is None:
                self.unwrapped.append(name + ":" + attr)
                continue
            if (module, attr, name) in COUNTS:
                wrapped = self.count(name, orig)
            else:
                observe = (self._bits if name in polys else
                           self._orbit if name == "symmetry.orbit" else
                           self._roots if name == "jacobi.divisor_from_jacobi"
                           else None)
                wrapped = self.span(name, orig, observe)
            if owner:
                setattr(holder, method, wrapped)
                continue
            for m in modules:
                for k, v in list(vars(m).items()):
                    if v is orig:
                        setattr(m, k, wrapped)

    # -- storage --

    def save(self, path):
        header = {"names": self.names, "count": len(self.start),
                  "arrays": ["name:H", "parent:l", "start_ns:q", "end_ns:q"],
                  "counts": dict(self.counts), "max_bits": self.max_bits}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    def merge(self, path):
        """Append the spans another process saved; clocks are shared."""
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            n = header["count"]
            arrays = []
            for code in ("H", "l", "q", "q"):
                arr = array(code)
                arr.fromfile(fh, n)
                arrays.append(arr)
        ids = [self._id(name) for name in header["names"]]
        offset = len(self.start)
        self.name.extend(ids[i] for i in arrays[0])
        self.parent.extend(p + offset if p >= 0 else -1 for p in arrays[1])
        self.start.extend(arrays[2])
        self.end.extend(arrays[3])
        self.counts.update(header["counts"])
        self.max_bits = max(self.max_bits, header["max_bits"])

    # -- per-layer metrics --

    def layer_metrics(self, ops, ticks=()):
        """Per-layer figures from the spans, given the timed operations.

        ``ops`` holds (start_ns, end_ns, busy_ns, scale) per operation; a
        span's time is multiplied by the scale of the operation during which
        it started.  ``ticks`` are (start_ns, end_ns) of the reference loop
        run on SIGALRM; each is taken off the self time of the innermost
        span it interrupted.
        """
        n = len(self.start)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        child = [0] * n
        tick = [0] * n
        under_dfj = bytearray(n)
        calls = [0] * len(self.names)
        self_ns = [0.0] * len(self.names)
        total_ns = [0.0] * len(self.names)
        dfj = self.ids.get("jacobi.divisor_from_jacobi", -1)
        ev = self.ids.get("polyring.eval", -1)
        orbit = self.ids.get("symmetry.orbit", -1)
        gens = {self.ids.get("symmetry.apply_sigma", -1),
                self.ids.get("symmetry.apply_eps_pi", -1)}
        dfj_evals = edges = 0
        open_spans, k = [], 0
        for i in range(n + 1):
            s = starts[i] if i < n else float("inf")
            while k < len(ticks) and ticks[k][0] < s:
                while open_spans and ends[open_spans[-1]] < ticks[k][0]:
                    open_spans.pop()
                if open_spans:
                    tick[open_spans[-1]] += ticks[k][1] - ticks[k][0]
                k += 1
            if i == n:
                break
            while open_spans and ends[open_spans[-1]] <= s:
                open_spans.pop()
            open_spans.append(i)
            nid, p = names[i], parents[i]
            calls[nid] += 1
            if p >= 0:
                child[p] += ends[i] - s
                under_dfj[i] = under_dfj[p]
                if nid in gens and names[p] == orbit:
                    edges += 1
            if nid == dfj:
                under_dfj[i] = 1
            elif nid == ev and under_dfj[i]:
                dfj_evals += 1
        bounds = sorted(ops)
        j = 0
        for i in range(n):
            while j + 1 < len(bounds) and bounds[j + 1][0] <= starts[i]:
                j += 1
            scale = bounds[j][3] if bounds else 1.0
            dur = ends[i] - starts[i]
            self_ns[names[i]] += (dur - child[i] - tick[i]) * scale
            total_ns[names[i]] += dur * scale
        n_ops = max(1, len(ops))
        by_name = {name: (calls[i], self_ns[i] / 1e6)
                   for i, name in enumerate(self.names)}
        out = {}
        for name in SELF_MS:
            out[name + ".self_ms"] = by_name.get(name, (0, 0.0))[1] / n_ops
        for name in CALLS:
            out[name + ".calls"] = by_name.get(name, (0, 0.0))[0] / n_ops
        for _, _, name in COUNTS:
            out[name] = self.counts[name] / n_ops
        out["polyring.self_ms"] = sum(
            ms for name, (_, ms) in by_name.items()
            if name.startswith("polyring.")) / n_ops
        out["polyring.max_coeff_bits"] = self.max_bits
        orbits = by_name.get("symmetry.orbit", (0, 0.0))[0]
        elements = self.counts["symmetry.orbit.elements"]
        out["symmetry.orbit.elements"] = elements / n_ops
        out["symmetry.orbit.skipped_edges"] = \
            self.counts["symmetry.orbit.skipped_edges"] / n_ops
        out["symmetry.orbit.useful_edge_ratio"] = \
            (elements - orbits) / edges if edges else 0.0
        out["jacobi.divisor_from_jacobi.evals"] = dfj_evals / n_ops
        out["jacobi.root_hit_ratio"] = \
            self.counts["jacobi.roots_found"] / dfj_evals if dfj_evals else 0.0
        for span, metric in CLI_PHASES.items():
            nid = self.ids.get(span)
            out[metric] = (total_ns[nid] if nid is not None else 0.0) / 1e6 / n_ops
        return out
