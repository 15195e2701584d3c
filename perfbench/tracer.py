"""Outside-in span tracer for the phasefeas benchmark.

The tracer wraps public functions of the package from outside: each wrapper
records one span (name, start, end, parent span, op id) in memory and the
spans are written out when the run ends.  A function is replaced in every
namespace that binds it -- its defining module, the ``from .x import``
bindings of the modules that call it, and the ``phasefeas`` package
re-exports -- so calls made through any of them are seen.  Nothing in the
package source changes.
"""

import functools
import gzip
import sys
import time

PACKAGE = "phasefeas"


def lifted_counts(e, X, *args, **kwargs):
    """Computed work of one ``apply_lifted`` call, from (n, m) and the field.

    flops: m (2 n^2 + 2 n) real, m (8 n^2 + 8 n) complex (X z_i, then the
    inner product with z_i; a complex multiply-add is 8 real flops).
    bytes: w (m n + n^2) + 8 m, one read of Z and X and one write of the
    real result, w = 8 (real) or 16 (complex) bytes per entry.
    """
    n, m = e.n, e.m
    cplx = e.field == "complex"
    flops = m * (2 * n * n + 2 * n) * (4 if cplx else 1)
    nbytes = (16 if cplx else 8) * (m * n + n * n) + 8 * m
    return flops, nbytes


def eigh_counts(a, *args, **kwargs):
    """Computed work of one Hermitian eigendecomposition with vectors.

    flops: 9 n^3 real (symmetric QR with eigenvectors, Golub & Van Loan
    section 8.3), 36 n^3 complex.  bytes: 2 w n^2 + 8 n, read the matrix,
    write the eigenvectors and the real eigenvalues.
    """
    n = a.shape[-1]
    batch = a.size // (n * n) if n else 0
    cplx = a.dtype.kind == "c"
    flops = batch * 9 * n**3 * (4 if cplx else 1)
    nbytes = batch * ((16 if cplx else 8) * 2 * n * n + 8 * n)
    return flops, nbytes


class Tracer:
    """Span recorder; spans are (name index, start, end, parent slot, op id).

    Op id 0 marks spans outside any op.  A wrapper made with ``opens_op``
    starts a new op for its call, so its span is the op's root.
    """

    def __init__(self):
        self.names = []
        self.spans = []
        self.stack = []
        self.op = 0
        self.ops = 0
        self.work = {}        # name -> [flops, bytes] computed from argument sizes
        self.iterations = 0   # solver iterations, read from returned traces
        self.bindings = {}    # name -> namespaces patched
        self._restore = []

    def wrap(self, name, fn, opens_op=False, counts=None, on_return=None):
        index = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        work = self.work.setdefault(name, [0, 0]) if counts else None
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counts is not None:
                flops, nbytes = counts(*args, **kwargs)
                work[0] += flops
                work[1] += nbytes
            if opens_op:
                tracer.ops += 1
                tracer.op = tracer.ops
            slot = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(slot)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[slot] = (index, start, end, parent, tracer.op)
                if opens_op:
                    tracer.op = 0
            if on_return is not None:
                on_return(result)
            return result

        return wrapper

    def install(self, name, module, attr, **options):
        """Wrap ``module.attr`` in ``module`` and in every package namespace binding it."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, **options)
        namespaces = [module] + [
            mod for key, mod in list(sys.modules.items())
            if (key == PACKAGE or key.startswith(PACKAGE + ".")) and mod is not module
        ]
        count = 0
        for mod in namespaces:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    self._restore.append((mod, key, original))
                    count += 1
        self.bindings[name] = count
        return wrapper

    def uninstall(self):
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def count_solver_iterations(self, trace):
        self.iterations += trace.points[-1].iteration

    def self_times(self):
        """Per name: (calls, self seconds); self time excludes child spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for slot, (index, start, end, _, _) in enumerate(self.spans):
            calls, self_s = out.get(self.names[index], (0, 0.0))
            out[self.names[index]] = (calls + 1, self_s + (end - start) - child[slot])
        return out

    def coverage(self):
        """Share of op-root time spent inside traced child spans."""
        root_time = {}
        covered = 0.0
        for slot, (_, start, end, parent, op) in enumerate(self.spans):
            if op and (parent < 0 or self.spans[parent][4] != op):
                root_time[slot] = end - start
        for _, start, end, parent, _ in self.spans:
            if parent in root_time:
                covered += end - start
        total = sum(root_time.values())
        return covered / total if total > 0 else 0.0

    def write(self, path, header):
        """Spans as gzip CSV, times relative to the first span."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        with gzip.open(path, "wt") as fh:
            fh.write(f"# {header}\n")
            fh.write("slot,name,start_s,end_s,parent,op\n")
            for slot, (index, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{slot},{self.names[index]},{start - t0!r},{end - t0!r},{parent},{op}\n")
