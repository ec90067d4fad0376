"""Per-layer tracing of localp12 from outside the package.

`Tracer.install` wraps the public functions and methods of each layer and
patches every wrapper into each namespace that holds the original: the
class dict (including aliases such as `__rmul__ = __mul__`) or every
`localp12.*` module that imported the function.  `uninstall` puts every
original back.  Nothing under src/ is edited.

Each wrapped call is a span.  A layer's self time is its span's duration
minus the time of the spans it directly contains.  A call made while the
innermost open span belongs to the same metric (a `Cyclo.__sub__` that
adds, a `RatFun.__truediv__` that multiplies) is folded into that span, so
`.calls` counts outermost operations of a metric.  Leaf layers are only
aggregated; builder and CLI spans are also kept, with their parent, so the
trace file shows which request caused which build.
"""

import functools
import importlib
import sys
from time import perf_counter

#: metric -> (module, attribute paths).  Order is leaf layer first.
LAYERS = (
    ("cyclotomic.mul", "localp12.cyclotomic", ("Cyclo.__mul__",)),
    ("cyclotomic.add", "localp12.cyclotomic", ("Cyclo.__add__", "Cyclo.__sub__", "Cyclo.__rsub__")),
    ("cyclotomic.inv", "localp12.cyclotomic", ("Cyclo.inv",)),
    ("ratfun.canon", "localp12.ratfun", ("RatFun.__init__",)),
    ("ratfun.gcd", "localp12.ratfun", ("poly_gcd",)),
    ("ratfun.arith", "localp12.ratfun", (
        "RatFun.__add__", "RatFun.__sub__", "RatFun.__rsub__", "RatFun.__mul__",
        "RatFun.__truediv__", "RatFun.__rtruediv__", "RatFun.__neg__",
        "RatFun.__pow__", "RatFun.inv")),
    ("ratfun.poly2_mul", "localp12.ratfun", ("Poly2.__mul__",)),
    ("mpseries.mul", "localp12.mpseries", ("Series.__mul__",)),
    ("mpseries.substitute", "localp12.mpseries", ("Series.substitute",)),
    ("mpseries.elementary", "localp12.mpseries", ("exp", "sin", "cos", "tan", "inverse")),
    ("mpseries.to_json", "localp12.mpseries", ("Series.to_json",)),
    ("localization.degree0_sum", "localp12.localization", ("degree0_fixed_point_sum",)),
    ("localization.suites", "localp12.localization", ("degree0_suite", "resummation_suite", "assembly_suite")),
    ("potentials.classical_part", "localp12.potentials", ("classical_part",)),
    ("potentials.potential", "localp12.potentials", ("potential",)),
    ("potentials.extended_potential", "localp12.potentials", ("extended_potential",)),
    ("pcrc.bracket", "localp12.pcrc", ("verify_bracket_identity",)),
    ("pcrc.residual", "localp12.pcrc", ("verify_residual_thirdderiv",)),
    ("pcrc.corollary", "localp12.pcrc", ("corollary_suite",)),
    ("cli.main", "localp12.cli", ("main",)),
)

#: metrics with a few calls per request, whose spans are kept; the others
#: run up to millions of times a round and are only aggregated
KEPT = {
    "localization.suites", "potentials.classical_part", "potentials.potential",
    "potentials.extended_potential", "pcrc.bracket", "pcrc.residual", "pcrc.corollary",
    "cli.main",
}


def _gcd_nontrivial(result):
    return any(e != (0, 0) for e, _ in result.terms())


def _term_count(result):
    return len(result.terms())


#: extra counters: metric -> (counter name, function of the call's result)
COUNTERS = {
    "ratfun.gcd": ("ratfun.gcd.nontrivial", _gcd_nontrivial),
    "mpseries.mul": ("mpseries.mul.terms", _term_count),
}


class Tracer:
    def __init__(self):
        self.calls = {m: 0 for m, _, _ in LAYERS}
        self.self_s = {m: 0.0 for m, _, _ in LAYERS}
        self.counts = {name: 0 for name, _ in COUNTERS.values()}
        self.spans = []
        self.request = None
        self._stack = []
        self._patches = []

    # -- patching ---------------------------------------------------------

    def install(self):
        modules = [m for name, m in sorted(sys.modules.items())
                   if name == "localp12" or name.startswith("localp12.")]
        try:
            for metric, modname, paths in LAYERS:
                module = importlib.import_module(modname)
                for path in paths:
                    self._patch(metric, module, path, modules)
        except BaseException:
            self.uninstall()
            raise

    def _patch(self, metric, module, path, modules):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            homes = [owner]
        else:
            original = getattr(module, attr)
            homes = modules
        wrapper = self._wrap(metric, original)
        for home in homes:
            for name, value in list(vars(home).items()):
                if value is original:
                    self._patches.append((home, name, original))
                    setattr(home, name, wrapper)

    def uninstall(self):
        while self._patches:
            home, name, original = self._patches.pop()
            setattr(home, name, original)

    # -- spans --------------------------------------------------------------

    def _wrap(self, metric, fn):
        stack = self._stack
        calls, self_s = self.calls, self.self_s
        counter = COUNTERS.get(metric)
        kept = metric in KEPT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] == metric:
                return fn(*args, **kwargs)
            frame = [metric, 0.0, None]
            if kept:
                frame[2] = len(self.spans)
                parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                self.spans.append([metric, self.request, parent, perf_counter(), None])
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                span = t1 - t0
                calls[metric] += 1
                self_s[metric] += span - frame[1]
                if stack:
                    stack[-1][1] += span
                if kept:
                    self.spans[frame[2]][4] = t1
            if counter is not None:
                self.counts[counter[0]] += counter[1](result)
            return result

        return wrapper

    def table(self):
        """Flat {metric: value} of every per-layer number, totals over the run."""
        out = {}
        for metric, _, _ in LAYERS:
            out[metric + ".calls"] = self.calls[metric]
            out[metric + ".self_s"] = self.self_s[metric]
        out.update(self.counts)
        return out

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False
