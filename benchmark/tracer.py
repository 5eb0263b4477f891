"""Per-layer tracing of fpduality from outside the library.

The tracer rebinds the named functions in every loaded `fpduality.*`
namespace that holds them (the modules import one another with
`from .groebner import buchberger`), and patches methods on their classes.
`uninstall()` puts every original back.

A span records calls, total time and self time: its duration minus the
time covered by traced calls nested inside it.  The tracer's own
bookkeeping (content keys, sizes) runs outside the span and is charged to
no span.  Counters without spans (`PolyRing.__eq__`, `Polynomial.__mul__`)
cost one increment per call, which lands in the enclosing span's self time.
"""

import hashlib
import sys
import time
from collections import defaultdict

# (module, attribute, span label); methods are "Class.method"
SPANS = (
    ("polyring", "Polynomial.__pow__", "polyring.pow"),
    ("polyring", "RingMap.apply", "polyring.ringmap_apply"),
    ("groebner", "buchberger", "groebner.buchberger"),
    ("groebner", "division", "groebner.division"),
    ("groebner", "normal_form", "groebner.normal_form"),
    ("groebner", "ModuleGB.__init__", "groebner.ModuleGB"),
    ("groebner", "ModuleGB.reduce", "groebner.ModuleGB.reduce"),
    ("modules", "hom_module", "modules.hom_module"),
    ("modules", "tensor_module", "modules.tensor_module"),
    ("modules", "exterior_power", "modules.exterior_power"),
    ("modules", "kernel_cokernel", "modules.kernel_cokernel"),
    ("modules", "is_isomorphism", "modules.is_isomorphism"),
    ("complexes", "cohomology", "complexes.cohomology"),
    ("complexes", "mod_cohomology", "complexes.mod_cohomology"),
    ("complexes", "lift_map_of_resolutions", "complexes.lift_map_of_resolutions"),
    ("complexes", "resolution_complex", "complexes.resolution_complex"),
    ("complexes", "hom_complex", "complexes.hom_complex"),
    ("complexes", "solve_in_span", "complexes.solve_in_span"),
    ("frobenius", "frobenius_pushforward", "frobenius.frobenius_pushforward"),
    ("frobenius", "bracket_power", "frobenius.bracket_power"),
    ("frobenius", "frobenius_decompose", "frobenius.frobenius_decompose"),
    ("gabber", "gabber_truncation", "gabber.gabber_truncation"),
    ("gabber", "verify_kernel_bracket", "gabber.verify_kernel_bracket"),
    ("duality", "verify_frobenius_duality", "duality.verify_frobenius_duality"),
    ("duality", "canonical_dualizing", "duality.canonical_dualizing"),
    ("duality", "compare_presentations", "duality.compare_presentations"),
    ("duality", "ext_two_pipelines", "duality.ext_two_pipelines"),
    ("shriek", "verify_unit", "shriek.verify_unit"),
    ("shriek", "verify_symmetry", "shriek.verify_symmetry"),
    ("shriek", "verify_associativity", "shriek.verify_associativity"),
    ("session", "parse_session", "session.parse_session"),
    ("session", "execute", "session.execute"),
)

COUNTERS = (
    ("polyring", "PolyRing.__eq__", "polyring.ring_eq"),
    ("polyring", "Polynomial.__mul__", "polyring.mul"),
)

# module constructors whose outputs are measured: label -> result -> (ngens, nrels)
_MODULE_SIZES = {
    "modules.hom_module": lambda M: (M.ngens, len(M.relations)),
    "modules.tensor_module": lambda M: (M.ngens, len(M.relations)),
    "modules.exterior_power": lambda M: (M.ngens, len(M.relations)),
    "frobenius.frobenius_pushforward": lambda F: (F.module.ngens, len(F.module.relations)),
}


def _poly_key(f):
    return (f.ring.p, f.ring.variables, repr(f.ring.order), tuple(sorted(f.terms.items())))


def _vectors_key(vectors):
    return tuple(tuple(_poly_key(c) for c in v.components) for v in vectors)


class Tracer:
    def __init__(self):
        self._stack = []
        self._restore = []
        self.clear()

    def clear(self):
        """Forget everything recorded so far; the patches stay installed."""
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.sums = defaultdict(int)
        self._keys = defaultdict(set)

    # -- installation --------------------------------------------------------

    def install(self):
        import fpduality  # noqa: F401  (loads every submodule)

        for mod, attr, label in SPANS:
            self._patch(mod, attr, self._span(label))
        for mod, attr, label in COUNTERS:
            self._patch(mod, attr, self._counter(label))

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _patch(self, mod, attr, make_wrapper):
        module = sys.modules["fpduality." + mod]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, make_wrapper(original))
            return
        original = getattr(module, attr)
        wrapper = make_wrapper(original)
        for name, loaded in list(sys.modules.items()):
            if loaded is None or not (name == "fpduality" or name.startswith("fpduality.")):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    self._restore.append((loaded, key, original))
                    setattr(loaded, key, wrapper)

    # -- wrappers ------------------------------------------------------------

    def _counter(self, label):
        def make(fn):
            def counted(*args, **kwargs):
                self.calls[label] += 1
                return fn(*args, **kwargs)

            return counted

        return make

    def _span(self, label):
        clock = time.perf_counter
        stack = self._stack
        before = getattr(self, "_before_" + label.replace(".", "_"), None)
        after = getattr(self, "_after_" + label.replace(".", "_"), None)
        sizes = _MODULE_SIZES.get(label)

        def make(fn):
            def spanned(*args, **kwargs):
                t0 = clock()
                note = None
                if before:
                    note, args = before(args, kwargs)
                frame = [0.0]
                stack.append(frame)
                returned = False
                t1 = clock()
                try:
                    result = fn(*args, **kwargs)
                    returned = True
                finally:
                    t2 = clock()
                    stack.pop()
                    self.calls[label] += 1
                    self.total_s[label] += t2 - t1
                    self.self_s[label] += (t2 - t1) - frame[0]
                    if returned and after:
                        after(note, result)
                    if returned and sizes:
                        ngens, nrels = sizes(result)
                        self.sums[label + ".out_ngens"] += ngens
                        self.sums[label + ".out_nrels"] += nrels
                    if stack:
                        stack[-1][0] += clock() - t0
                return result

            return spanned

        return make

    def _repeat(self, label, key):
        seen = self._keys[label]
        key = hashlib.blake2b(repr(key).encode(), digest_size=16).digest()
        if key in seen:
            self.sums[label + ".repeats"] += 1
        else:
            seen.add(key)

    # before-hooks see (args, kwargs) and return (note, args); a sequence
    # argument is materialized so that a generator is not consumed twice

    def _before_groebner_buchberger(self, args, kwargs):
        vectors = list(args[0])
        self.sums["groebner.buchberger.in_gens"] += len(vectors)
        rest = [repr(a) for a in args[1:]] + sorted((k, repr(v)) for k, v in kwargs.items())
        self._repeat("groebner.buchberger", (_vectors_key(vectors), rest))
        return None, (vectors,) + args[1:]

    def _after_groebner_buchberger(self, note, basis):
        self.sums["groebner.buchberger.out_basis"] += len(basis)

    def _before_groebner_division(self, args, kwargs):
        # an S-pair reduction is a division called from the Buchberger loop
        # itself (the final tail reduction calls it from _reduced_basis)
        return sys._getframe(2).f_code.co_name == "buchberger", args

    def _after_groebner_division(self, from_pair, result):
        if from_pair:
            self.sums["groebner.division.spair"] += 1
            self.sums["groebner.division.spair_zero"] += result[1].is_zero()

    def _before_groebner_ModuleGB(self, args, kwargs):
        mgb, ring, rank, generators = args[:4]
        generators = list(generators)
        self.sums["groebner.ModuleGB.gens"] += len(generators)
        self.sums["groebner.ModuleGB.rank"] += rank
        rest = [repr(a) for a in args[4:]] + sorted((k, repr(v)) for k, v in kwargs.items())
        self._repeat("groebner.ModuleGB", (ring.p, ring.variables, rank, _vectors_key(generators), rest))
        return None, (mgb, ring, rank, generators) + args[4:]

    # -- results -------------------------------------------------------------

    def metrics(self):
        """The per-layer metrics of this tracer's pass, by name."""
        calls, sums = self.calls, self.sums

        def ratio(a, b):
            return sums[a] / calls[b] if calls[b] else 0.0

        out = {}
        for label in ("polyring.ring_eq", "polyring.mul"):
            out[label + ".calls"] = calls[label]
        for _mod, _attr, label in SPANS:
            name = "groebner.ModuleGB.builds" if label == "groebner.ModuleGB" else label + ".calls"
            out[name] = calls[label]
            out[label + ".self_s"] = self.self_s[label]
        out["groebner.normal_form.total_s"] = self.total_s["groebner.normal_form"]
        out["groebner.buchberger.repeat_frac"] = ratio("groebner.buchberger.repeats", "groebner.buchberger")
        out["groebner.buchberger.in_gens_mean"] = ratio("groebner.buchberger.in_gens", "groebner.buchberger")
        out["groebner.buchberger.out_basis_mean"] = ratio("groebner.buchberger.out_basis", "groebner.buchberger")
        spairs = sums["groebner.division.spair"]
        out["groebner.division.zero_rem_frac"] = sums["groebner.division.spair_zero"] / spairs if spairs else 0.0
        out["groebner.ModuleGB.repeat_frac"] = ratio("groebner.ModuleGB.repeats", "groebner.ModuleGB")
        out["groebner.ModuleGB.gens_mean"] = ratio("groebner.ModuleGB.gens", "groebner.ModuleGB")
        out["groebner.ModuleGB.rank_mean"] = ratio("groebner.ModuleGB.rank", "groebner.ModuleGB")
        for label in _MODULE_SIZES:
            out[label + ".out_ngens_mean"] = ratio(label + ".out_ngens", label)
            out[label + ".out_nrels_mean"] = ratio(label + ".out_nrels", label)
        return out
