"""Per-layer tracing of fpmod from outside the package.

A Tracer replaces each layer's public functions with timing wrappers for
the duration of a ``with`` block and puts the originals back on exit.  A
function is re-bound in every loaded ``fpmod`` module that holds it, since
``from .normal_forms import snf`` copies the binding into the importing
module; methods are patched on their class, and the harness suites are
patched in ``harness.SUITES``.

Spans are kept in memory as parallel arrays.  Each span has an outer
interval, which includes the wrapper's own book-keeping, and an inner
interval around the wrapped call.  A span's self time is its inner
duration minus the outer durations of its direct children, so wrapper
cost is charged to no layer, and a recursive call (``solve_linear`` over
Z/n calls itself) is just another child span.
"""

import importlib
import sys
import time
from array import array

LAYERS = (
    ("normal_forms", ("snf", "hnf", "solve_linear", "kernel_matrix", "is_unimodular")),
    ("matrix", ("Mat.mul", "Mat.kron")),
    (
        "fpmodule",
        ("FpModule.invariants", "kernel", "cokernel", "mor_eq", "mk_morphism", "present_submodule"),
    ),
    (
        "homtensor",
        ("hom_module", "HomModule.decode", "tensor", "base_change", "is_flat", "is_projective"),
    ),
    (
        "purity",
        (
            "solve_factor",
            "solve_section",
            "find_retraction",
            "dominates",
            "is_universally_injective",
            "purity_descends",
        ),
    ),
    ("pushout", ("pushout", "pushout_induced", "pushout_base_change_check")),
    ("limits", ("tower_ml_check", "enlarge_to_free")),
    ("devissage", ("summand_devissage", "validate_decomposition")),
    ("descent", ("check_projectivity_descent", "projchar_check")),
    ("jsonio", ("load_input", "dumps")),
)

SNF = "normal_forms.snf"
SNF_INT = "normal_forms.snf.int"
SNF_GENERIC = "normal_forms.snf.generic"
SOLVE_LINEAR = "normal_forms.solve_linear"
SOLVE_FACTOR = "purity.solve_factor"
INVARIANTS = "fpmodule.FpModule.invariants"
GEN, CHECK, SHRINK = "harness.gen", "harness.check", "harness.shrink"


def layer_names():
    """Every traced span name, in the repository's module order."""
    out = [f"{mod}.{fn}" for mod, fns in LAYERS for fn in fns]
    return out + [GEN, CHECK, SHRINK]


def per_layer_metric_units():
    """(name, unit) of every per-layer metric the traced run reports."""
    out = []
    for name in layer_names():
        if name in (GEN, CHECK):
            out.append((f"{name}.self_s", "s"))
        elif name == SHRINK:
            out.append((f"{name}.calls", "count"))
        else:
            out += [(f"{name}.calls", "count"), (f"{name}.self_s", "s")]
    out += [
        (f"{SNF}.peak_bits_UV", "bits"),
        (f"{SNF}.peak_bits_D", "bits"),
        (f"{SNF}.max_cells", "cells"),
        (f"{SNF}.distinct_frac", "frac"),
        (f"{SNF_INT}.self_s", "s"),
        (f"{SNF_GENERIC}.self_s", "s"),
        (f"{SNF}.under_solve_factor.self_s", "s"),
        (f"{INVARIANTS}.cache_hit_frac", "frac"),
        (f"{SOLVE_FACTOR}.max_cells", "cells"),
        (f"{GEN}.peak_bits", "bits"),
        ("trace.wall_s", "s"),
        ("trace.throughput_delta_per_s", "1/s"),
    ]
    return out


def entry_bits(e):
    """Bit length of a ring element: int, Fraction or Gaussian (re, im)."""
    if isinstance(e, int):
        return abs(e).bit_length()
    if isinstance(e, tuple):
        return max(abs(e[0]).bit_length(), abs(e[1]).bit_length())
    return max(abs(e.numerator).bit_length(), e.denominator.bit_length())


def max_bits(entries):
    return max((entry_bits(e) for e in entries), default=0)


def rows_bits(rows):
    """Largest bit length in a list of integer rows."""
    return max((abs(e).bit_length() for row in rows for e in row), default=0)


class Tracer:
    """Wraps fpmod's layer functions and records one span per call."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.instance = array("i")
        self.outer0 = array("d")
        self.inner0 = array("d")
        self.inner1 = array("d")
        self.outer1 = array("d")
        self.cells = array("q")
        self._stack = []
        self._patches = []
        self.current_instance = -1
        self.snf_peak_uv = 0
        self.snf_peak_d = 0
        self.snf_max_cells = 0
        self.snf_inputs = set()  # hashes of this pass's SNF inputs
        self.snf_distinct = 0  # distinct SNF inputs of the finished passes
        self.gen_peak_bits = 0
        self.per_instance = {}  # instance id -> [cells, (rows, cols), peak bits]

    def new_pass(self):
        """Start a pass: repeats of an input across passes are not reuse."""
        self.snf_distinct += len(self.snf_inputs)
        self.snf_inputs.clear()

    # ---- span recording --------------------------------------------------

    def _id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name, fn, before=None, after=None):
        """A wrapper recording a span named `name` around each call of fn.

        before(args) -> (span name id, cells, state) runs before the call;
        after(args, result, state) runs after it; both are outside the
        span's inner interval.
        """
        nid = self._id(name)
        clock = time.perf_counter
        stack = self._stack
        names, parents, insts = self.name, self.parent, self.instance
        o0s, i0s, i1s, o1s, cells = self.outer0, self.inner0, self.inner1, self.outer1, self.cells

        def wrapper(*args, **kwargs):
            o0 = clock()
            sid, ncells, state = before(args) if before else (nid, 0, None)
            idx = len(names)
            names.append(sid)
            parents.append(stack[-1] if stack else -1)
            insts.append(self.current_instance)
            cells.append(ncells)
            o0s.append(o0)
            i0s.append(0.0)
            i1s.append(0.0)
            o1s.append(0.0)
            stack.append(idx)
            i0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                i1 = clock()
                stack.pop()
                i0s[idx] = i0
                i1s[idx] = i1
                o1s[idx] = i1
            if after:
                after(args, result, state)
                o1s[idx] = clock()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.perfbench_span = name
        return wrapper

    # ---- per-layer hooks -------------------------------------------------

    def _snf_before(self, args):
        A = args[0]
        name = SNF_INT if A.ring.kind == "Integers" else SNF_GENERIC
        ncells = A.rows * A.cols
        self.snf_inputs.add(hash((A.ring, A.rows, A.cols, A.entries)))
        return self._ids[name], ncells, (A.rows, A.cols)

    def _snf_after(self, args, sf, shape):
        uv = max(max_bits(sf.U.entries), max_bits(sf.V.entries))
        d = max_bits(sf.D.entries)
        self.snf_peak_uv = max(self.snf_peak_uv, uv)
        self.snf_peak_d = max(self.snf_peak_d, d)
        cells = shape[0] * shape[1]
        self.snf_max_cells = max(self.snf_max_cells, cells)
        rec = self.per_instance.setdefault(self.current_instance, [0, (0, 0), 0])
        if cells > rec[0]:
            rec[0], rec[1] = cells, shape
        rec[2] = max(rec[2], uv, d)

    def _cells_before(self, name):
        nid = self._id(name)
        return lambda args: (nid, args[0].rows * args[0].cols, None)

    def _gen_after(self, args, inst, state):
        bits = max((rows_bits(rows) for rows in inst["mats"].values()), default=0)
        self.gen_peak_bits = max(self.gen_peak_bits, bits)

    # ---- patching --------------------------------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        self._id(SNF_INT)
        self._id(SNF_GENERIC)
        mods = {name: importlib.import_module(f"fpmod.{name}") for name, _ in LAYERS}
        harness = importlib.import_module("fpmod.harness")
        loaded = [m for k, m in sorted(sys.modules.items()) if k == "fpmod" or k.startswith("fpmod.")]
        for modname, fns in LAYERS:
            mod = mods[modname]
            for fname in fns:
                name = f"{modname}.{fname}"
                before = after = None
                if name == SNF:
                    before, after = self._snf_before, self._snf_after
                elif name == SOLVE_LINEAR:
                    before = self._cells_before(name)
                if "." in fname:
                    cls_name, meth = fname.split(".")
                    cls = getattr(mod, cls_name)
                    self._set(cls, meth, self.wrap(name, cls.__dict__[meth], before, after))
                    continue
                original = getattr(mod, fname)
                wrapper = self.wrap(name, original, before, after)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            self._set(m, attr, wrapper)
        for suite, pair in list(harness.SUITES.items()):
            self._patches.append((harness.SUITES, suite, pair))
            gen, check = pair
            harness.SUITES[suite] = (
                self.wrap(GEN, gen, after=self._gen_after),
                self.wrap(CHECK, check),
            )
        self._set(harness, "shrink", self.wrap(SHRINK, harness.shrink))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()
        return False

    # ---- aggregation -----------------------------------------------------

    def self_times(self):
        """Self time of every span, in recording order."""
        n = len(self.name)
        cover = [0.0] * n
        parent, o0, o1 = self.parent, self.outer0, self.outer1
        for j in range(n):
            p = parent[j]
            if p >= 0:
                cover[p] += o1[j] - o0[j]
        i0, i1 = self.inner0, self.inner1
        return [i1[j] - i0[j] - cover[j] for j in range(n)]

    def summary(self):
        """Per-layer metric values (without trace.* entries)."""
        n = len(self.name)
        selfs = self.self_times()
        ids = self._ids
        calls = [0] * len(self.names)
        secs = [0.0] * len(self.names)
        for j in range(n):
            calls[self.name[j]] += 1
            secs[self.name[j]] += selfs[j]

        def get(name):
            i = ids.get(name)
            return (0, 0.0) if i is None else (calls[i], secs[i])

        int_calls, int_s = get(SNF_INT)
        gen_calls, gen_s = get(SNF_GENERIC)
        out = {}
        for name in layer_names():
            c, s = (int_calls + gen_calls, int_s + gen_s) if name == SNF else get(name)
            if name not in (GEN, CHECK):
                out[f"{name}.calls"] = c
            if name != SHRINK:
                out[f"{name}.self_s"] = s
        snf_ids = {ids[SNF_INT], ids[SNF_GENERIC]}
        sf_id = ids.get(SOLVE_FACTOR, -2)
        inv_id = ids.get(INVARIANTS, -2)
        sl_id = ids.get(SOLVE_LINEAR, -2)
        has_child = [False] * n
        under_sf = [False] * n
        sf_cells = 0
        under_sf_s = 0.0
        for j in range(n):
            p = self.parent[j]
            if p >= 0:
                has_child[p] = True
                under_sf[j] = under_sf[p] or self.name[p] == sf_id
                if self.name[p] == sf_id and self.name[j] == sl_id:
                    sf_cells = max(sf_cells, self.cells[j])
            if under_sf[j] and self.name[j] in snf_ids:
                under_sf_s += selfs[j]
        inv = [j for j in range(n) if self.name[j] == inv_id]
        hits = sum(1 for j in inv if not has_child[j])
        snf_calls = int_calls + gen_calls
        distinct = self.snf_distinct + len(self.snf_inputs)
        out.update(
            {
                f"{SNF}.peak_bits_UV": self.snf_peak_uv,
                f"{SNF}.peak_bits_D": self.snf_peak_d,
                f"{SNF}.max_cells": self.snf_max_cells,
                f"{SNF}.distinct_frac": distinct / snf_calls if snf_calls else 0.0,
                f"{SNF_INT}.self_s": int_s,
                f"{SNF_GENERIC}.self_s": gen_s,
                f"{SNF}.under_solve_factor.self_s": under_sf_s,
                f"{INVARIANTS}.cache_hit_frac": hits / len(inv) if inv else 0.0,
                f"{SOLVE_FACTOR}.max_cells": sf_cells,
                f"{GEN}.peak_bits": self.gen_peak_bits,
            }
        )
        return out

    def write_spans(self, fh):
        """Write every span to a text file as a tab-separated line."""
        selfs = self.self_times()
        fh.write("span\tparent\tinstance\tname\tstart_s\tduration_s\tself_s\tcells\n")
        base = self.outer0[0] if len(self.outer0) else 0.0
        for j in range(len(self.name)):
            fh.write(
                f"{j}\t{self.parent[j]}\t{self.instance[j]}\t{self.names[self.name[j]]}\t"
                f"{self.inner0[j] - base:.9f}\t{self.inner1[j] - self.inner0[j]:.9f}\t"
                f"{selfs[j]:.9f}\t{self.cells[j]}\n"
            )
