"""Span tracing of ringres layers, installed from outside the package.

`Tracer.install` replaces every binding of the wrapped originals: module
attributes in every ringres module (the package re-exports names and the
modules import each other with `from .poly import divrem`, so each namespace
holds its own binding) and the class attributes of the wrapped methods.
`restore` puts every original back.  `check_untraced` proves, before a timed
run, that no wrapper is left anywhere.

Each call becomes one span (name, parent, start, end) in flat arrays; spans
stay in memory and are summarised, and optionally saved, once at the end.
Self time is a span's duration minus its children's durations; the program is
single-threaded, so children never overlap.  Zmod.add/mul/sub are not wrapped:
they run ~10^7 times a pass, and their cost shows as the self time of the
poly span that calls them.
"""
from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

MODULES = ("ringres", "ringres.ring", "ringres.poly", "ringres.resultant",
           "ringres.bivariate", "ringres.padic", "ringres.numberfield",
           "ringres.linalg", "ringres.cli")

# span name -> layer metric prefix
FUNCTIONS = {
    "divrem": "poly.divrem", "fun_factor": "poly.fun_factor",
    "invert_unit": "poly.invert_unit", "crt_poly": "poly.crt_poly",
    "content": "poly.scalar", "divide_by_scalar": "poly.scalar",
    "top_non_nilpotent": "poly.scalar",
    "res": "resultant", "res_ideal": "resultant", "rres": "resultant",
    "rres_bezout": "resultant", "ppa": "resultant",
    "res_y": "bivariate", "interpolation_plan": "bivariate",
    "padic_gcd": "padic", "ideal_norm": "numberfield", "ideal_min": "numberfield",
    "howell": "linalg.howell",
}
METHODS = {
    ("Poly", "__mul__"): "poly.mul", ("Poly", "scale"): "poly.scalar",
    ("Poly", "map_ring"): "poly.scalar",
    ("Zmod", "split"): "ring.split", ("Zmod", "crt"): "ring.crt",
    ("Zmod", "quotient_by"): "ring.quotient", ("Zmod", "ann_quotient"): "ring.quotient",
    ("GaloisRing", "quotient_by"): "ring.quotient",
    ("GaloisRing", "ann_quotient"): "ring.quotient",
    ("GaloisRing", "mul"): "ring.galois_mul", ("GaloisRing", "inv"): "ring.galois_inv",
}
RESULTANT_ENTRIES = ("res", "res_ideal", "rres", "rres_bezout")
COUNTERS = ("poly.divrem.row_updates", "poly.mul.coeff_products", "poly.fun_factor.hensel",
            "bivariate.points", "padic.delta_sum", "numberfield.modulus_bits")
LAYERS = ("poly.divrem", "poly.mul", "poly.fun_factor", "poly.scalar",
          "poly.invert_unit", "poly.crt_poly", "ring.split", "ring.crt",
          "ring.quotient", "ring.galois_mul", "ring.galois_inv", "resultant",
          "bivariate", "padic", "numberfield", "linalg.howell")


def originals():
    """{span name: (original object, class or None)} from the defining modules."""
    import ringres
    out = {}
    for name in FUNCTIONS:
        fn = getattr(ringres, name, None)
        if fn is None:       # ppa is not re-exported
            fn = getattr(sys.modules["ringres.resultant"], name)
        out[name] = (fn, None)
    for (cls_name, attr) in METHODS:
        cls = getattr(ringres, cls_name)
        out[f"{cls_name}.{attr}"] = (cls.__dict__[attr], cls)
    return out


def _bindings(origs):
    """Every (owner, attribute, span name) whose value is one of the originals."""
    by_id = {id(obj): name for name, (obj, cls) in origs.items() if cls is None}
    found = []
    for modname in MODULES:
        mod = sys.modules.get(modname)
        if mod is None:
            continue
        for attr, val in vars(mod).items():
            name = by_id.get(id(val))
            if name is not None:
                found.append((mod, attr, name))
    for name, (obj, cls) in origs.items():
        if cls is not None:
            found.append((cls, name.split(".", 1)[1], name))
    return found


def discover():
    """The originals and every binding of them, taken before any tracing."""
    origs = originals()
    return origs, _bindings(origs)


def _get(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def check_untraced(origs, bindings):
    """Raise unless every binding of every wrapped name is the original."""
    for owner, attr, name in bindings:
        if _get(owner, attr) is not origs[name][0]:
            raise RuntimeError(f"{getattr(owner, '__name__', owner)}.{attr} is not the original")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_id = {}
        self.nid = array("i")
        self.parent = array("i")
        self.t0 = array("d")
        self.t1 = array("d")
        self.stack = [-1]
        self.counts = Counter()
        self._installed = []

    # -- per-call counters (run after the span closes) -------------------
    def _count(self, name, idx, args, out):
        c = self.counts
        if name == "divrem":
            f, g = args[0], args[1]
            if f.degree >= g.degree >= 0:
                c["poly.divrem.row_updates"] += (f.degree - g.degree + 1) * g.degree
        elif name == "Poly.__mul__":
            c["poly.mul.coeff_products"] += len(args[0].coeffs) * len(args[1].coeffs)
        elif name == "fun_factor":
            if out.k < args[0].degree:
                c["poly.fun_factor.hensel"] += 1
        elif name == "interpolation_plan":
            c["bivariate.points"] += sum(len(b.points) for b in out)
        elif name == "padic_gcd":
            c["padic.delta_sum"] += out.delta
        elif name in RESULTANT_ENTRIES:
            parent = self.parent[idx]
            if parent >= 0 and self.names[self.nid[parent]] in ("ideal_norm", "ideal_min"):
                c["numberfield.modulus_bits"] += args[0].ring.n.bit_length()

    def _wrap(self, name, fn):
        if name not in self.name_id:
            self.name_id[name] = len(self.names)
            self.names.append(name)
        nid = self.name_id[name]
        nids, parents, t0s, t1s, stack = self.nid, self.parent, self.t0, self.t1, self.stack
        count = self._count

        def wrapper(*args, **kwargs):
            idx = len(t0s)
            nids.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(idx)
            t0s.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                t1s[idx] = perf_counter()
                stack.pop()
            count(name, idx, args, out)
            return out

        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def install(self, origs, bindings):
        wrappers = {name: self._wrap(name, obj) for name, (obj, cls) in origs.items()}
        for owner, attr, name in bindings:
            self._installed.append((owner, attr, _get(owner, attr)))
            setattr(owner, attr, wrappers[name])

    def restore(self):
        for owner, attr, val in reversed(self._installed):
            setattr(owner, attr, val)
        self._installed.clear()

    # -- summary ----------------------------------------------------------
    def summary(self):
        """Per-layer calls, self seconds and counters."""
        nid = np.array(self.nid, dtype=np.int32)
        parent = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.t1) - np.array(self.t0)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_s = dur - child
        layer_of = [FUNCTIONS.get(nm) or METHODS[tuple(nm.split(".", 1))] for nm in self.names]
        out = {f"{layer}.{kind}": 0.0 for layer in LAYERS for kind in ("calls", "self_s")}
        for i, layer in enumerate(layer_of):
            mask = nid == i
            out[f"{layer}.calls"] += float(mask.sum())
            out[f"{layer}.self_s"] += float(self_s[mask].sum())
        ppa = self.name_id.get("ppa")
        out["resultant.ppa.calls"] = float((nid == ppa).sum()) if ppa is not None else 0.0
        out.update({k: float(self.counts[k]) for k in COUNTERS})
        top = float(dur[~has_parent].sum())
        return out, top

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), name_id=np.array(self.nid, np.int32),
                            parent=np.array(self.parent, np.int32),
                            start=np.array(self.t0), end=np.array(self.t1))
