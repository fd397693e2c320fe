"""Span tracing of the pestab layers from outside the package.

`Tracer.install` replaces every public pestab function (no leading
underscore) with a span recorder on every module binding that holds it, and
wraps `PwcSignal.segments` and `Trajectory.to_csv` on their classes.  A
function imported with `from .matkit import expm` is bound separately in
each importing module, so `simcore.expm`, `certify.expm`, ... each get a
wrapper; the binding tells which layer made the call.

Spans carry (name, start, end, parent span, op id) and stay in memory until
`save` writes them out.  A span's self time is its duration minus the time
covered by its direct children.  Generator functions get one span per
resumption, because their work happens while the consumer iterates.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
import sys
from collections import Counter
from time import perf_counter_ns

import numpy as np

# Methods traced on their classes: (module, class, method).
_METHODS = (("signals", "PwcSignal", "segments"),
            ("simcore", "Trajectory", "to_csv"))


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


def _expm_key(args, kwargs):
    m = np.asarray(args[0] if args else kwargs["m"], dtype=float)
    t = args[1] if len(args) > 1 else kwargs.get("t", 1.0)
    return (m.shape, m.tobytes(), float(t))


def _propagate_key(args, kwargs):
    names = ("loop", "t0", "x0", "t1", "max_step")
    a = dict(zip(names, args), **kwargs)
    loop = a["loop"]
    x0 = np.asarray(a["x0"], dtype=float)
    return (loop.A.tobytes(), loop.B.tobytes(), loop.K.tobytes(), loop.alpha,
            float(a["t0"]), x0.shape, x0.tobytes(), float(a["t1"]),
            a.get("max_step"))


def _samples(result) -> int:
    if isinstance(result, list):
        return sum(len(tr.times) for tr in result)
    return len(result.times)


class Tracer:
    """Span recorder; off (pass-through) until `on` is set."""

    def __init__(self):
        self.on = False
        self.op = -1
        self.spans: list = []       # [name_id, start_ns, end_ns, parent, op]
        self.stack: list = []
        self.names: list = []       # name_id -> (function key, binding)
        self._ids: dict = {}
        self.counts: Counter = Counter()
        self.seen: dict = {"expm": set(), "propagate": set()}
        self.bindings: list = []    # (owner, attribute, original)
        self.wrapped: set = set()   # id() of every wrapper installed

    # -- recording ---------------------------------------------------------

    def _name_id(self, key: str, binding: str) -> int:
        nid = self._ids.get((key, binding))
        if nid is None:
            nid = self._ids[(key, binding)] = len(self.names)
            self.names.append((key, binding))
        return nid

    def _wrap(self, fn, key: str, binding: str):
        nid = self._name_id(key, binding)
        tr = self
        spans, stack = self.spans, self.stack
        post = self._post_hook(key)

        if inspect.isgeneratorfunction(fn):
            def traced_gen(gen):
                while True:
                    idx = len(spans)
                    rec = [nid, 0, 0, stack[-1] if stack else -1, tr.op]
                    spans.append(rec)
                    stack.append(idx)
                    rec[1] = perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        rec[2] = perf_counter_ns()
                        stack.pop()
                    tr.counts[key + ".pieces"] += 1
                    yield item

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                return traced_gen(gen) if tr.on else gen
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if not tr.on:
                    return fn(*args, **kwargs)
                idx = len(spans)
                rec = [nid, 0, 0, stack[-1] if stack else -1, tr.op]
                spans.append(rec)
                stack.append(idx)
                rec[1] = perf_counter_ns()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    rec[2] = perf_counter_ns()
                    stack.pop()
                if post is not None:
                    post(args, kwargs, result)
                return result

        self.wrapped.add(id(wrapper))
        return wrapper

    def _post_hook(self, key: str):
        counts, seen = self.counts, self.seen
        if key == "matkit.expm":
            def post(args, kwargs, result):
                k = _expm_key(args, kwargs)
                if k in seen["expm"]:
                    counts["matkit.expm.repeats"] += 1
                seen["expm"].add(k)
            return post
        if key in ("simcore.propagate", "simcore.propagate_batch"):
            def post(args, kwargs, result):
                counts["simcore.propagate.samples"] += _samples(result)
                k = _propagate_key(args, kwargs)
                if k in seen["propagate"]:
                    counts["simcore.propagate.repeats"] += 1
                seen["propagate"].add(k)
            return post
        if key == "simcore.Trajectory.to_csv":
            def post(args, kwargs, result):
                counts["simcore.to_csv.rows"] += len(args[0].times) + 1
            return post
        return None

    # -- installation --------------------------------------------------------

    @staticmethod
    def package_modules(package) -> list:
        mods = [package]
        for info in pkgutil.iter_modules(package.__path__,
                                         package.__name__ + "."):
            mods.append(importlib.import_module(info.name))
        return mods

    def install(self, package) -> None:
        """Wrap every binding of every public package function."""
        prefix = package.__name__ + "."
        wrappers: dict = {}
        for mod in self.package_modules(package):
            binding = _short(mod.__name__)
            for attr, obj in list(vars(mod).items()):
                if not (inspect.isfunction(obj)
                        and obj.__module__.startswith(prefix)
                        and not obj.__name__.startswith("_")):
                    continue
                key = f"{_short(obj.__module__)}.{obj.__name__}"
                w = wrappers.get((key, binding))
                if w is None:
                    w = wrappers[(key, binding)] = self._wrap(obj, key,
                                                              binding)
                self.bindings.append((mod, attr, obj))
                setattr(mod, attr, w)
        for modname, clsname, meth in _METHODS:
            cls = getattr(sys.modules[prefix + modname], clsname)
            orig = cls.__dict__[meth]
            self.bindings.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, f"{modname}.{clsname}.{meth}",
                                          modname))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self.bindings):
            setattr(owner, attr, orig)
        self.bindings.clear()

    def unwrapped_bindings(self, package, extra_modules=()) -> list:
        """Bindings of public package functions that bypass the tracer.

        Scans every loaded package module and `extra_modules` (the
        benchmark's own), so a binding added by a new import, or a function
        imported by name into the benchmark, is reported."""
        prefix = package.__name__ + "."
        mods = [m for n, m in sorted(sys.modules.items())
                if n == package.__name__ or n.startswith(prefix)]
        mods += list(extra_modules)
        bad = []
        for mod in mods:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj)
                        and obj.__module__.startswith(prefix)
                        and not obj.__name__.startswith("_")
                        and id(obj) not in self.wrapped):
                    bad.append(f"{mod.__name__}.{attr}")
        for modname, clsname, meth in _METHODS:
            cls = getattr(sys.modules[prefix + modname], clsname)
            if id(cls.__dict__[meth]) not in self.wrapped:
                bad.append(f"{prefix}{modname}.{clsname}.{meth}")
        return bad

    # -- results -------------------------------------------------------------

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()
        for s in self.seen.values():
            s.clear()

    def arrays(self) -> dict:
        if not self.spans:
            return {f: np.zeros(0, dtype=np.int64)
                    for f in ("name", "start", "end", "parent", "op")}
        a = np.array(self.spans, dtype=np.int64)
        return {"name": a[:, 0], "start": a[:, 1], "end": a[:, 2],
                "parent": a[:, 3], "op": a[:, 4]}

    def nesting_problems(self, a: dict) -> list:
        """Every span must lie inside its parent and belong to its op, and
        sibling spans must not overlap."""
        probs = []
        if len(a["name"]) == 0:
            return probs
        if np.any(a["end"] < a["start"]):
            probs.append("span ends before it starts")
        has = a["parent"] >= 0
        p = a["parent"][has]
        if np.any(a["start"][has] < a["start"][p]) or \
                np.any(a["end"][has] > a["end"][p]):
            probs.append("span outside its parent")
        if np.any(a["op"][has] != a["op"][p]):
            probs.append("span op id differs from its parent's")
        # spans are appended in start order, so siblings are consecutive
        # within a (parent, op) group once sorted stably
        order = np.lexsort((a["start"], a["parent"], a["op"]))
        par, op = a["parent"][order], a["op"][order]
        st, en = a["start"][order], a["end"][order]
        same = (par[1:] == par[:-1]) & (op[1:] == op[:-1])
        if np.any(st[1:][same] < en[:-1][same]):
            probs.append("sibling spans overlap")
        return probs

    @staticmethod
    def self_ns(a: dict) -> np.ndarray:
        dur = a["end"] - a["start"]
        has = a["parent"] >= 0
        child = np.bincount(a["parent"][has], weights=dur[has],
                            minlength=len(dur))
        return dur - child

    def save(self, path, a: dict, meta: dict) -> None:
        names = [f"{k}@{b}" for k, b in self.names]
        np.savez_compressed(path, names=np.array(json.dumps(names)),
                            meta=np.array(json.dumps(meta)), **a)


def layer_metrics(tr: Tracer, a: dict, scale: np.ndarray) -> dict:
    """Per-layer metrics of one pass from its spans; `scale` converts each
    span's time to reference speed."""
    n = len(tr.names)
    self_ns = tr.self_ns(a) * scale
    calls_id = np.bincount(a["name"], minlength=n)
    self_id = np.bincount(a["name"], weights=self_ns, minlength=n)
    calls: Counter = Counter()
    selfs: Counter = Counter()
    layer_calls: Counter = Counter()
    layer_self: Counter = Counter()
    calls_from: Counter = Counter()
    for i, (key, binding) in enumerate(tr.names):
        calls[key] += int(calls_id[i])
        selfs[key] += float(self_id[i])
        layer = key.split(".", 1)[0]
        layer_calls[layer] += int(calls_id[i])
        layer_self[layer] += float(self_id[i])
        calls_from[(key, binding)] += int(calls_id[i])
    cnt = tr.counts

    def per(v):
        return float(v)

    def sec(v):
        return v / 1e9

    def frac(num, den):
        return num / den if den else 0.0

    prop_calls = calls["simcore.propagate"] + calls["simcore.propagate_batch"]
    prop_self = selfs["simcore.propagate"] + selfs["simcore.propagate_batch"]
    m = {
        "matkit.expm.calls": per(calls["matkit.expm"]),
        "matkit.expm.self_s": sec(selfs["matkit.expm"]),
        "matkit.expm.repeat_frac": frac(cnt["matkit.expm.repeats"],
                                        calls["matkit.expm"]),
        "matkit.one_norm.calls": per(calls["matkit.one_norm"]),
        "matkit.one_norm.self_s": sec(selfs["matkit.one_norm"]),
        "signals.make_battery.self_s": sec(selfs["signals.make_battery"]),
        "signals.make_duty.calls": per(calls["signals.make_duty"]),
        "signals.make_duty.self_s": sec(selfs["signals.make_duty"]),
        "signals.verify_pe.calls": per(calls["signals.verify_pe"]),
        "signals.verify_pe.self_s": sec(selfs["signals.verify_pe"]),
        "signals.segments.pieces":
            per(cnt["signals.PwcSignal.segments.pieces"]),
        "signals.segments.self_s": sec(selfs["signals.PwcSignal.segments"]),
        "simcore.propagate.calls": per(prop_calls),
        "simcore.propagate.samples": per(cnt["simcore.propagate.samples"]),
        "simcore.propagate.self_s": sec(prop_self),
        "simcore.propagate.samples_per_s":
            frac(cnt["simcore.propagate.samples"], prop_self / 1e9),
        "simcore.propagate.repeat_frac":
            frac(cnt["simcore.propagate.repeats"], prop_calls),
        "simcore.polar_lift.self_s": sec(selfs["simcore.polar_lift"]),
        "simcore.to_csv.rows": per(cnt["simcore.to_csv.rows"]),
        "simcore.to_csv.self_s": sec(selfs["simcore.Trajectory.to_csv"]),
        "reachability.gramian.calls": per(calls["reachability.gramian"]),
        "reachability.gramian.self_s": sec(selfs["reachability.gramian"]),
        "reachability.witness_residual.self_s":
            sec(selfs["reachability.witness_residual"]),
        "gains.calls": per(layer_calls["gains"]),
        "gains.self_s": sec(layer_self["gains"]),
        "certify.self_s": sec(layer_self["certify"]),
        "adversary.self_s": sec(layer_self["adversary"]),
        "adversary.worst_case_search.self_s":
            sec(selfs["adversary.worst_case_search"]),
        "adversary.find_nu.self_s": sec(selfs["adversary.find_nu"]),
        "adversary.run_destabilizer.self_s":
            sec(selfs["adversary.run_destabilizer"]),
        "cli.main.calls": per(calls["cli.main"]),
        "cli.self_s": sec(layer_self["cli"]),
        "cli.bytes_written": per(cnt["cli.bytes_written"]),
        "scenarios.self_s": sec(layer_self["scenarios"]),
        "trace.spans": per(len(a["name"])),
    }
    for caller in ("simcore", "certify", "adversary", "reachability"):
        m[f"matkit.expm.calls_from.{caller}"] = \
            per(calls_from[("matkit.expm", caller)])
    for fn in ("check_V_neutral", "chain_contraction", "check_F_monotone",
               "c12_sojourns", "check_cs_decay", "check_quadrant_V"):
        m[f"certify.{fn}.self_s"] = sec(selfs[f"certify.{fn}"])
    return m
