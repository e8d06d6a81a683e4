"""Spans and counts around calls into mpsl's layers, from outside the package.

``Tracer.install()`` replaces each public module-level function of every
layer module, in every ``mpsl`` namespace that holds it, with a wrapper.
Because mpsl calls its own functions through module globals, internal calls
(``eigen_scan`` -> ``char_det``, ``solve_bvp`` -> ``integrate_ivp``) are
caught as well.  Three kinds of wrapper keep the overhead in proportion:

- span: records (id, parent, op, name, layer, start, end) for entry points;
- leaf: counts calls and sums their time, for hot functions that call no
  other wrapped function (``char_det``, ``separated_eigenvalue``, ``F``);
- counter: counts calls only, for per-point primitives (``trig``, ``f``).

Spans stay in memory until ``dump``.  A layer's self time is the duration
of its spans minus the time covered by spans and leaves of *other* layers
below them; calls within the same layer stay in its self time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "reporting", "problem", "trig", "reference", "spectrum", "nodal",
          "conditions", "expressions", "shooting", "branching")

METHODS = ("expressions.NonlinearitySpec.f", "expressions.NonlinearitySpec.F",
           "expressions.ForcingTerm.h")

COUNTERS = frozenset({
    "trig.eval_solution", "trig.bc_functional", "trig.sup_norms", "trig.normalized",
    "trig.reflected", "expressions.NonlinearitySpec.f", "expressions.ForcingTerm.h",
    "reporting.fmt", "problem.level_at_least",
})
LEAVES = frozenset({
    "spectrum.char_det", "spectrum.char_det_scale", "spectrum.det_slope",
    "reference.separated_eigenvalue", "reference.reference_eigenvalue",
    "problem.scale_coefficients", "expressions.NonlinearitySpec.F",
    "conditions.side_thresholds", "shooting.bc_residual_on_trace", "shooting.side_scale",
    "nodal.zeros_of", "nodal.reflected_trace", "reporting.atomic_write_text",
})
TRIG_COUNTED = tuple(sorted(n for n in COUNTERS if n.startswith("trig.")))
BRANCH_ENTRIES = ("branching.branch_from_zero", "branching.branch_from_infinity")
NODAL_ENTRY = "branching.nodal_solutions_at_one"

# span record fields
ID, PARENT, OP, NAME, LAYER, START, END, OTHER = range(8)


def _classify_name(args, kwargs):
    trace = args[0] if args else kwargs.get("trace")
    return "nodal.classify.closed" if type(trace).__name__ == "ClosedTrace" else "nodal.classify.sampled"


def _main_name(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return f"cli.main.{argv[0]}" if argv else "cli.main"


NAMERS = {"nodal.classify": _classify_name, "cli.main": _main_name}


def _hook_roots(st, args, kwargs, result):
    derived = st.derived
    pairs = result.eigenpairs if hasattr(result, "eigenpairs") else result
    derived["spectrum.roots"] += len(pairs)
    if pairs and pairs[0].t_path:
        derived["spectrum.t_steps_accepted"] += len(pairs[0].t_path) - 1


def _hook_branch(st, args, kwargs, result):
    points = sum(1 for p in result.points if p.amplitude > 0.0)
    st.derived["branching.points"] += points
    if any(rec[NAME] == NODAL_ENTRY for rec in st.stack):
        st.derived["branching.nodal_points"] += points


def _hook_write(st, args, kwargs, result):
    text = args[1] if len(args) > 1 else kwargs["text"]
    st.derived["reporting.files_written"] += 1
    st.derived["reporting.bytes_written"] += len(text.encode("utf-8"))


HOOKS = {
    "spectrum.eigen_scan": _hook_roots,
    "spectrum.continuation_spectrum": _hook_roots,
    "branching.branch_from_zero": _hook_branch,
    "branching.branch_from_infinity": _hook_branch,
    "reporting.atomic_write_text": _hook_write,
}


class _ThreadState(threading.local):
    def __init__(self, registry: list):
        self.stack: list = []
        self.leaf_depth = 0
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.derived: Counter = Counter()
        registry.append(self)


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.op = None
        self.paused = True
        self.wrapped: set[str] = set()
        self._ids = itertools.count(1)
        self._registry: list[_ThreadState] = []
        self._state = _ThreadState(self._registry)
        self._patches: list[tuple] = []

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self
        hook = HOOKS.get(name)

        if name in COUNTERS:
            @functools.wraps(fn)
            def counter(*args, **kwargs):
                if not tracer.paused:
                    tracer._state.calls[name] += 1
                return fn(*args, **kwargs)
            return counter

        if name in LEAVES:
            @functools.wraps(fn)
            def leaf(*args, **kwargs):
                if tracer.paused:
                    return fn(*args, **kwargs)
                st = tracer._state
                st.calls[name] += 1
                st.leaf_depth += 1
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    st.leaf_depth -= 1
                    st.seconds[name] += dt
                    if st.leaf_depth == 0 and st.stack and st.stack[-1][LAYER] != layer:
                        st.stack[-1][OTHER] += dt
                if hook is not None:
                    hook(st, args, kwargs, result)
                return result
            return leaf

        namer = NAMERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            st = tracer._state
            st.calls[name] += 1
            stack = st.stack
            rec = [next(tracer._ids), stack[-1][ID] if stack else 0, tracer.op,
                   namer(args, kwargs) if namer else name, layer, 0.0, 0.0, 0.0]
            stack.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter()
                stack.pop()
                tracer.spans.append(tuple(rec))
            if hook is not None:
                hook(st, args, kwargs, result)
            return result
        return span

    def install(self) -> None:
        """Wrap every public function of every layer module (imports mpsl)."""
        originals: dict[int, tuple] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"mpsl.{layer}")
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                originals[id(obj)] = (obj, self._wrap(obj, name, layer))
                self.wrapped.add(name)
        for qual in METHODS:
            layer, cls_name, meth = qual.split(".")
            cls = getattr(sys.modules[f"mpsl.{layer}"], cls_name, None)
            fn = getattr(cls, meth, None) if cls is not None else None
            if inspect.isfunction(fn):
                self._patches.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(fn, qual, layer))
                self.wrapped.add(qual)
        for modname, mod in list(sys.modules.items()):
            if modname != "mpsl" and not modname.startswith("mpsl."):
                continue
            for attr, obj in list(vars(mod).items()):
                entry = originals.get(id(obj))
                if entry is not None and entry[0] is obj:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, entry[1])

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._patches):
            setattr(owner, attr, obj)
        self._patches.clear()

    # -- results -------------------------------------------------------------

    def data(self) -> dict:
        """Everything recorded, as plain JSON-ready values."""
        calls: Counter = Counter()
        seconds: defaultdict = defaultdict(float)
        derived: Counter = Counter()
        for st in self._registry:
            calls.update(st.calls)
            derived.update(st.derived)
            for k, v in st.seconds.items():
                seconds[k] += v
        return {
            "wrapped": sorted(self.wrapped),
            "calls": dict(calls),
            "seconds": dict(seconds),
            "derived": dict(derived),
            "spans": [list(s) for s in self.spans],
        }

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data(), fh)


def merge(parts: list[dict]) -> dict:
    """Combine the data of several traced processes (span ids renumbered).
    A name counts as wrapped only if every process wrapped it."""
    out = {"wrapped": sorted(set.intersection(*(set(p["wrapped"]) for p in parts))) if parts else [],
           "calls": Counter(), "seconds": defaultdict(float), "derived": Counter(), "spans": []}
    offset = 0
    for part in parts:
        out["calls"].update(part["calls"])
        out["derived"].update(part["derived"])
        for k, v in part["seconds"].items():
            out["seconds"][k] += v
        top = offset
        for s in part["spans"]:
            s = list(s)
            s[ID] += offset
            if s[PARENT]:
                s[PARENT] += offset
            top = max(top, s[ID])
            out["spans"].append(s)
        offset = top
    return out


def write_spans(data: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for s in data["spans"]:
            fh.write(json.dumps({"id": s[ID], "parent": s[PARENT], "op": s[OP], "name": s[NAME],
                                 "layer": s[LAYER], "start": s[START], "end": s[END]}) + "\n")


# per-layer metrics ------------------------------------------------------------

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


class Summary:
    """Per-name span totals, layer self times and branch attribution."""

    def __init__(self, data: dict):
        self.calls = data["calls"]
        self.seconds = data["seconds"]
        self.derived = data["derived"]
        spans = data["spans"]
        self.children: defaultdict = defaultdict(list)
        self.by_id = {}
        self.total: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        for s in spans:
            self.children[s[PARENT]].append(s)
            self.by_id[s[ID]] = s
            self.total[s[NAME]] += s[END] - s[START]
            self.count[s[NAME]] += 1
        self.spans = spans

    def layer_self(self, s) -> float:
        """Duration minus other layers' time below it, same-layer children
        folded in."""
        t = s[END] - s[START] - s[OTHER]
        for c in self.children.get(s[ID], ()):
            t -= c[END] - c[START]
            if c[LAYER] == s[LAYER]:
                t += self.layer_self(c)
        return t

    def _ancestors(self, s):
        while s[PARENT]:
            s = self.by_id[s[PARENT]]
            yield s

    def self_time(self, name: str) -> float:
        return sum(self.layer_self(s) for s in self.spans if s[NAME] == name)

    def top_level_self(self, layer: str) -> float:
        return sum(self.layer_self(s) for s in self.spans
                   if s[LAYER] == layer and all(a[LAYER] != layer for a in self._ancestors(s)))

    def ivp_under_branches(self, within: str | None = None) -> int:
        """IVP solves made while tracing a branch (optionally one traced
        inside a `within` span)."""
        n = 0
        for s in self.spans:
            if s[NAME] == "shooting.integrate_ivp":
                names = {a[NAME] for a in self._ancestors(s)}
                n += bool(names & set(BRANCH_ENTRIES)) and (within is None or within in names)
        return n

    def prefix_total(self, prefix: str) -> float:
        return sum(v for k, v in self.total.items() if k.startswith(prefix))


def layer_metrics(data: dict, subcommands: tuple[str, ...]) -> tuple[dict, list[str]]:
    """Per-layer metrics from traced data; returns (metrics, missing names).

    A metric whose wrapped names are not all present is left out and listed
    as missing, never reported as zero.
    """
    S = Summary(data)
    c, sec, d = S.calls, S.seconds, S.derived
    table = [
        ("cli.main_s", "s", ("cli.main",), lambda: S.prefix_total("cli.main")),
        *[(f"cli.main_s.{sub}", "s", ("cli.main",), lambda sub=sub: S.total.get(f"cli.main.{sub}", 0.0))
          for sub in subcommands],
        ("reporting.bytes_written", "bytes", ("reporting.atomic_write_text",),
         lambda: d.get("reporting.bytes_written", 0)),
        ("reporting.files_written", "count", ("reporting.atomic_write_text",),
         lambda: d.get("reporting.files_written", 0)),
        ("problem.validate_s", "s", ("problem.validate_problem",),
         lambda: S.total.get("problem.validate_problem", 0.0)),
        ("spectrum.scan_s", "s", ("spectrum.eigen_scan",), lambda: S.self_time("spectrum.eigen_scan")),
        ("spectrum.continuation_s", "s", ("spectrum.continuation_spectrum",),
         lambda: S.self_time("spectrum.continuation_spectrum")),
        ("spectrum.gamma_evals", "count", ("spectrum.char_det",), lambda: c.get("spectrum.char_det", 0)),
        ("spectrum.gamma_evals_per_root", "evals/root",
         ("spectrum.char_det", "spectrum.eigen_scan", "spectrum.continuation_spectrum"),
         lambda: _ratio(c.get("spectrum.char_det", 0), d.get("spectrum.roots", 0))),
        ("spectrum.t_step_accept_frac", "frac",
         ("spectrum.continuation_spectrum", "problem.scale_coefficients"),
         lambda: _ratio(d.get("spectrum.t_steps_accepted", 0), c.get("problem.scale_coefficients", 0))),
        ("trig.calls", "count", TRIG_COUNTED, lambda: sum(c.get(n, 0) for n in TRIG_COUNTED)),
        ("reference.calls", "count", ("reference.separated_eigenvalue",),
         lambda: c.get("reference.separated_eigenvalue", 0)),
        ("reference.s", "s", ("reference.separated_eigenvalue",),
         lambda: sec.get("reference.separated_eigenvalue", 0.0)),
        ("conditions.predict_s", "s", ("conditions.predict_nodal_class",),
         lambda: S.total.get("conditions.predict_nodal_class", 0.0)),
        ("nodal.classify_closed_s", "s", ("nodal.classify",),
         lambda: S.total.get("nodal.classify.closed", 0.0)),
        ("nodal.classify_sampled_s", "s", ("nodal.classify",),
         lambda: S.total.get("nodal.classify.sampled", 0.0)),
        ("shooting.ivp_solves", "count", ("shooting.integrate_ivp",),
         lambda: S.count.get("shooting.integrate_ivp", 0)),
        ("shooting.ivp_s", "s", ("shooting.integrate_ivp",),
         lambda: S.total.get("shooting.integrate_ivp", 0.0)),
        ("shooting.ivp_ms_per_solve", "ms", ("shooting.integrate_ivp",),
         lambda: _ratio(S.total.get("shooting.integrate_ivp", 0.0),
                        S.count.get("shooting.integrate_ivp", 0), 1e3)),
        ("shooting.newton_solves", "count", ("shooting.solve_bvp",),
         lambda: S.count.get("shooting.solve_bvp", 0)),
        ("shooting.energy_cert_s", "s", ("shooting.nonlinear_energy_deviation",),
         lambda: S.total.get("shooting.nonlinear_energy_deviation", 0.0)),
        ("expressions.f_calls", "count", ("expressions.NonlinearitySpec.f",),
         lambda: c.get("expressions.NonlinearitySpec.f", 0)),
        ("expressions.F_calls", "count", ("expressions.NonlinearitySpec.F",),
         lambda: c.get("expressions.NonlinearitySpec.F", 0)),
        ("expressions.F_s", "s", ("expressions.NonlinearitySpec.F",),
         lambda: sec.get("expressions.NonlinearitySpec.F", 0.0)),
        ("branching.points", "count", BRANCH_ENTRIES, lambda: d.get("branching.points", 0)),
        ("branching.ivp_per_point", "solves/point", BRANCH_ENTRIES + ("shooting.integrate_ivp",),
         lambda: _ratio(S.ivp_under_branches(), d.get("branching.points", 0))),
        ("branching.nodal_ivp_per_point", "solves/point", BRANCH_ENTRIES + (NODAL_ENTRY, "shooting.integrate_ivp"),
         lambda: _ratio(S.ivp_under_branches(NODAL_ENTRY), d.get("branching.nodal_points", 0))),
        ("branching.branch_s", "s", BRANCH_ENTRIES, lambda: S.top_level_self("branching")),
    ]
    present = set(data["wrapped"])
    metrics, missing = {}, []
    for name, unit, needs, value in table:
        if all(n in present for n in needs):
            metrics[name] = {"value": value(), "unit": unit}
        else:
            missing.append(name)
    return metrics, missing
