"""In-memory span tracer over predbif's layers, installed from outside.

The layers are predbif's modules; ``sim`` also owns the integration kernel
(``_backend``, ``_rk_py``, ``_rk_cy``).  ``install`` replaces, in every layer
module, each public function and each name bound by ``from .x import y``
with a wrapper that records one span per call: name, start, end, parent and
one count.  No predbif source changes.  Spans stay in flat arrays until the
run ends; ``save`` writes them out and ``layer_metrics`` turns them into the
per-layer numbers.

A direct recursive call (``cli.to_json`` renders nested values by calling
itself) is folded into the outer span.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array
from collections import Counter

import numpy as np

from predbif import bt, cli, equilibria, hopf, model, polyroots, sim, stability
from predbif import _backend

LAYERS = ("cli", "model", "polyroots", "equilibria", "stability", "hopf", "bt", "sim")

#: modules whose functions belong to each layer
_MODULES = {
    "cli": (cli,), "model": (model,), "polyroots": (polyroots,),
    "equilibria": (equilibria,), "stability": (stability,), "hopf": (hopf,),
    "bt": (bt,), "sim": (sim, _backend),
}

#: private emitters wrapped as well, so the write side of a report has spans
_EXTRA = {"cli": ("_render_csv", "_render_svg")}


def _owner_layer(fn) -> str | None:
    mod = getattr(fn, "__module__", "") or ""
    if not mod.startswith("predbif."):
        return None
    short = mod.split(".", 1)[1]
    if short in ("_backend", "_rk_py", "_rk_cy"):
        return "sim"
    return short if short in LAYERS else None


def _count_result(name: str):
    """Count recorded on a span of ``name``, from the call's result."""
    if name == "sim.integrate_kernel":
        return lambda r: len(r[0]) - 1  # accepted steps
    if name in ("polyroots.solve_quartic_ferrari", "polyroots.solve_cubic_cardano"):
        return lambda r: len(r.real_roots)
    if name in ("equilibria.interior_equilibria", "sim.phase_portrait"):
        return len
    if name == "bt.bifurcation_curves":
        return lambda r: len(r.T) + len(r.H) + len(r.P)
    return None


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.count = array("q")
        self.stack: list[int] = []
        self.enabled = False
        self.counters: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []
        self._interior_id = self.name_id("equilibria.interior_equilibria")
        self._candidate_ids = {self.name_id("polyroots.solve_quartic_ferrari"),
                               self.name_id("polyroots.solve_cubic_cardano")}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0)
        self.count.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, name: str):
        nid = self.name_id(name)
        count = _count_result(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if not tracer.enabled or (stack and tracer.name[stack[-1]] == nid):
                return fn(*args, **kwargs)
            i = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if count is not None:
                tracer.count[i] = count(result)
                if nid in tracer._candidate_ids:
                    tracer._count_candidates(i, result)
            return result

        return traced

    def _wrap_run(self, fn):
        """``cli.run`` gets one span name per subcommand."""
        tracer = self

        @functools.wraps(fn)
        def traced(argv):
            if not tracer.enabled:
                return fn(argv)
            i = tracer.begin(tracer.name_id(f"cli.run[{argv[0]}]"))
            try:
                return fn(argv)
            finally:
                tracer.finish(i)

        return traced

    def _count_candidates(self, i: int, result) -> None:
        """Positive real roots handed to ``interior_equilibria``'s polish."""
        p = self.parent[i]
        if p >= 0 and self.name[p] == self._interior_id:
            self.counters["equilibria.positive_candidates"] += sum(
                1 for x in result.real_roots if x > equilibria.POSITIVITY_TOL)

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer, mods in _MODULES.items():
            for mod in mods:
                for attr, fn in list(vars(mod).items()):
                    extra = attr in _EXTRA.get(layer, ())
                    if attr.startswith("_") and not extra:
                        continue
                    if not (inspect.isfunction(fn) or inspect.isbuiltin(fn)):
                        continue
                    owner = _owner_layer(fn)
                    if owner is None:
                        continue
                    if id(fn) not in wrappers:
                        if fn is cli.run:
                            wrappers[id(fn)] = self._wrap_run(fn)
                        else:
                            wrappers[id(fn)] = self._wrap(fn, f"{owner}.{attr.lstrip('_')}")
                    self._patches.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[id(fn)])

    def uninstall(self) -> None:
        for mod, attr, fn in reversed(self._patches):
            setattr(mod, attr, fn)
        self._patches.clear()

    # -- output ------------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# ---------------------------------------------------------------------------
# analysis


class Spans:
    """Vectorised view of a finished trace."""

    def __init__(self, tracer: Tracer, scale: float = 1.0) -> None:
        """``scale`` converts wall seconds to the reference seconds of
        ``calib``."""
        a = tracer.arrays()
        self.names = tracer.names
        self.name, self.parent, self.count = a["name"], a["parent"], a["count"]
        self.dur = (a["end"] - a["start"]).astype(np.float64) * 1e-9 * scale
        n = len(self.name)
        has_parent = self.parent >= 0
        child = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child
        self.layer_of_name = [nm.split(".", 1)[0] for nm in self.names]

    def ids(self, name: str) -> np.ndarray:
        """Mask of spans called ``name``."""
        if name not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(name)

    def under(self, name: str) -> np.ndarray:
        """Mask of spans that have an ancestor called ``name``."""
        out = np.zeros(len(self.name), dtype=bool)
        if name not in self.names:
            return out
        target = self.names.index(name)
        anc = self.parent.copy()
        live = anc >= 0
        while live.any():
            out[live] |= self.name[anc[live]] == target
            anc[live] = self.parent[anc[live]]
            live = anc >= 0
        return out

    def total(self, mask) -> float:
        return float(self.dur[mask].sum())

    def self_total(self, mask) -> float:
        return float(self.self_time[mask].sum())

    def layer_self(self) -> dict[str, float]:
        per_name = np.bincount(self.name, weights=self.self_time, minlength=len(self.names))
        out: Counter = Counter()
        for nid, t in enumerate(per_name):
            out[self.layer_of_name[nid]] += float(t)
        return dict(out)


def _per_call(total: float, calls: int, scale: float) -> float | None:
    return total / calls * scale if calls else None


def layer_metrics(spans: Spans, counters: Counter, items: int, report_kb: float) -> dict:
    """Per-layer metrics by name.  A value is None where the workload never
    calls the layer.  ``*_per_item`` counts are normalised by the
    workload's items (grid points, trajectories or reports)."""
    s = spans
    m: dict[str, float | None] = {}

    def calls(name):
        return int(s.ids(name).sum())

    def per_item(name):
        return calls(name) / items

    interior = s.ids("equilibria.interior_equilibria")
    m["equilibria.interior.calls_per_item"] = per_item("equilibria.interior_equilibria")
    m["equilibria.interior.self_us_per_call"] = _per_call(
        s.self_total(interior), int(interior.sum()), 1e6)
    q = s.ids("equilibria.quartic_coeffs")
    m["equilibria.quartic_coeffs.us_per_call"] = _per_call(s.total(q), int(q.sum()), 1e6)
    cand = counters["equilibria.positive_candidates"]
    m["equilibria.accept_ratio"] = (float(s.count[interior].sum()) / cand) if cand else None

    solver_calls = 0
    solver_roots = 0
    for key, name in (("ferrari", "polyroots.solve_quartic_ferrari"),
                      ("cardano", "polyroots.solve_cubic_cardano")):
        mask = s.ids(name)
        m[f"polyroots.{key}.calls_per_item"] = int(mask.sum()) / items
        m[f"polyroots.{key}.us_per_call"] = _per_call(s.total(mask), int(mask.sum()), 1e6)
        direct = mask & (s.parent >= 0)
        direct[direct] = interior[s.parent[direct]]
        solver_calls += int(direct.sum())
        solver_roots += int(s.count[direct].sum())
    m["polyroots.real_roots_per_call"] = solver_roots / solver_calls if solver_calls else None

    for name in ("rhs", "jacobian", "taylor_jet"):
        m[f"model.{name}.calls_per_item"] = per_item(f"model.{name}")
    jac = s.ids("model.jacobian")
    m["model.jacobian.us_per_call"] = _per_call(s.total(jac), int(jac.sum()), 1e6)

    cls = s.ids("stability.classify_generic")
    m["stability.classify.calls_per_item"] = int(cls.sum()) / items
    m["stability.classify.self_us_per_call"] = _per_call(s.self_total(cls), int(cls.sum()), 1e6)

    scans = s.ids("hopf.hopf_scan")
    n_scans = int(scans.sum())
    in_scan = s.under("hopf.hopf_scan")
    m["hopf.scan.self_ms"] = _per_call(s.self_total(scans), n_scans, 1e3)
    m["hopf.equilibria_calls_per_scan"] = _per_call(float((interior & in_scan).sum()), n_scans, 1)
    lyap = s.ids("hopf.lyapunov_coefficient_l")
    m["hopf.lyapunov.us_per_call"] = _per_call(s.total(lyap), int(lyap.sum()), 1e6)
    integ = s.ids("sim.integrate")
    m["hopf.verdict_ms"] = _per_call(s.total(integ & in_scan), n_scans, 1e3)

    for key, name in (("locate", "bt.bt_locate"), ("normal_form", "bt.normal_form")):
        mask = s.ids(name)
        m[f"bt.{key}.us_per_call"] = _per_call(s.total(mask), int(mask.sum()), 1e6)
    beta = s.ids("bt.beta_map")
    m["bt.beta_map.calls_per_item"] = int(beta.sum()) / items
    m["bt.beta_map.us_per_call"] = _per_call(s.total(beta), int(beta.sum()), 1e6)
    curves = s.ids("bt.bifurcation_curves")
    samples = int(s.count[curves].sum())
    m["bt.beta_map_calls_per_sample"] = _per_call(
        float((beta & s.under("bt.bifurcation_curves")).sum()), samples, 1)

    kernel = s.ids("sim.integrate_kernel")
    steps = int(s.count[kernel].sum())
    m["sim.integrate.calls_per_item"] = int(integ.sum()) / items
    m["sim.steps_accepted_per_item"] = steps / items
    m["sim.kernel.us_per_step"] = _per_call(s.total(kernel), steps, 1e6)
    m["sim.wrap.us_per_step"] = _per_call(s.self_total(integ), steps, 1e6)
    probe = s.ids("sim.detect_limit_cycle")
    m["sim.cycle_probe.self_ms"] = _per_call(s.self_total(probe), int(probe.sum()), 1e3)

    parse = s.ids("cli.parse_config") | s.ids("cli.params_from_config")
    m["cli.parse.us_per_call"] = _per_call(s.total(parse), calls("cli.parse_config"), 1e6)
    runs = [nm for nm in s.names if nm.startswith("cli.run[")]
    for nm in sorted(runs):
        durs = s.dur[s.ids(nm)]
        m[f"cli.{nm[len('cli.run['):-1]}.p50_ms"] = statistics.median(durs.tolist()) * 1e3
    n_reports = sum(int(s.ids(nm).sum()) for nm in runs)
    emit = s.ids("cli.to_json") | s.ids("cli.render_csv") | s.ids("cli.render_svg")
    m["cli.emit.self_ms_per_report"] = _per_call(s.self_total(emit), n_reports, 1e3)
    m["cli.emit.kb_per_report"] = report_kb / n_reports if n_reports else None

    traced = float(s.dur[s.parent < 0].sum())
    for layer, t in sorted(s.layer_self().items()):
        m[f"share.{layer}"] = 100.0 * t / traced if traced else None
    for layer in LAYERS:
        m.setdefault(f"share.{layer}", 0.0)
    m["share.sim.kernel"] = 100.0 * s.self_total(kernel) / traced if traced else None
    return m
