"""Command-line front end: config ingestion, one subcommand per analysis,
and deterministic JSON/CSV/SVG report emission.

Reports never contain timestamps or other run-dependent metadata, so a
rerun with the same config is byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import warnings
from pathlib import Path

from . import __version__, bt, equilibria, hopf, stability
from . import sim as simmod
from ._backend import BACKEND
from .errors import ParameterOutOfRange, PredbifError
from .model import ModelParams, State, linspace, validate

PARAM_NAMES = ("a", "b", "c", "h", "delta", "eta", "m")


# ---------------------------------------------------------------------------
# config


def parse_config(path: str | Path) -> dict:
    """Nested config dict from a JSON file or a flat key=value file with
    dotted sections (``params.a = 2``)."""
    text = Path(path).read_text()
    if str(path).endswith(".json") or text.lstrip().startswith("{"):
        cfg = json.loads(text)
        if not isinstance(cfg, dict):
            raise ValueError(f"{path}: the config must be a table of sections, got {cfg!r}")
        return cfg
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value, got {raw!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        try:
            parsed = json.loads(val)
        except json.JSONDecodeError:
            parsed = val
        node = cfg
        parts = key.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                raise ValueError(f"{path}:{lineno}: {key} sets a key inside the value {part}")
        node[parts[-1]] = parsed
    return cfg


def params_from_config(cfg: dict) -> ModelParams:
    """Admissible model parameters from the ``params`` section.

    Raises ValueError on missing or unknown keys and ParameterOutOfRange on
    values that violate ``model.validate``."""
    p = cfg.get("params", {})
    if not isinstance(p, dict):
        raise ValueError(f"config section params must hold params.* keys, got {p!r}")
    missing = [n for n in PARAM_NAMES if n not in p]
    if missing:
        raise ValueError(f"config is missing params: {missing}")
    if unknown := sorted(set(p) - set(PARAM_NAMES)):
        raise ValueError(f"config has unknown params: {unknown}")
    return validate(ModelParams(**{n: _number(f"params.{n}", p[n]) for n in PARAM_NAMES}))


def _number(key: str, value) -> float:
    """``value`` as a float when it is a finite real number (a bool is not);
    ValueError naming ``key`` otherwise."""
    try:
        if not isinstance(value, bool) and math.isfinite(value):
            return float(value)
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{key} must be a finite number, got {value!r}")


#: each command's own config section, the typed defaults of its options and
#: their ranges, as "key op bound" with a number or another key as the bound
OPTIONS = {
    "hopf": ("hopf", {"delta_min": 1e-3, "delta_max": 1.0, "n_samples": 200, "branch": 0},
             ("n_samples >= 2", "branch >= 0", "delta_min > 0", "delta_min < delta_max")),
    "bt-curves": ("curves", {"lambda1_min": 0.0, "lambda1_max": 1e-4,
                             "lambda2_min": -1e-4, "lambda2_max": 1e-4, "n": 50},
                  ("n >= 1", "lambda1_min < lambda1_max", "lambda2_min < lambda2_max")),
    "simulate": ("simulate", {"x0": 0.5, "y0": 0.5, "t_end": 100.0},
                 ("x0 >= 0", "y0 >= 0", "t_end > 0")),
    "sweep": ("sweep", {"h_min": 0.05, "h_max": 0.95, "c_min": 0.05, "c_max": 0.95,
                        "n_h": 10, "n_c": 10},
              ("n_h >= 1", "n_c >= 1", "h_min > 0", "h_min <= h_max", "c_min > 0",
               "c_min <= c_max")),
}

def command_options(command: str, cfg: dict) -> dict:
    """The options of ``command``: its config section over the defaults of
    ``OPTIONS``, each value converted to its default's type.

    Raises ValueError naming a key the section does not know, a value that
    is not a finite number (a string, a bool, NaN or infinity) or not an
    integer where one is needed, or a value outside the option's range."""
    if command not in OPTIONS:
        return {}
    section, defaults, ranges = OPTIONS[command]
    given = cfg.get(section, {})
    if not isinstance(given, dict):
        raise ValueError(f"config section {section} must hold {section}.* keys, got {given!r}")
    if unknown := sorted(set(given) - set(defaults)):
        raise ValueError(f"config has unknown {section} options: {unknown}")
    opts = dict(defaults)
    for key, value in given.items():
        number = _number(f"{section}.{key}", value)
        if isinstance(defaults[key], int):
            if not number.is_integer():
                raise ValueError(f"{section}.{key} must be int, got {value!r}")
            number = int(number)
        opts[key] = number
    for rule in ranges:
        key, op, bound = rule.split()
        value, limit = opts[key], opts[bound] if bound in opts else float(bound)
        holds = {">": value > limit, ">=": value >= limit, "<": value < limit,
                 "<=": value <= limit}[op]
        if not holds:
            shown = f"{section}.{bound} = {limit!r}" if bound in opts else bound
            raise ValueError(f"{section}.{key} must be {op} {shown}, got {value!r}")
    return opts


# ---------------------------------------------------------------------------
# deterministic emitters


def _fmt(x: float) -> str:
    if x != x:
        return "NaN"
    return format(x, ".17g")


def to_json(obj, indent: int = 0) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    pad = "  " * indent
    pad2 = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad2}{json.dumps(str(k))}: {to_json(v, indent + 1)}"
            for k, v in sorted(obj.items())
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{pad2}{to_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, float):
        return _fmt(obj)
    if isinstance(obj, int):
        return str(obj)
    if obj is None:
        return "null"
    return json.dumps(str(obj))


def _render_csv(header: list[str], rows: list[list]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _svg_polyline(pts, xmin, xmax, ymin, ymax, w, h, color):
    def sx(x):
        return 40.0 + (x - xmin) / (xmax - xmin or 1.0) * (w - 60.0)

    def sy(y):
        return h - 30.0 - (y - ymin) / (ymax - ymin or 1.0) * (h - 50.0)

    coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in pts)
    return f'<polyline fill="none" stroke="{color}" stroke-width="1" points="{coords}"/>'


def _render_svg(series: list[tuple[str, list]], labels: tuple[str, str],
                size=(640, 480)) -> str:
    """Minimal line plot: one polyline per (color, points) series."""
    w, h = size
    all_pts = [p for _, pts in series for p in pts]
    if not all_pts:
        xmin = ymin = 0.0
        xmax = ymax = 1.0
    else:
        xmin = min(p[0] for p in all_pts)
        xmax = max(p[0] for p in all_pts)
        ymin = min(p[1] for p in all_pts)
        ymax = max(p[1] for p in all_pts)
    body = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
        f'viewBox="0 0 {w} {h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w / 2:.0f}" y="{h - 8}" font-size="12" text-anchor="middle">'
        f"{labels[0]}</text>",
        f'<text x="12" y="{h / 2:.0f}" font-size="12" text-anchor="middle" '
        f'transform="rotate(-90 12 {h / 2:.0f})">{labels[1]}</text>',
    ]
    for color, pts in series:
        if pts:
            body.append(_svg_polyline(pts, xmin, xmax, ymin, ymax, w, h, color))
    body.append("</svg>")
    return "\n".join(body) + "\n"


# ---------------------------------------------------------------------------
# subcommands: each returns (results, table, plot), None for what it lacks;
# results is the JSON report's payload, table the CSV's (header, rows) and
# plot the SVG's (series, labels)


def _eq_dict(e: equilibria.Equilibrium) -> dict:
    return {"x": e.x, "y": e.y, "kind": e.kind, "source": e.source}


def _bt_point_dict(p: bt.BTPoint) -> dict:
    return {"x": p.x, "y": p.y, "h_bt": p.h_bt, "delta_bt": p.delta_bt, "case": p.case_tag}


def cmd_equilibria(params):
    region = equilibria.classify_region(params.h, params.c)
    eqs = equilibria.all_equilibria(params)
    return {"region": region.tag, "equilibria": [_eq_dict(e) for e in eqs]}, None, None


def cmd_stability(params):
    rows = []
    for e in equilibria.all_equilibria(params):
        rep = stability.classify_generic(params, e)
        rows.append(
            {
                "equilibrium": _eq_dict(e),
                "label": rep.label,
                "trace": rep.trace,
                "det": rep.det,
                "eigenvalues": [[ev.real, ev.imag] for ev in rep.eigenvalues],
                "sector": rep.sector,
                "branch": rep.theorem_branch,
            }
        )
    return {"reports": rows}, None, None


def cmd_hopf(params, *, delta_min, delta_max, n_samples, branch):
    points = hopf.hopf_scan(params, (delta_min, delta_max), n_samples, branch)
    results = [
        {
            "delta_H": hd.delta_H,
            "omega": hd.omega,
            "det": hd.det,
            "l1": hd.l1,
            "transversality": hd.transversality,
            "transversality_branch": hd.transversality_branch,
            "cycle_verdict": hd.cycle_verdict,
            "equilibrium": {"x": hd.equilibrium.x, "y": hd.equilibrium.y},
        }
        for hd in points
    ]
    return {"hopf_points": results}, None, None


def cmd_bt_locate(params):
    return {"bt_points": [_bt_point_dict(p) for p in bt.bt_locate(params)]}, None, None


def cmd_bt_normal_form(params):
    results = []
    for p in bt.bt_locate(params):
        nf = bt.normal_form(params, p)
        (j00, j01), (j10, j11) = nf.beta_jacobian
        results.append(
            {
                "point": _bt_point_dict(p),
                "g20_0": nf.g20_0,
                "g11_0": nf.g11_0,
                "g02_0": nf.g02_0,
                "two_A0": 2.0 * nf.A0,
                "B0": nf.B0,
                "s": nf.s,
                "beta_jacobian": nf.beta_jacobian,
                "det_beta_jacobian": j00 * j11 - j01 * j10,
                "nondegeneracy": nf.nondegeneracy,
            }
        )
    return {"normal_forms": results}, None, None


def cmd_bt_curves(params, *, lambda1_min, lambda1_max, lambda2_min, lambda2_max, n):
    box = (lambda1_min, lambda1_max, lambda2_min, lambda2_max)
    pts = bt.bt_locate(params)
    if not pts:
        raise PredbifError("no BT point to unfold")
    cs = bt.bifurcation_curves(bt.normal_form(params, pts[0]), box, n)
    rows = [[name, l1, l2, b1, b2] for name in ("T", "H", "P")
            for (l1, l2), (b1, b2) in zip(getattr(cs, name), cs.beta[name])]
    results = {"box": box, "T": cs.T, "H": cs.H, "P": cs.P}
    table = (["curve", "lambda1", "lambda2", "beta1", "beta2"], rows)
    plot = ([("black", cs.T), ("red", cs.H), ("blue", cs.P)], ("lambda1", "lambda2"))
    return results, table, plot


def cmd_simulate(params, *, x0, y0, t_end, tol):
    traj = simmod.integrate(params, State(x0, y0), t_end, tol, on_failure="keep")
    results = {
        "tol": tol,
        "terminated": traj.terminated,
        "n_steps": len(traj) - 1,
        "final": {"x": traj.final.x, "y": traj.final.y},
    }
    rows = [[t, x, y] for t, x, y in zip(traj.times, traj.xs, traj.ys)]
    return results, (["t", "x", "y"], rows), ([("black", list(zip(traj.xs, traj.ys)))], ("x", "y"))


def cmd_sweep(params, *, h_min, h_max, c_min, c_max, n_h, n_c):
    rows = []
    a, b, delta, eta, m = params.a, params.b, params.delta, params.eta, params.m
    c_grid = linspace(c_min, c_max, n_c)
    for hv in linspace(h_min, h_max, n_h):
        for cv in c_grid:
            # command_options bounded the grid to finite positive h and c, so
            # every point is admissible without another validate
            p = ModelParams(a, b, cv, hv, delta, eta, m)
            region = equilibria.classify_region(hv, cv).tag
            try:
                eqs = equilibria.interior_equilibria(p)
                labels = [stability.classify_generic(p, e).label for e in eqs]
                rows.append([hv, cv, region, len(eqs), ";".join(labels)])
            except (PredbifError, ArithmeticError) as exc:
                rows.append([hv, cv, region, -1, f"error:{type(exc).__name__}"])
    return None, (["h", "c", "region", "n_interior", "labels"], rows), None


COMMANDS = {
    "equilibria": cmd_equilibria,
    "stability": cmd_stability,
    "hopf": cmd_hopf,
    "bt-locate": cmd_bt_locate,
    "bt-normal-form": cmd_bt_normal_form,
    "bt-curves": cmd_bt_curves,
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every ``run``
    in the process."""
    ap = argparse.ArgumentParser(
        prog="predbif",
        description="Bifurcation analyses of the harvested Holling-III / "
        "Leslie-Gower predator-prey system",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True, help="config file (key=value or JSON)")
        sp.add_argument("--out", default=".", help="output directory")
        sp.add_argument("--format", default="json", choices=["json", "csv", "svg"])
        if name == "simulate":
            sp.add_argument("--tol", type=_tolerance, default=simmod.DEFAULT_TOL,
                            help="integration tolerance, absolute and relative")
    return ap


def _tolerance(text: str) -> float:
    """``--tol``: a float inside ``sim.TOL_RANGE``."""
    tol, (lo, hi) = float(text), simmod.TOL_RANGE
    if not lo <= tol <= hi:
        raise argparse.ArgumentTypeError(f"must lie in [{lo:g}, {hi:g}], got {text}")
    return tol


def run(argv: list[str]) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = parse_config(args.config)
        params = params_from_config(cfg)
        opts = command_options(args.command, cfg)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError, ParameterOutOfRange) as exc:
        print(f"predbif: config error: {exc}", file=sys.stderr)
        return 2
    flags = {key: value for key, value in vars(args).items()
             if key not in ("command", "config", "out", "format")}
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results, table, plot = COMMANDS[args.command](params, **opts, **flags)
        diags = sorted({str(w.message) for w in caught})
    except (PredbifError, ArithmeticError) as exc:
        # an admissible but extreme parameter can overflow a float operation
        print(f"predbif: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    reports = []
    if table is not None:
        reports.append(("csv", _render_csv(*table)))
    if plot is not None and args.format == "svg":
        reports.append(("svg", _render_svg(*plot)))
    if results is not None and (args.format == "json" or table is None):
        report = {
            "config": cfg,
            "results": results,
            "diagnostics": diags,
            "versions": {"predbif": __version__, "backend": BACKEND},
        }
        reports.append(("json", to_json(report) + "\n"))
    for ext, text in reports:
        path = out_dir / f"{args.command}.{ext}"
        path.write_text(text)
        print(path)
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
