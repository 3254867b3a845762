"""Command-line pipeline: simulate, estimate, bounds, mc.

Every command writes its outputs plus a manifest JSON describing the run
(command, resolved configuration, seed, tool version, input hash,
timestamps). Outputs are deterministic given the configuration; the
manifest's timestamps are provenance, not inputs. A JSON config file
passed with --config overrides flags key by key; each value passes its flag's check.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import __version__

# numpy, the library modules and the JSON, hashing and clock modules are
# imported where they are used, so a run loads only what its command needs
# (``--version`` and ``--help`` load none of them)

__all__ = ["main", "build_parser"]


def _at_least(low: int, what: str):
    """argparse type: an integer no smaller than ``low``."""
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be a {what} integer, got {text}")
        return value
    return integer


_positive_int, _non_negative_int = _at_least(1, "positive"), _at_least(0, "non-negative")

# per argparse type of a flag: the JSON types of a --config value for it, and their name
_JSON_FORMS = {None: ((str,), "a string"), int: ((int,), "an integer"), float: ((int, float), "a number"),
               _positive_int: ((int,), "a positive integer"), _non_negative_int: ((int,), "a non-negative integer")}


def _fmt(v) -> str:
    """Deterministic CSV cell: shortest round-trip float text, blank for NaN."""
    if v is None:
        return ""
    if isinstance(v, float):
        if math.isnan(v):
            return ""
        if math.isinf(v):
            return "inf" if v > 0 else "-inf"
        return repr(v)
    return str(v)


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _write_json(path: Path, obj) -> None:
    import json

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: Path) -> str:
    import hashlib

    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(out_dir: Path, command: str, config: dict, seed, inputs: list[Path], extra=None) -> None:
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "created_utc": datetime.now(timezone.utc).isoformat(),
        **(extra or {}),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _read_json(path: Path, what: str):
    import json

    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON syntax or text that is not UTF-8
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(cfg: dict):
    path = Path(cfg["data"])
    if not path.exists():
        raise FileNotFoundError(f"data file not found: {path}")
    from .data import load_csv
    return load_csv(path), path


def _grid(cfg: dict):
    from .estimator import QuantileGrid
    return QuantileGrid.default(cfg["grid"])


def _fit_kwargs(cfg: dict) -> dict:
    return {
        "grid": _grid(cfg),
        "bandwidth": cfg.get("bandwidth"),
        "delta": cfg.get("delta"),
        "kind": cfg.get("kind", "local_linear"),
    }


def _boot(cfg: dict):
    """The bootstrap settings, or None when ``boot_draws`` is 0 (no band)."""
    if not cfg["boot_draws"]:
        return None
    from .inference import BootstrapConfig
    return BootstrapConfig(draws=cfg["boot_draws"], seed=cfg["seed"], level=cfg["level"])


# -- commands ----------------------------------------------------------


def cmd_simulate(cfg: dict) -> int:
    from .data import save_csv
    from .simulate import DgpSpec, generate

    spec = DgpSpec(cfg["design"], cfg["n"], cfg["seed"])
    data, _ = generate(spec)
    out = _outdir(cfg)
    data_path = out / "data.csv"
    save_csv(data, data_path)
    _write_manifest(out, "simulate", cfg, cfg["seed"], [])
    print(f"wrote {data_path} ({data.n} records)")
    return 0


def cmd_estimate(cfg: dict) -> int:
    from .estimator import NO_ROOT, NOT_CERTIFIED, PAST_FRONTIER, REPORTED, EstimationError, fit_curve, naive_curve

    boot = _boot(cfg)
    data, data_path = _load_data(cfg)
    kwargs = _fit_kwargs(cfg)
    fit = fit_curve(data, **kwargs)
    # grid points per status; every no-root code, whatever its level and face, counts as no root
    codes = [min(code, NO_ROOT) for code in fit.status.tolist()]
    kinds = {"reported": REPORTED, "past_frontier": PAST_FRONTIER, "not_certified": NOT_CERTIFIED, "no_root": NO_ROOT}
    extra = {"status_counts": {kind: codes.count(code) for kind, code in kinds.items()}}
    u = fit.grid.points
    L = fit.theta.shape[1]

    # the stages that can fail after the fit run before --out is created
    if cfg.get("derived"):
        from dataclasses import asdict

        from .data import swap_causes
        from .derived import derived_quantities, rank_condition_diagnostic
        extra["rank_condition"] = asdict(rank_condition_diagnostic(fit.surface, fit.frontiers.y_hat))
        try:
            cause2 = fit_curve(swap_causes(data), **kwargs)
        except EstimationError as exc:  # swap_causes made the secondary cause the fit's primary one
            text = str(exc).replace("primary-cause", "secondary-cause")
            raise EstimationError(f"the secondary-cause fit of --derived failed: {text}") from None
        levels = derived_quantities(fit, cause2)
        derived_rows = [
            (d.label, *(float(c[i]) for c in (d.u, d.t, d.density, d.subdist_hazard, d.cause_hazard)))
            for _, d in sorted(levels.items())
            for i in range(d.u.size)
        ]
    if boot is not None:
        from .inference import bootstrap_band
        band = bootstrap_band(data, boot, fit=fit, **kwargs)
        extra["bootstrap_failures"] = [[b, reason] for b, reason in band.failures]

    fit_json = fit.to_dict()
    fit_json["n"] = data.n
    out = _outdir(cfg)
    _write_json(out / "fit.json", fit_json)

    theta_cols = [f"theta_{lbl}" for lbl in fit.treatment_levels]
    rows = []
    nv = naive_curve(data, fit.grid) if cfg.get("naive") else None
    header = ["u"] + theta_cols + ["reported"]
    if nv is not None:
        header += [f"naive_{lbl}" for lbl in fit.treatment_levels]
    for m in range(u.size):
        row = [float(u[m])]
        row += [float(fit.theta[m, l]) if fit.reported_mask[m] else math.nan for l in range(L)]
        row.append(int(fit.reported_mask[m]))
        if nv is not None:
            row += [float(nv[m, l]) for l in range(L)]
        rows.append(row)
    _write_csv(out / "curves.csv", header, rows)

    qte = fit.qte()
    _write_csv(
        out / "qte.csv",
        ["u", "qte", "reported"],
        [(float(u[m]), float(qte[m]), int(fit.reported_mask[m])) for m in range(u.size)],
    )

    if cfg.get("derived"):
        _write_csv(out / "derived.csv", ["level", "u", "t", "density", "subdist_hazard", "cause_hazard"], derived_rows)

    if boot is not None:
        _write_csv(out / "band.csv", ["u", "lower", "point", "upper", "n_reported"], band.rows())

    _write_manifest(out, "estimate", cfg, cfg["seed"], [data_path], extra)
    print(f"estimate done: u_hat={fit.frontiers.u_hat} -> {out}")
    return 0


def cmd_bounds(cfg: dict) -> int:
    import numpy as np

    from .bounds import BoundFrontiers, _write_lattice, outer_set, verify_membership
    from .surface import assemble_surface

    npts = cfg["lattice"]
    names = [f"bounds_lattice_u{u:g}.csv" for u in cfg["u"]] if npts else []
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"u={cfg['u'][names.index(name)]!r} and u={cfg['u'][i]!r} would both write {name}")
    fit_path = Path(cfg["fit_json"]) if cfg.get("fit_json") else None
    if fit_path is not None:
        fit_doc = _read_json(fit_path, "fit")
        u_y = fit_doc.get("u_hat") if isinstance(fit_doc, dict) else None
        if type(u_y) not in (int, float) or not math.isfinite(u_y):
            raise ValueError(f"{fit_path}: u_hat must be a number, got {u_y!r}")
    data, data_path = _load_data(cfg)
    if fit_path is None:  # only a fit of its own loads the estimator and the solver
        from .estimator import fit_curve
        fit = fit_curve(data, stop_at_frontier=True, **_fit_kwargs(cfg))
        surface, u_y = fit.surface, fit.frontiers.u_hat
    frontiers = BoundFrontiers.from_data(data, u_y)
    y1 = frontiers.y1.tolist()
    if fit_path is not None:
        if fit_doc.get("y1_hat") != y1 or fit_doc.get("n") != data.n:
            raise ValueError(f"{fit_path}: not a fit of {data_path}: its y1_hat and n must be {y1} and {data.n}")
        surface = assemble_surface(data, bandwidth=cfg.get("bandwidth"), kind=cfg.get("kind", "local_linear"))
    inputs = [data_path] if fit_path is None else [data_path, fit_path]

    sets = [outer_set(u, surface, frontiers).to_dict() for u in cfg["u"]]
    out = _outdir(cfg)
    if npts:
        # BoundFrontiers keeps y1 positive and finite, so every coordinate is finite
        axes = [np.linspace(0.0, 1.5 * y, npts) for y in y1]
        _write_lattice([out / name for name in names], axes,
                       lambda theta: [verify_membership(theta, u, surface, frontiers) for u in cfg["u"]])
    _write_json(out / "bounds.json", {"u_y": frontiers.u_y, "sets": sets})
    _write_manifest(out, "bounds", cfg, cfg["seed"], inputs)
    print(f"wrote {out / 'bounds.json'} ({len(sets)} quantile(s))")
    return 0


def cmd_mc(cfg: dict) -> int:
    from .simulate import DgpSpec, mc_study

    res = mc_study(DgpSpec(cfg["design"], cfg["n"], cfg["seed"]), cfg["reps"], boot=_boot(cfg), **_fit_kwargs(cfg))
    out = _outdir(cfg)

    means, counts = res.mean_qte()
    naive_means = res.mean_naive_qte()
    _write_csv(
        out / "mc_qte.csv",
        ["u", "mean_qte", "n_reported", "mean_naive_qte"],
        [
            (float(res.grid[m]), float(means[m]), int(counts[m]), float(naive_means[m]))
            for m in range(res.grid.size)
        ],
    )

    edges, hist = res.u_hat_histogram(cfg.get("bins", 20))
    _write_csv(
        out / "mc_u_hat_hist.csv",
        ["bin_low", "bin_high", "count"],
        [(float(edges[i]), float(edges[i + 1]), int(hist[i])) for i in range(hist.size)],
    )

    _write_csv(
        out / "mc_frontier.csv",
        ["rep", "u_hat", "u_prev", "triggered"] + [f"y1_hat_{l}" for l in range(res.y1_hat.shape[1])],
        [
            (r, float(res.u_hat[r]), float(res.u_prev[r]), int(res.triggered[r]))
            + tuple(float(v) for v in res.y1_hat[r])
            for r in range(res.reps)
        ],
    )

    if res.coverage is not None:
        _write_csv(out / "mc_coverage.csv", ["u", "coverage", "hits", "n_valid"], res.coverage.rows())

    _write_manifest(out, "mc", cfg, cfg["seed"], [])
    print(f"mc done: {res.reps} replications -> {out}")
    return 0


# -- argument plumbing -------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crqiv",
        description="Instrumental quantile estimation for competing-risks durations",
    )
    parser.add_argument("--version", action="version", version=f"crqiv {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_fit_flags=True):
        p.add_argument("--seed", type=_non_negative_int, default=0)
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--config", help="JSON config file; entries override flags")
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="recorded in the manifest as given; changes neither results nor speed")
        if with_fit_flags:
            p.add_argument("--grid", type=_positive_int, default=100, help="quantile grid size M")
            p.add_argument("--bandwidth", type=float, default=None)
            p.add_argument("--delta", type=float, default=None, help="frontier cushion override")
            p.add_argument("--kind", choices=["local_linear", "convolution"], default="local_linear")

    p = sub.add_parser("simulate", help="draw a synthetic dataset")
    p.add_argument("--design", type=int, choices=[1, 2], required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    common(p, with_fit_flags=False)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("estimate", help="fit quantile curves from a CSV dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--naive", action="store_true", help="include the treatment-only comparator")
    p.add_argument("--derived", action="store_true",
                   help="emit incidence/hazard curves, and the rank-condition screen to the manifest")
    p.add_argument("--boot-draws", type=_non_negative_int, default=0, dest="boot_draws",
                   help="bootstrap draws for the band (0: no band)")
    p.add_argument("--level", type=float, default=0.95)
    common(p)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("bounds", help="outer sets for quantiles beyond the frontier")
    p.add_argument("--data", required=True)
    p.add_argument("--u", type=float, action="append", required=True,
                   help="quantile level (repeatable)")
    p.add_argument("--fit-json", dest="fit_json",
                   help="fit.json from a previous estimate run (reuses its frontier)")
    p.add_argument("--lattice", type=_non_negative_int, default=0,
                   help="emit a membership lattice CSV with this many points per axis")
    common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("mc", help="Monte Carlo study on a synthetic design")
    p.add_argument("--design", type=int, choices=[1, 2], required=True)
    p.add_argument("--n", type=_positive_int, required=True)
    p.add_argument("--reps", type=_positive_int, required=True)
    p.add_argument("--boot-draws", type=_non_negative_int, default=0, dest="boot_draws",
                   help="bootstrap draws per repetition for coverage (0: no coverage)")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--bins", type=_positive_int, default=20)
    common(p)
    p.set_defaults(func=cmd_mc)

    for p in sub.choices.values():
        p.set_defaults(flags=p._actions)  # for the checks of --config values
    return parser


def _config_value(flag: argparse.Action, value):
    """A --config value as its flag parses it, or ValueError naming what the flag takes.

    The value must have the JSON type of the flag's text and pass its type
    and choices, or be null where an optional flag defaults to None.
    """
    nullable = flag.default is None and not flag.required
    if value is None and nullable:
        return None
    kinds, takes = ((bool,), "true or false") if flag.nargs == 0 else _JSON_FORMS[flag.type]
    repeated = isinstance(flag, argparse._AppendAction)
    if flag.choices:
        takes = "one of " + ", ".join(map(repr, flag.choices))
    elif repeated:
        takes = f"a non-empty list of {takes[2:]}s"
    elif flag.dest == "delta":  # one value per treatment level, a form no flag gives
        takes += f", a list of {takes[2:]}s"
    listed = isinstance(value, list) and (repeated or flag.dest == "delta")
    items = value if listed else [value]
    try:
        if (repeated and not (listed and value)) or any(type(v) not in kinds for v in items):
            raise ValueError
        parsed = [v if flag.type is None else flag.type(str(v)) for v in items]
        if flag.choices and not set(parsed) <= set(flag.choices):
            raise ValueError
    except (ValueError, argparse.ArgumentTypeError):
        raise ValueError(f"{flag.dest} must be {takes}{' or null' if nullable else ''}, got {value!r}") from None
    return parsed if listed else parsed[0]


def _resolve_config(args: argparse.Namespace) -> dict:
    cfg = {k: v for k, v in vars(args).items() if k not in ("func", "flags", "config")}
    if args.config:
        overrides = _read_json(Path(args.config), "config")
        if not isinstance(overrides, dict):
            raise ValueError("config file must hold a JSON object")
        # every flag of the command but --help and --config
        flags = {flag.dest: flag for flag in args.flags if flag.dest in cfg}
        unknown = set(overrides) - set(flags)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        cfg.update({key: _config_value(flags[key], value) for key, value in overrides.items()})
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _resolve_config(args)
        return args.func(cfg)
    except OSError as exc:  # an input path that is missing, a directory or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:  # DataValidationError and EstimationError too
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
