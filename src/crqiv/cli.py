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

_KINDS = ("local_linear", "convolution")  # the smoothers of --kind

# per argparse type of a flag: the JSON types of a --config value for it, and their name
_JSON_FORMS = {None: ((str,), "a string"), int: ((int,), "an integer"), float: ((int, float), "a number"),
               _positive_int: ((int,), "a positive integer"), _non_negative_int: ((int,), "a non-negative integer")}


def _is_number(v) -> bool:
    """Whether a JSON value is a finite number; true and false are not numbers."""
    return type(v) in (int, float) and math.isfinite(v)


def _numbers(v) -> bool:
    """Whether a JSON value is a list of finite numbers."""
    return isinstance(v, list) and all(map(_is_number, v))


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


def _write_manifest(out_dir: Path, command: str, config: dict, seed, inputs: dict, extra=None) -> None:
    """Write manifest.json; ``inputs`` maps each input path to its SHA-256 digest."""
    from datetime import datetime, timezone

    manifest = {
        "command": command,
        "config": config,
        "seed": seed,
        "version": __version__,
        "inputs": {str(p): digest for p, digest in inputs.items()},
        "created_utc": datetime.now(timezone.utc).isoformat(),
        **(extra or {}),
    }
    _write_json(out_dir / "manifest.json", manifest)


def _existing(path: Path, what: str) -> Path:
    """path, or FileNotFoundError naming it as the ``what`` file."""
    if not path.exists():
        raise FileNotFoundError(f"{what} file not found: {path}")
    return path


def _read_json(path: Path, what: str):
    import json

    with open(_existing(path, what), encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # bad JSON syntax or text that is not UTF-8
            raise ValueError(f"{path}: not valid JSON: {exc}") from None


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_data(cfg: dict):
    path = _existing(Path(cfg["data"]), "data")
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
    _write_manifest(out, "simulate", cfg, cfg["seed"], {})
    print(f"wrote {data_path} ({data.n} records)")
    return 0


def cmd_estimate(cfg: dict) -> int:
    from .estimator import NO_ROOT, NOT_CERTIFIED, PAST_FRONTIER, REPORTED, EstimationError, fit_curve, naive_curve
    from .survival import level_order

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

    nv = naive_curve(data, fit.grid) if cfg.get("naive") else None
    # hashed past the naive curve, which sets the run's memory peak, so that
    # the OpenSSL that hashlib maps does not add to it
    digest = _sha256(data_path)
    fit_json = fit.to_dict()
    # what bounds --fit-json needs besides the surface: the data's digest,
    # the options the surface was made with and each level's largest
    # follow-up time, the last record of its time order
    fit_json.update(n=data.n, data_sha256=digest, kind=kwargs["kind"], bandwidth=kwargs["bandwidth"],
                    caps=[float(data.y[level_order(data, l)[-1]]) for l in range(L)])
    out = _outdir(cfg)
    _write_json(out / "fit.json", fit_json)
    fit.surface.save(out / "surface.npy")

    theta_cols = [f"theta_{lbl}" for lbl in fit.treatment_levels]
    rows = []
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

    _write_manifest(out, "estimate", cfg, cfg["seed"], {data_path: digest}, extra)
    print(f"estimate done: u_hat={fit.frontiers.u_hat} -> {out}")
    return 0


def _saved_fit(cfg: dict, fit_path: Path, data_path: Path) -> tuple:
    """(surface, frontiers, input digests) of ``estimate``'s fit.json at fit_path and the surface.npy beside it.

    Each value taken from the fit is checked, and a failure names the file:
    the fit must hold every key this crqiv writes, the run's kind and
    bandwidth, and the data's digest.  Neither the data nor the fit's
    modules are loaded.
    """
    from .bounds import BoundFrontiers
    from .surface import SmoothedSurvivalSurface

    doc = _read_json(fit_path, "fit")
    u_y = doc.get("u_hat") if isinstance(doc, dict) else None
    if not _is_number(u_y):
        raise ValueError(f"{fit_path}: u_hat must be a number, got {u_y!r}")

    def value(key: str, ok, takes: str):
        if key not in doc:
            raise ValueError(f"{fit_path}: no {key!r}, as in a fit.json of an older crqiv; run estimate again")
        if not ok(doc[key]):
            raise ValueError(f"{fit_path}: {key} must be {takes}, got {doc[key]!r}")
        return doc[key]

    y1 = value("y1_hat", lambda v: _numbers(v) and len(v) >= 2, "a list of at least 2 numbers")
    caps = value("caps", lambda v: _numbers(v) and len(v) == len(y1), f"a list of {len(y1)} numbers")
    K = len(value("instrument_levels", lambda v: isinstance(v, list) and len(v) >= 2, "a list of at least 2 labels"))
    made = {"kind": value("kind", lambda v: v in _KINDS, "one of " + ", ".join(map(repr, _KINDS))),
            "bandwidth": value("bandwidth", lambda v: v is None or _is_number(v), "a number or null")}
    fit_digest = value("data_sha256", lambda v: isinstance(v, str), "a string")
    for key, made_with in made.items():
        if cfg[key] != made_with:
            raise ValueError(f"{fit_path}: its surface was made with {key} {made_with!r}, not {cfg[key]!r}; "
                             f"bounds --fit-json takes the fit's {key}")
    digest = _sha256(_existing(data_path, "data"))
    if fit_digest != digest:
        raise ValueError(f"{fit_path}: not a fit of {data_path}: its data_sha256 must be {digest}")

    surface_path = _existing(fit_path.with_name("surface.npy"), "surface")
    surface = SmoothedSurvivalSurface.load(surface_path, len(y1), K, made["kind"])
    try:
        frontiers = BoundFrontiers(y1, caps, u_y)
    except ValueError as exc:  # a bound not positive, or a cap below its bound
        raise ValueError(f"{fit_path}: {exc}") from None
    return surface, frontiers, {data_path: digest, fit_path: _sha256(fit_path), surface_path: _sha256(surface_path)}


def cmd_bounds(cfg: dict) -> int:
    import numpy as np

    from .bounds import BoundFrontiers, _write_lattice, outer_set, verify_membership

    npts = cfg["lattice"]
    names = [f"bounds_lattice_u{u:g}.csv" for u in cfg["u"]] if npts else []
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"u={cfg['u'][names.index(name)]!r} and u={cfg['u'][i]!r} would both write {name}")
    if cfg.get("fit_json"):
        surface, frontiers, inputs = _saved_fit(cfg, Path(cfg["fit_json"]), Path(cfg["data"]))
    else:  # only a fit of its own loads the data, the estimator and the solver
        from .estimator import fit_curve
        data, data_path = _load_data(cfg)
        fit = fit_curve(data, stop_at_frontier=True, **_fit_kwargs(cfg))
        surface, frontiers = fit.surface, BoundFrontiers.from_data(data, fit.frontiers.u_hat)
        inputs = None  # the data are hashed last, past the run's memory peak

    sets = [outer_set(u, surface, frontiers).to_dict() for u in cfg["u"]]
    out = _outdir(cfg)
    if npts:
        # BoundFrontiers keeps y1 positive and finite, so every coordinate is finite
        axes = [np.linspace(0.0, 1.5 * y, npts) for y in frontiers.y1.tolist()]
        _write_lattice([out / name for name in names], axes,
                       lambda theta: [verify_membership(theta, u, surface, frontiers) for u in cfg["u"]])
    _write_json(out / "bounds.json", {"u_y": frontiers.u_y, "sets": sets})
    _write_manifest(out, "bounds", cfg, cfg["seed"], inputs or {data_path: _sha256(data_path)})
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

    _write_manifest(out, "mc", cfg, cfg["seed"], {})
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
            p.add_argument("--kind", choices=_KINDS, default="local_linear")

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
