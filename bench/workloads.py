"""The benchmark's workloads and the checks of their outputs.

Each workload is one closed-loop client: a single CLI command, run again
as soon as the previous run ends. Set-up commands make its inputs from
the workload seed. The checks compare outputs with the synthetic designs'
known truth: the quantile treatment effect is -u in both designs, and the
identification frontier is 1/3 in design 1 and 1/2 in design 2.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

TRUE_FRONTIER = {1: 1.0 / 3.0, 2: 0.5}
# criterion 6 holds the mean QTE error over replications to 0.03; a single
# draw adds sampling error of order 1/sqrt(n). Over seeds 0-99 of design 2
# at n=1e4 the reported-point error reached 0.063, and over seeds 0-59 of
# six n=2000 replications the mean-QTE error reached 0.042.
QTE_TOL = 0.03
QTE_NOISE = 8.0
# bisection bracket of an outer-set piece edge (2 * crqiv.bounds.BISECT_RTOL)
EDGE_RTOL = 2e-6


def qte_tolerance(n_records: int) -> float:
    """Allowed mean |QTE error| for estimates pooled over n_records draws."""
    return max(QTE_TOL, QTE_NOISE / math.sqrt(n_records))


@dataclass(frozen=True)
class Sizes:
    n_small: int = 10_000
    n_big: int = 1_000_000
    grid_boot: int = 100
    grid: int = 50
    boot_draws: int = 40
    lattice: int = 150
    mc_n: int = 2000
    mc_reps: int = 6
    mc_draws: int = 10


FULL = Sizes()
SMOKE = Sizes(n_small=2000, n_big=2000, grid_boot=20, grid=20, boot_draws=4,
              lattice=10, mc_n=2000, mc_reps=2, mc_draws=4)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    # inputs dir, seed -> CLI argvs that write the inputs there
    setup: Callable[[Path, int], list]
    # inputs dir, output dir, seed -> CLI argv of the timed command
    timed: Callable[[Path, Path, int], list]
    work: int
    work_metric: str
    # inputs dir, output dir -> (accuracy values, problems found)
    check: Callable[[Path, Path], tuple]


def _read_rows(path: Path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _num(text: str) -> float:
    return float(text) if text != "" else math.nan


def check_estimate(out: Path, design: int, n: int) -> tuple:
    """QTE error and frontier of an `estimate` run; band ordering if present."""
    problems = []
    u_y = TRUE_FRONTIER[design]
    rows = _read_rows(out / "qte.csv")
    u = np.array([float(r["u"]) for r in rows])
    qte = np.array([_num(r["qte"]) for r in rows])
    rep = np.array([r["reported"] == "1" for r in rows])
    if not rep.any():
        problems.append("no grid point reported")
        mae = math.inf
    else:
        mae = float(np.mean(np.abs(qte[rep] + u[rep])))
    tol = qte_tolerance(n)
    if not mae <= tol:
        problems.append(f"qte_mae {mae:.4f} above {tol:.4f}")
    # criterion 5 bounds u_prev, the last grid point before the frontier
    # estimate u_hat: u_hat itself is the first point past the estimated
    # frontier and may lie one grid step past the true one
    fit = json.loads((out / "fit.json").read_text())
    u_hat, u_prev = fit["u_hat"], fit["u_prev"]
    if not u_prev <= u_y + 1e-12:
        problems.append(f"u_prev {u_prev} beyond the true frontier {u_y:.4f}")
    band = out / "band.csv"
    if band.exists():
        for r in _read_rows(band):
            lo, pt, hi = _num(r["lower"]), _num(r["point"]), _num(r["upper"])
            if not any(math.isnan(v) for v in (lo, pt, hi)) and not lo <= pt <= hi:
                problems.append(f"band row u={r['u']} not ordered: {lo} {pt} {hi}")
    share = int(rep.sum()) / int(np.count_nonzero(u < u_y))
    return {"qte_mae": mae, "reported_share": share, "u_hat": u_hat}, problems


def check_bounds(out: Path) -> tuple:
    """Every lattice row's oracle verdict against membership in the pieces.

    A disagreement within the bisection bracket of a piece edge is excused,
    as in acceptance criterion 9.
    """
    problems = []
    bad = excused = checked = 0
    for s in json.loads((out / "bounds.json").read_text())["sets"]:
        pieces = [
            (np.array([float(v) for v in p["lower"]]), np.array([float(v) for v in p["upper"]]))
            for p in s["pieces"]
        ]
        tol = EDGE_RTOL * max(s["caps"])
        lattice = np.loadtxt(out / f"bounds_lattice_u{s['u']:g}.csv", delimiter=",", skiprows=1, ndmin=2)
        theta, member = lattice[:, :-1], lattice[:, -1].astype(bool)
        inside = np.zeros(member.size, dtype=bool)
        near_edge = np.zeros(member.size, dtype=bool)
        for lo, hi in pieces:
            inside |= np.all((lo <= theta) & (theta <= hi), axis=1)
            near_edge |= np.any(((lo > 0) & (np.abs(theta - lo) <= tol))
                                | (np.isfinite(hi) & (np.abs(theta - hi) <= tol)), axis=1)
        differ = inside != member
        checked += member.size
        bad += int(np.count_nonzero(differ & ~near_edge))
        excused += int(np.count_nonzero(differ & near_edge))
    if bad:
        problems.append(f"{bad} of {checked} lattice points disagree with the outer set")
    return {"lattice_points": checked, "lattice_disagreements": bad, "lattice_excused": excused}, problems


def check_mc(out: Path, design: int, n: int, reps: int) -> tuple:
    """Mean-QTE error where at least half the replications report."""
    problems = []
    u_y = TRUE_FRONTIER[design]
    rows = _read_rows(out / "mc_qte.csv")
    u = np.array([float(r["u"]) for r in rows])
    mean_qte = np.array([_num(r["mean_qte"]) for r in rows])
    n_rep = np.array([int(r["n_reported"]) for r in rows])
    ok = n_rep >= reps / 2
    mae = float(np.mean(np.abs(mean_qte[ok] + u[ok]))) if ok.any() else math.inf
    tol = qte_tolerance(n * reps)
    if not mae <= tol:
        problems.append(f"mean-QTE error {mae:.4f} above {tol:.4f}")
    for r in _read_rows(out / "mc_coverage.csv"):
        if not 0 <= int(r["hits"]) <= int(r["n_valid"]) <= reps:
            problems.append(f"coverage row u={r['u']} has hits/n_valid out of range")
    below = u < u_y
    share = float(n_rep[below].sum()) / (reps * int(np.count_nonzero(below)))
    u_hat = float(np.mean([float(r["u_hat"]) for r in _read_rows(out / "mc_frontier.csv")]))
    return {"qte_mae": mae, "reported_share": share, "u_hat": u_hat}, problems


def workloads(sz: Sizes = FULL) -> dict:
    def simulate(design, n):
        return lambda d, seed: [[
            "simulate", "--design", str(design), "--n", str(n), "--seed", str(seed),
            "--out", str(d), "--threads", "2",
        ]]

    def bounds_setup(d, seed):
        return simulate(2, sz.n_small)(d, seed) + [[
            "estimate", "--data", str(d / "data.csv"), "--out", str(d / "fit"),
            "--grid", str(sz.grid), "--threads", "2",
        ]]

    def check_bounds_run(inp, out):
        acc, problems = check_estimate(inp / "fit", 2, sz.n_small)
        lat, more = check_bounds(out)
        return {**acc, **lat}, problems + more

    table = [
        Workload(
            "estimate_boot",
            "bootstrap band at n=1e4: the solver-bound regime, replicates on the thread pool",
            simulate(2, sz.n_small),
            lambda inp, out, seed: [
                "estimate", "--data", str(inp / "data.csv"), "--out", str(out),
                "--grid", str(sz.grid_boot), "--naive", "--derived",
                "--boot-draws", str(sz.boot_draws), "--seed", "1", "--threads", "2",
            ],
            sz.boot_draws,
            "draws_per_s",
            lambda inp, out: check_estimate(out, 2, sz.n_small),
        ),
        Workload(
            "estimate_1e6",
            "one fit at n=1e6: CSV ingest and smoothing at scale; bypasses solver and bootstrap",
            simulate(1, sz.n_big),
            lambda inp, out, seed: [
                "estimate", "--data", str(inp / "data.csv"), "--out", str(out),
                "--grid", str(sz.grid), "--naive", "--threads", "2",
            ],
            sz.n_big,
            "records_per_s",
            lambda inp, out: check_estimate(out, 1, sz.n_big),
        ),
        Workload(
            "bounds_lattice",
            "outer sets plus the point-by-point membership oracle on a lattice; no solver runs",
            bounds_setup,
            lambda inp, out, seed: [
                "bounds", "--data", str(inp / "data.csv"), "--fit-json", str(inp / "fit" / "fit.json"),
                "--u", "0.6", "--u", "0.75", "--u", "0.9", "--lattice", str(sz.lattice),
                "--out", str(out), "--threads", "2",
            ],
            3 * sz.lattice ** 2,
            "lattice_points_per_s",
            check_bounds_run,
        ),
        Workload(
            "mc_coverage",
            "many small fits: generation, MC study and coverage, pool across repetitions",
            lambda d, seed: [["--version"]],
            lambda inp, out, seed: [
                "mc", "--design", "2", "--n", str(sz.mc_n), "--reps", str(sz.mc_reps),
                "--boot-draws", str(sz.mc_draws), "--grid", str(sz.grid),
                "--seed", str(seed), "--out", str(out), "--threads", "2",
            ],
            sz.mc_reps,
            "reps_per_s",
            lambda inp, out: check_mc(out, 2, sz.mc_n, sz.mc_reps),
        ),
    ]
    return {w.name: w for w in table}
