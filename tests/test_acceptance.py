"""End-to-end acceptance checks.

Each test exercises one numbered criterion at its stated tolerance and
adds a PASS/FAIL line to the terminal summary via the ``record`` fixture.
Criterion 7 runs a reduced smoke configuration by default; set
CRQIV_ACCEPTANCE_FULL=1 for the full-size replication study.
"""

import json
import math
import os
import time

import numpy as np
import pytest
import scipy.stats

from crqiv._rng import stream, substream_seed
from crqiv.bounds import BoundFrontiers, outer_set
from crqiv.cli import main as cli_main
from crqiv.data import Dataset
from crqiv.estimator import QuantileGrid
from crqiv.inference import BootstrapConfig, coverage_study
from crqiv.simulate import DgpSpec, GroundTruth, generate
from crqiv.surface import assemble_surface
from crqiv.survival import (
    SortedCell,
    StepFunction,
    aalen_johansen_cause1,
    build_counting_processes,
    incidence_from,
    product_limit_survival,
)
from tests._synthetic import compare_on_lattice, random_step_surface

FULL = os.environ.get("CRQIV_ACCEPTANCE_FULL", "") not in ("", "0")

GRID13 = QuantileGrid(np.array(
    [0.1, 0.2, 0.3, 0.4, 0.44, 0.48, 0.52, 0.56, 0.62, 0.7, 0.8, 0.9, 1.0]
))


@pytest.fixture(scope="module")
def big_draw_d1():
    return generate(DgpSpec(design=1, n=1_000_000, seed=0))


@pytest.fixture(scope="module")
def big_draw_d2():
    return generate(DgpSpec(design=2, n=1_000_000, seed=0))


def grid_index(grid: np.ndarray, u: float) -> int:
    m = int(np.argmin(np.abs(grid - u)))
    assert abs(grid[m] - u) < 1e-9
    return m


def test_criterion_1_hand_oracle(record):
    t0 = time.perf_counter()
    y = np.tile([1.0, 2.0, 3.0, 4.0], 4)
    e = np.tile([1, 2, 0, 1], 4)
    z = np.repeat([0, 0, 1, 1], 4)
    w = np.repeat([0, 1, 0, 1], 4)
    cp = build_counting_processes(Dataset(y, e, z, w, [0, 1], [0, 1]))
    surv1 = aalen_johansen_cause1(cp, (0, 0))
    pl = product_limit_survival(cp, (1, 1))
    aj_vals = surv1(np.array([0.5, 1.0, 4.0]))
    pl_vals = pl(np.array([1.0, 2.0, 3.0, 4.0]))
    elapsed = time.perf_counter() - t0
    ok = (
        np.allclose(aj_vals, [1.0, 3 / 4, 1 / 4], atol=1e-12)
        and np.allclose(pl_vals, [3 / 4, 1 / 2, 1 / 2, 0.0], atol=1e-12)
        and elapsed < 1.0
    )
    record(1, "hand oracle: incidence and product limit", ok, f"{elapsed:.3f}s")
    assert np.allclose(aj_vals, [1.0, 3 / 4, 1 / 4], atol=1e-12)
    assert np.allclose(pl_vals, [3 / 4, 1 / 2, 1 / 2, 0.0], atol=1e-12)
    assert elapsed < 1.0


def test_criterion_2_uncensored_reduction(record):
    t0 = time.perf_counter()
    rng = stream(0, "acceptance-uncensored")
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        ys = rng.uniform(0.01, 5.0, size=n)
        proc = SortedCell(np.sort(ys), np.ones(n, dtype=np.int64)).process()
        inc = incidence_from(proc, 1)
        surv = StepFunction(inc.jump_times, 1.0 - inc.values, 1.0)
        probe = np.concatenate([ys, rng.uniform(0.0, 6.0, size=5)])
        ecdf = np.searchsorted(np.sort(ys), probe, side="right") / n
        worst = max(worst, float(np.max(np.abs(surv(probe) - (1.0 - ecdf)))))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 10.0
    record(2, "uncensored single-cause reduces to 1 - ECDF", ok,
           f"max dev {worst:.1e}, {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def test_criterion_3_dgp_moments(record, big_draw_d1, big_draw_d2):
    t0 = time.perf_counter()
    data1, lat1 = big_draw_d1
    data2, lat2 = big_draw_d2
    p_treat = float(lat1.z[lat1.w == 1].mean())
    share1 = float((data1.event == 0).mean())
    share2 = float((data2.event == 0).mean())
    elapsed = time.perf_counter() - t0
    ok_treat = abs(p_treat - 0.73) <= 0.01
    ok_share1 = abs(share1 - 0.30) <= 0.01
    ok_share2 = abs(share2 - 0.10) <= 0.01
    ok = ok_treat and ok_share1 and ok_share2 and elapsed < 30.0
    record(
        3,
        "DGP moments at n=10^6",
        ok,
        f"P(Z=1|W=1)={p_treat:.4f} (0.73±0.01), censor d1={share1:.4f} "
        f"(0.30±0.01: population share is 0.3162, outside the stated band), "
        f"d2={share2:.4f} (0.10±0.01)",
    )
    assert ok_treat, f"take-up {p_treat} outside 0.73 +/- 0.01"
    assert ok_share2, f"design-2 censor share {share2} outside 0.10 +/- 0.01"
    # the design-1 censoring share concentrates at its population value
    # 0.31621 (quadrature and two independent samplers agree), which sits
    # outside the stated 0.30 +/- 0.01 band; kept at the stated tolerance
    assert ok_share1, (
        f"design-1 censor share {share1:.5f} outside 0.30 +/- 0.01 "
        "(the population share under this censoring window is 0.31621)"
    )


def test_criterion_4_latent_rank_uniformity(record):
    _, lat = generate(DgpSpec(design=1, n=100_000, seed=0))
    stat, pvalue = scipy.stats.kstest(lat.u, "uniform")
    ok = pvalue >= 0.01
    record(4, "latent rank passes KS uniformity", ok, f"KS p={pvalue:.3f}")
    assert ok, f"KS p-value {pvalue} below 0.01"


def test_criterion_5_frontier_conservatism(record, mc_design1, mc_design2):
    details = []
    all_ok = True
    for res in (mc_design1, mc_design2):
        truth = GroundTruth(res.design)
        y1 = np.asarray(truth.y1)
        support_ok = float(np.mean(np.all(res.y1_hat <= y1 + 1e-12, axis=1)))
        prev_ok = float(np.mean(res.u_prev <= truth.u_y + 1e-12))
        mean_u_hat = float(res.u_hat.mean())
        in_window = truth.u_y - 0.08 <= mean_u_hat <= truth.u_y
        all_ok &= support_ok == 1.0 and prev_ok >= 0.95 and in_window
        details.append(
            f"d{res.design}: y1 ok {support_ok:.0%}, u_prev ok {prev_ok:.0%}, "
            f"mean u_hat {mean_u_hat:.3f} (target ({truth.u_y - 0.08:.3f}, {truth.u_y:.3f}])"
        )
    record(5, "frontier estimates are conservative", all_ok, "; ".join(details))
    for res in (mc_design1, mc_design2):
        truth = GroundTruth(res.design)
        assert np.all(res.y1_hat <= np.asarray(truth.y1) + 1e-12)
        assert np.mean(res.u_prev <= truth.u_y + 1e-12) >= 0.95
        assert truth.u_y - 0.08 <= res.u_hat.mean() <= truth.u_y


def test_criterion_6_qte_accuracy(record, mc_design1, mc_design2):
    details = []
    all_ok = True
    for res, u_checks in ((mc_design2, (0.1, 0.2, 0.3, 0.4)), (mc_design1, (0.1, 0.2, 0.3))):
        worst = 0.0
        for u in u_checks:
            m = grid_index(res.grid, u)
            qte_all = res.theta[:, m, 1] - res.theta[:, m, 0]
            mean_abs_err = float(np.mean(np.abs(qte_all - (-u))))
            worst = max(worst, mean_abs_err)
            all_ok &= mean_abs_err <= 0.03
        details.append(f"d{res.design} worst mean|err| {worst:.4f}")
    record(6, "QTE accuracy: mean abs error <= 0.03", all_ok, "; ".join(details))
    for res, u_checks in ((mc_design2, (0.1, 0.2, 0.3, 0.4)), (mc_design1, (0.1, 0.2, 0.3))):
        for u in u_checks:
            m = grid_index(res.grid, u)
            qte_all = res.theta[:, m, 1] - res.theta[:, m, 0]
            assert np.mean(np.abs(qte_all - (-u))) <= 0.03, f"design {res.design}, u={u}"


@pytest.mark.slow
def test_criterion_7_coverage(record):
    if FULL:
        n, reps, lo, hi, label = 10_000, 100, 0.90, 0.99, "full"
    else:
        n, reps, lo, hi, label = 2_000, 50, 0.85, 1.0, "smoke"
    res = coverage_study(
        DgpSpec(design=2, n=n, seed=0),
        reps=reps,
        boot=BootstrapConfig(draws=100, seed=0),
        grid=GRID13,
    )
    covs = {u: res.at(u) for u in (0.1, 0.2, 0.3, 0.4)}
    ok = all(lo <= c <= hi for c in covs.values())
    detail = f"{label} n={n}, reps={reps}: " + ", ".join(
        f"u={u}: {c:.3f}" for u, c in covs.items()
    )
    record(7, f"bootstrap coverage in [{lo}, {hi}]", ok, detail)
    for u, c in covs.items():
        assert lo <= c <= hi, f"coverage {c} at u={u} outside [{lo}, {hi}]"


def test_criterion_8_naive_bias(record, mc_design2):
    res = mc_design2
    naive_mean = res.mean_naive_qte()
    qte_mean, _ = res.mean_qte()
    naive_devs, iv_devs = {}, {}
    for u in (0.2, 0.3):
        m = grid_index(res.grid, u)
        naive_devs[u] = abs(float(naive_mean[m]) - (-u))
        iv_devs[u] = abs(float(qte_mean[m]) - (-u))
    naive_biased = any(d > 0.02 for d in naive_devs.values())
    iv_fine = all(iv_devs[u] <= 0.03 for u in naive_devs if naive_devs[u] > 0.02)
    ok = naive_biased and iv_fine
    record(
        8,
        "treatment-only estimator is biased where IV is not",
        ok,
        ", ".join(
            f"u={u}: naive dev {naive_devs[u]:.3f}, iv dev {iv_devs[u]:.3f}" for u in naive_devs
        ),
    )
    assert naive_biased, f"naive deviations {naive_devs} never exceed 0.02"
    assert iv_fine, f"IV deviations {iv_devs} exceed 0.03 where naive is biased"


def test_criterion_9_outer_set_oracle(record):
    rng = stream(0, "acceptance-bounds")
    bad = checked = excused = 0
    for _ in range(50):
        surface, y1, caps = random_step_surface(rng, L=2, K=2)
        u = float(rng.uniform(0.05, 1.0))
        c, d, x = compare_on_lattice(surface, y1, caps, u, points_per_dim=30)
        checked, bad, excused = checked + c, bad + d, excused + x
    for _ in range(10):
        surface, y1, caps = random_step_surface(rng, L=3, K=3)
        u = float(rng.uniform(0.05, 1.0))
        c, d, x = compare_on_lattice(surface, y1, caps, u, points_per_dim=30)
        checked, bad, excused = checked + c, bad + d, excused + x

    contained = 0
    reps = 100
    for r in range(reps):
        data, _ = generate(DgpSpec(design=1, n=10_000, seed=substream_seed(0, "mcrep", r)))
        surf = assemble_surface(data)
        os_ = outer_set(0.4, surf, BoundFrontiers.from_data(data))
        contained += os_.contains((0.8, 0.4))
    ok = bad == 0 and contained == reps
    record(
        9,
        "outer sets match the membership oracle",
        ok,
        f"{checked} lattice points, {bad} disagreements, {excused} at bisection edges; "
        f"truth point contained in {contained}/{reps} replications",
    )
    assert bad == 0
    assert contained == reps


def test_criterion_10_population_residual(record, big_draw_d2):
    _, lat = big_draw_d2
    truth = GroundTruth(2)
    worst_sigma = 0.0
    for u in (0.1, 0.25, 0.4):
        for w in (0, 1):
            sel = lat.w == w
            n_w = int(np.count_nonzero(sel))
            phi = np.array([truth.phi1(0, u), truth.phi1(1, u)])
            # improper duration: infinite on secondary-cause ranks
            alive = (lat.e == 2) | (lat.t >= phi[lat.z])
            p_hat = float(np.mean(alive[sel]))
            se = math.sqrt(max(p_hat * (1.0 - p_hat), 1e-12) / n_w)
            worst_sigma = max(worst_sigma, abs(p_hat - (1.0 - u)) / se)
    ok = worst_sigma <= 3.0
    record(
        10,
        "system of equations holds at the truth (MC)",
        ok,
        f"max |resid|/SE = {worst_sigma:.2f} over u in (0.1, 0.25, 0.4) x both instrument arms",
    )
    assert ok, f"population residual {worst_sigma:.2f} standard errors from zero"


def test_criterion_11_cli_determinism(record, tmp_path):
    sim = tmp_path / "sim"
    assert cli_main(["simulate", "--design", "2", "--n", "400", "--seed", "0",
                     "--out", str(sim)]) == 0
    pairs = []
    for threads in ("1", "3"):
        est = tmp_path / f"est{threads}"
        assert cli_main([
            "estimate", "--data", str(sim / "data.csv"), "--out", str(est),
            "--grid", "15", "--naive", "--boot-draws", "16",
            "--seed", "0", "--threads", threads,
        ]) == 0
        mc = tmp_path / f"mc{threads}"
        assert cli_main([
            "mc", "--design", "1", "--n", "250", "--reps", "2", "--grid", "8",
            "--boot-draws", "8", "--seed", "0", "--out", str(mc),
            "--threads", threads,
        ]) == 0
        bnd = tmp_path / f"bnd{threads}"
        assert cli_main([
            "bounds", "--data", str(sim / "data.csv"), "--out", str(bnd),
            "--u", "0.9", "--grid", "15", "--threads", threads,
        ]) == 0
        pairs.append((est, mc, bnd))

    n_files = 0
    identical = True
    for a, b in zip(pairs[0], pairs[1]):
        for f in sorted(a.iterdir()):
            if f.name == "manifest.json":  # carries timestamps and the thread count
                continue
            n_files += 1
            identical &= f.read_bytes() == (b / f.name).read_bytes()
    ok = identical and n_files >= 8
    record(11, "CLI outputs byte-identical across re-runs and thread counts", ok,
           f"{n_files} files compared")
    assert identical
    # manifests carry the config used
    manifest = json.loads((pairs[0][0] / "manifest.json").read_text())
    assert manifest["config"]["threads"] == 1
