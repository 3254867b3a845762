import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from crqiv.bounds import LATTICE_BLOCK, _write_lattice
from crqiv.cli import _fmt, _resolve_config, _write_csv, build_parser, main
from crqiv.data import load_csv
from crqiv.estimator import NO_ROOT, PAST_FRONTIER, REPORTED, EstimationError
from crqiv.simulate import DgpSpec


def run(argv):
    return main([str(a) for a in argv])


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("sim")
    assert run(["simulate", "--design", 2, "--n", 600, "--seed", 3, "--out", out]) == 0
    return out


@pytest.fixture(scope="module")
def est_dir(tmp_path_factory, sim_dir):
    out = tmp_path_factory.mktemp("est")
    code = run([
        "estimate", "--data", sim_dir / "data.csv", "--out", out,
        "--grid", 20, "--naive", "--derived", "--boot-draws", 20,
        "--seed", 1, "--threads", 1,
    ])
    assert code == 0
    return out


# -- plumbing -------------------------------------------------------------------


def test_fmt_cells():
    assert _fmt(float("nan")) == ""
    assert _fmt(None) == ""
    assert _fmt(float("inf")) == "inf"
    assert _fmt(float("-inf")) == "-inf"
    assert _fmt(0.1) == "0.1"
    assert _fmt(1 / 3) == repr(1 / 3)
    assert _fmt(7) == "7"
    assert _fmt("x") == "x"


def test_lattice_writer_matches_row_writer(tmp_path):
    # the streamed lattice writer's reference is the cell-by-cell _fmt writer;
    # each case writes two files, each with its own verdicts
    rng = np.random.default_rng(0)
    cases = [
        ([0.7, 1.3], 150, "random"),
        ([0.7, 1.3, 2.1], 20, "random"),
        ([0.7, 1.3], 1, "random"),
        ([1e-5, 1e16], 9, "random"),  # axis values whose repr has an exponent
        ([1e-5, 0.5, 1e16], 4, "random"),
        ([0.7, 1.3], 70, "zeros"),
        ([0.7, 1.3, 2.1], 7, "ones"),
        ([0.7, 1.3, 2.1], 30, "random"),  # four blocks, each edge inside a run of the last axis
    ]
    assert 3 * LATTICE_BLOCK < 30 ** 3 and LATTICE_BLOCK % 30
    for y1, npts, verdicts in cases:
        axes = [np.linspace(0.0, 1.5 * y, npts) for y in y1]
        lattice = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, len(y1))
        if verdicts == "random":
            member = rng.uniform(size=(2, len(lattice))) < 0.5
        else:
            member = np.full((2, len(lattice)), verdicts == "ones")
        done = [0]  # rows given verdicts so far

        def block_verdicts(theta):
            a = done[0]
            done[0] += len(theta)
            assert len(theta) <= LATTICE_BLOCK and np.array_equal(theta, lattice[a:done[0]])
            return member[:, a:done[0]]

        header = [f"theta_{l}" for l in range(len(y1))] + ["member"]
        paths = [tmp_path / "lattice_a.csv", tmp_path / "lattice_b.csv"]
        _write_lattice(paths, axes, block_verdicts)
        assert done[0] == len(lattice)
        for path, m in zip(paths, member):
            _write_csv(tmp_path / "rows.csv", header, zip(*lattice.T.tolist(), m.astype(int).tolist()))
            got = path.read_bytes()
            assert got == (tmp_path / "rows.csv").read_bytes(), (y1, npts, verdicts)
            assert got.count(b"\n") == npts ** len(y1) + 1


def test_parser_requires_command_and_flags(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--design", "1"])  # missing n/out
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--design", "3", "--n", "5", "--out", "x"])
    with pytest.raises(SystemExit):
        build_parser().parse_args(["mc", "--design", "1", "--n", "0", "--reps", "2", "--out", "x"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["--version"])
    assert exc.value.code == 0
    assert "crqiv" in capsys.readouterr().out


def test_python_m_crqiv_runs_the_cli(child_env):
    for module in ("crqiv", "crqiv.cli"):
        done = subprocess.run([sys.executable, "-m", module, "--version"], env=child_env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("crqiv "), module


# -- simulate -------------------------------------------------------------------


def test_simulate_outputs(sim_dir):
    data = load_csv(sim_dir / "data.csv")
    assert data.n == 600
    assert (1, 0) in [tuple(c) for c in data.structural_zeros]
    manifest = json.loads((sim_dir / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["seed"] == 3
    assert manifest["config"]["design"] == 2
    assert "created_utc" in manifest


def test_simulate_deterministic(tmp_path, sim_dir):
    again = tmp_path / "again"
    assert run(["simulate", "--design", 2, "--n", 600, "--seed", 3, "--out", again]) == 0
    assert (again / "data.csv").read_bytes() == (sim_dir / "data.csv").read_bytes()


# -- estimate -------------------------------------------------------------------


def test_estimate_outputs(est_dir):
    fit = json.loads((est_dir / "fit.json").read_text())
    assert fit["n"] == 600
    assert len(fit["grid"]) == 20
    assert 0 < fit["u_hat"] <= 1
    assert len(fit["theta"]) == 20
    assert len(fit["residual"]) == 20
    assert all(r <= 1e-12 for r, rep in zip(fit["residual"], fit["reported"]) if rep)

    curves = (est_dir / "curves.csv").read_text().splitlines()
    assert curves[0] == "u,theta_0,theta_1,reported,naive_0,naive_1"
    assert len(curves) == 21
    # unreported rows have blank theta cells; naive columns may carry inf
    last = curves[-1].split(",")
    assert last[1] == "" and last[2] == ""

    qte = (est_dir / "qte.csv").read_text().splitlines()
    assert qte[0] == "u,qte,reported"
    assert len(qte) == 21

    derived = (est_dir / "derived.csv").read_text().splitlines()
    assert derived[0] == "level,u,t,density,subdist_hazard,cause_hazard"
    assert len(derived) > 2

    band = (est_dir / "band.csv").read_text().splitlines()
    assert band[0] == "u,lower,point,upper,n_reported"
    assert len(band) == 21

    manifest = json.loads((est_dir / "manifest.json").read_text())
    assert manifest["command"] == "estimate"
    assert len(manifest["inputs"]) == 1
    assert manifest["bootstrap_failures"] == []
    # one status code per grid point in fit.json, and the manifest counts them by kind
    assert [s == REPORTED for s in fit["status"]] == fit["reported"]
    counts = manifest["status_counts"]
    assert sorted(counts) == ["no_root", "not_certified", "past_frontier", "reported"]
    assert counts["reported"] == sum(fit["reported"]) and sum(counts.values()) == 20
    assert counts["past_frontier"] == fit["status"].count(PAST_FRONTIER)
    assert counts["no_root"] == sum(s >= NO_ROOT for s in fit["status"])


def test_estimate_manifest_holds_the_rank_condition_only_with_derived(tmp_path, sim_dir, est_dir):
    from dataclasses import asdict

    from crqiv.derived import rank_condition_diagnostic
    from crqiv.bounds import estimate_y1
    from crqiv.surface import assemble_surface

    data = load_csv(sim_dir / "data.csv")
    want = asdict(rank_condition_diagnostic(assemble_surface(data), estimate_y1(data)))
    assert len(want) == 7 and want["applicable"]
    assert json.loads((est_dir / "manifest.json").read_text())["rank_condition"] == want
    out = tmp_path / "est"
    assert run(["estimate", "--data", sim_dir / "data.csv", "--out", out, "--grid", 20]) == 0
    assert "rank_condition" not in json.loads((out / "manifest.json").read_text())


def test_estimate_fewer_instrument_than_treatment_levels_exits_1(tmp_path, capsys):
    from crqiv.data import save_csv
    from test_estimator import fewer_instrument_levels

    save_csv(fewer_instrument_levels(), tmp_path / "data.csv")
    out = tmp_path / "est"
    assert run(["estimate", "--data", tmp_path / "data.csv", "--out", out, "--grid", 20, "--derived"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: K = 2 instrument levels cannot point-identify L = 3 ") and err.count("\n") == 1
    assert not out.exists()


def no_secondary_events_at_level_1():
    """Design-2 data whose treatment level 1 has no secondary-cause events: its cause-2 fit fails."""
    from crqiv.data import Dataset
    from crqiv.simulate import generate

    data, _ = generate(DgpSpec(design=2, n=600, seed=3))
    event = np.where((data.event == 2) & (data.z == 1), 0, data.event)
    return Dataset(data.y, event, data.z, data.w, data.treatment_levels, data.instrument_levels,
                   data.structural_zeros)


@pytest.mark.parametrize("flags, message", [
    (["--derived"], "error: the secondary-cause fit of --derived failed: treatment level 1 has no "
                    "secondary-cause events; its quantile support bound cannot be estimated\n"),
    (["--boot-draws", 5], "error: every bootstrap replicate failed\n"),
], ids=["derived", "band"])
def test_estimate_that_fails_after_its_fit_leaves_no_out_dir(tmp_path, capsys, monkeypatch, flags, message):
    from crqiv import inference
    from crqiv.data import save_csv

    def every_replicate_fails(data, counts, **kwargs):
        return [EstimationError("nope")] * len(counts)

    monkeypatch.setattr(inference, "fit_replicates", every_replicate_fails)
    save_csv(no_secondary_events_at_level_1(), tmp_path / "data.csv")
    out = tmp_path / "est"
    assert run(["estimate", "--data", tmp_path / "data.csv", "--out", out, "--grid", 20, "--naive", *flags]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


def test_estimate_manifest_names_failed_replicates(tmp_path):
    from crqiv.data import save_csv
    from test_inference import thin_cell_data

    save_csv(thin_cell_data(), tmp_path / "thin.csv")
    out = tmp_path / "est"
    code = run(["estimate", "--data", tmp_path / "thin.csv", "--out", out,
                "--grid", 20, "--boot-draws", 40, "--seed", 0])
    assert code == 0
    failures = json.loads((out / "manifest.json").read_text())["bootstrap_failures"]
    assert 0 < len(failures) < 40
    for b, reason in failures:
        assert 0 <= b < 40
        assert reason.startswith(("cell (treatment 0, instrument 1): ", "empty cell (z=0, w=1); "))
    assert (out / "band.csv").read_text().splitlines()[0] == "u,lower,point,upper,n_reported"


def test_estimate_band_rows_consistent(est_dir):
    rows = [r.split(",") for r in (est_dir / "band.csv").read_text().splitlines()[1:]]
    for u_txt, lo_txt, pt_txt, hi_txt, n_txt in rows:
        n = int(n_txt)
        assert 0 <= n <= 20
        if lo_txt:
            assert float(lo_txt) <= float(pt_txt) <= float(hi_txt)


def test_estimate_deterministic(tmp_path, sim_dir, est_dir):
    again = tmp_path / "est2"
    code = run([
        "estimate", "--data", sim_dir / "data.csv", "--out", again,
        "--grid", 20, "--naive", "--derived", "--boot-draws", 20,
        "--seed", 1, "--threads", 3,
    ])
    assert code == 0
    for name in ("fit.json", "curves.csv", "qte.csv", "derived.csv", "band.csv"):
        assert (again / name).read_bytes() == (est_dir / name).read_bytes(), name


def test_estimate_does_not_depend_on_record_order(tmp_path, sim_dir):
    # 80 primary-cause failures at time 0, half written as -0, tie across the cells
    header, *rows = (sim_dir / "data.csv").read_text().splitlines()
    rows = [f"{('0', '-0')[i % 2]},1,{row.split(',', 2)[2]}" if i < 80 else row for i, row in enumerate(rows)]
    shuffled = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    outs = []
    for name, body in (("kept", rows), ("shuffled", shuffled)):
        path = tmp_path / name / "data.csv"
        path.parent.mkdir()
        path.write_text("\n".join([header, *body]) + "\n")
        (tmp_path / name / "data.csv.levels.json").write_bytes((sim_dir / "data.csv.levels.json").read_bytes())
        outs.append(tmp_path / name / "out")
        assert run(["estimate", "--data", path, "--out", outs[-1], "--grid", 20, "--naive", "--derived"]) == 0
    for name in ("fit.json", "curves.csv", "qte.csv", "derived.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name


def test_estimate_missing_data_exits_2(tmp_path, capsys):
    code = run(["estimate", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o"])
    assert code == 2
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_bounds_missing_data_exits_2(tmp_path, capsys):
    code = run(["bounds", "--data", tmp_path / "nope.csv", "--out", tmp_path / "o", "--u", 0.9])
    assert code == 2
    assert "not found" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("delta", ["nan", "inf", "-inf"])
def test_estimate_non_finite_delta_exits_1(tmp_path, sim_dir, capsys, delta):
    out = tmp_path / "o"
    code = run(["estimate", "--data", sim_dir / "data.csv", "--out", out, "--grid", 5, f"--delta={delta}"])
    assert code == 1
    assert "delta must be a positive" in capsys.readouterr().err
    assert not out.exists()


def test_commands_do_not_load_numpy_ma(tmp_path, sim_dir, est_dir, child_env):
    # numpy.ma costs a command about 14 ms and 1 MB to import, and nothing needs it
    script = (
        "import sys\n"
        "from crqiv.cli import main\n"
        "for argv in sys.argv[1:]:\n"
        "    assert main(argv.split('|')) == 0, argv\n"
        "assert 'numpy.ma' not in sys.modules\n"
    )
    data = sim_dir / "data.csv"
    commands = [
        ["estimate", "--data", data, "--out", tmp_path / "e", "--grid", 10, "--naive", "--derived",
         "--boot-draws", 4, "--seed", 1],
        ["bounds", "--data", data, "--fit-json", est_dir / "fit.json", "--u", 0.6, "--u", 0.75,
         "--lattice", 5, "--out", tmp_path / "b"],
        ["mc", "--design", 2, "--n", 600, "--reps", 2, "--boot-draws", 4, "--grid", 10, "--seed", 0,
         "--out", tmp_path / "m"],
    ]
    done = subprocess.run([sys.executable, "-c", script, *("|".join(map(str, c)) for c in commands)],
                          env=child_env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr


def modules_loaded_by(argv, env):
    """(exit code, sorted(sys.modules)) of ``main(argv)`` run in a fresh interpreter."""
    script = (
        "import sys\n"
        "from crqiv.cli import main\n"
        "try:\n"
        "    code = main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "modules = sorted(sys.modules)\n"
        "import json\n"
        "print(json.dumps([code, modules]))\n"
    )
    done = subprocess.run([sys.executable, "-c", script, *map(str, argv)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("flag", ["--version", "--help"])
def test_version_and_help_load_no_library_code(flag, child_env):
    code, modules = modules_loaded_by([flag], child_env)
    assert code == 0
    assert "numpy" not in modules
    assert [m for m in modules if m.startswith("crqiv.")] == ["crqiv.cli"]
    # the manifest's JSON, hashing and clock modules load only with a manifest
    assert not {"json", "hashlib", "datetime"} & set(modules)


def test_each_command_loads_only_what_it_runs(tmp_path, sim_dir, est_dir, child_env):
    # every module a run imports is compiled again where no bytecode cache
    # is written, so a command that skips one starts faster; only simulate
    # writes a data file, so only it loads save_csv's text kernel
    data = sim_dir / "data.csv"
    cases = [
        (["simulate", "--design", 2, "--n", 100, "--out", tmp_path / "s"],
         ["estimator", "surface", "smoothing", "survival", "optim", "bounds", "inference", "derived"]),
        (["estimate", "--data", data, "--out", tmp_path / "e", "--grid", 10, "--naive"],
         ["inference", "_rng", "bounds", "simulate", "derived", "_csv_text"]),
        (["bounds", "--data", data, "--fit-json", est_dir / "fit.json", "--u", 0.9, "--lattice", 3,
          "--out", tmp_path / "b"],
         ["estimator", "optim", "inference", "simulate", "derived", "_rng", "_csv_text"]),
        (["mc", "--design", 2, "--n", 600, "--reps", 2, "--boot-draws", 4, "--grid", 10, "--out", tmp_path / "m"],
         ["bounds", "derived", "_csv_text"]),
    ]
    for argv, absent in cases:
        code, modules = modules_loaded_by(argv, child_env)
        assert code == 0, argv[0]
        assert not {f"crqiv.{m}" for m in absent} & set(modules), argv[0]
        assert ("crqiv._csv_text" in modules) == (argv[0] == "simulate"), argv[0]
        if argv[0] == "estimate":
            assert "numpy.random" not in modules


def test_estimate_data_directory_exits_1(tmp_path, capsys):
    code = run(["estimate", "--data", tmp_path, "--out", tmp_path / "o"])
    assert code == 1
    assert capsys.readouterr().err == f"error: not a regular file: {tmp_path}\n"


def test_config_file_overrides_flags(tmp_path, sim_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid": 10, "seed": 42}))
    out = tmp_path / "out"
    code = run([
        "estimate", "--data", sim_dir / "data.csv", "--out", out,
        "--grid", 50, "--config", cfg,
    ])
    assert code == 0
    fit = json.loads((out / "fit.json").read_text())
    assert len(fit["grid"]) == 10
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 42


def test_config_unknown_key_exits_1(tmp_path, sim_dir, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"gird": 10}))
    code = run([
        "estimate", "--data", sim_dir / "data.csv", "--out", tmp_path / "o",
        "--config", cfg,
    ])
    assert code == 1
    assert "unknown config keys" in capsys.readouterr().err


def test_config_missing_file_exits_2(tmp_path, sim_dir):
    code = run([
        "estimate", "--data", sim_dir / "data.csv", "--out", tmp_path / "o",
        "--config", tmp_path / "missing.json",
    ])
    assert code == 2


@pytest.mark.parametrize("flag", ["--config", "--fit-json"])
def test_file_that_is_not_json_is_named_exits_1(tmp_path, sim_dir, capsys, flag):
    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    out = tmp_path / "o"
    code = run(["bounds", "--data", sim_dir / "data.csv", "--out", out, "--u", 0.9, flag, bad])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {bad}: not valid JSON: Expecting value")
    assert not out.exists()


@pytest.mark.parametrize("command, doc, message", [
    ("estimate", {"level": "0.9"}, "level must be a number, got '0.9'"),
    ("estimate", {"level": None}, "level must be a number, got None"),
    ("bounds", {"u": 0.6}, "u must be a non-empty list of numbers, got 0.6"),
    ("bounds", {"u": ["0.6"]}, "u must be a non-empty list of numbers, got ['0.6']"),
    ("bounds", {"u": [0.9, True]}, "u must be a non-empty list of numbers, got [0.9, True]"),
    ("bounds", {"u": []}, "u must be a non-empty list of numbers, got []"),
    ("simulate", {"seed": True}, "seed must be a non-negative integer, got True"),
    ("simulate", {"seed": 1.5}, "seed must be a non-negative integer, got 1.5"),
    ("estimate", {"seed": -1}, "seed must be a non-negative integer, got -1"),
    ("estimate", {"bandwidth": [0.1]}, "bandwidth must be a number or null, got [0.1]"),
    ("estimate", {"bandwidth": {"a": 0.1}}, "bandwidth must be a number or null, got {'a': 0.1}"),
    ("estimate", {"bandwidth": True}, "bandwidth must be a number or null, got True"),
    ("bounds", {"bandwidth": "0.1"}, "bandwidth must be a number or null, got '0.1'"),
    ("estimate", {"delta": {"a": 1}}, "delta must be a number, a list of numbers or null, got {'a': 1}"),
    ("estimate", {"delta": "0.1"}, "delta must be a number, a list of numbers or null, got '0.1'"),
    ("estimate", {"delta": [0.1, False]}, "delta must be a number, a list of numbers or null, got [0.1, False]"),
    ("bounds", {"delta": True}, "delta must be a number, a list of numbers or null, got True"),
])
def test_bad_number_in_config_exits_1(tmp_path, sim_dir, capsys, command, doc, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    args = {
        "estimate": ["--data", sim_dir / "data.csv", "--boot-draws", 10],
        "bounds": ["--data", sim_dir / "data.csv", "--u", 0.9],
        "simulate": ["--design", 2, "--n", 50],
    }[command]
    assert run([command, *args, "--out", out, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_negative_seed_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["simulate", "--design", "1", "--n", "50", "--out", "o", "--seed", "-1"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


def test_config_u_and_level_are_read_as_the_flags_are(tmp_path, sim_dir):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"u": [1, 0.9]}))
    out = tmp_path / "o"
    assert run(["bounds", "--data", sim_dir / "data.csv", "--out", out, "--u", 0.5, "--grid", 25, "--config", cfg]) == 0
    # a JSON 1 is read as 1.0, as the flag would read "1"
    sets = json.loads((out / "bounds.json").read_text())["sets"]
    assert [(type(s["u"]), s["u"]) for s in sets] == [(float, 1.0), (float, 0.9)]
    assert json.loads((out / "manifest.json").read_text())["config"]["u"] == [1.0, 0.9]
    args = build_parser().parse_args(["estimate", "--data", "d.csv", "--out", "o", "--config", str(cfg)])
    cfg.write_text(json.dumps({"level": 1}))
    level = _resolve_config(args)["level"]
    assert type(level) is float and level == 1.0


def test_config_bandwidth_and_delta_are_read_as_numbers(tmp_path):
    cfg = tmp_path / "cfg.json"
    args = build_parser().parse_args(["estimate", "--data", "d.csv", "--out", "o", "--config", str(cfg)])
    for doc, want in [({"bandwidth": 1, "delta": [1, 0.5]}, (1.0, [1.0, 0.5])),
                      ({"bandwidth": None, "delta": 2}, (None, 2.0)),
                      ({"bandwidth": 0.1, "delta": None}, (0.1, None))]:
        cfg.write_text(json.dumps(doc))
        resolved = _resolve_config(args)
        got = resolved["bandwidth"], resolved["delta"]
        assert got == want and [type(v) for v in got] == [type(v) for v in want]


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--design", 1, "--n", 2], "empty cell (z=0, w=1)"),
    (["mc", "--design", 2, "--n", 3, "--reps", 1], "bandwidth rule needs at least 2 observations"),
])
def test_failed_simulate_and_mc_leave_no_out_dir(tmp_path, capsys, argv, message):
    out = tmp_path / "o"
    assert run([*argv, "--out", out]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_config_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "o"
    assert run(["simulate", "--design", 1, "--n", 50, "--out", out, "--config", tmp_path]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(tmp_path) in err
    assert not out.exists()


@pytest.mark.parametrize("key, command", [("grid", "estimate"), ("n", "simulate"), ("reps", "mc"), ("bins", "mc")])
@pytest.mark.parametrize("value", ["5", 0, -2, 2.5, True])
def test_bad_integer_in_config_exits_1(tmp_path, sim_dir, capsys, key, command, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "o"
    args = {
        "estimate": ["--data", sim_dir / "data.csv"],
        "simulate": ["--design", 2, "--n", 50],
        "mc": ["--design", 2, "--n", 500, "--reps", 2],
    }[command]
    assert run([command, *args, "--out", out, "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {key} must be a positive integer, got {value!r}\n"
    assert not out.exists()


# the JSON types each command's --config keys take: a choice takes none of the
# probes below (5 is neither design 1 nor 2, "5" no kind)
_INT, _NUM, _PATH, _SWITCH, _NULL, _CHOICE = {int}, {int, float}, {str}, {bool}, {type(None)}, set()
_COMMON = {"seed": _INT, "out": _PATH, "threads": _INT | _NULL}
_FIT = {"grid": _INT, "bandwidth": _NUM | _NULL, "delta": _NUM | {list} | _NULL, "kind": _CHOICE}
CONFIG_KEYS = {
    "simulate": {"design": _CHOICE, "n": _INT, **_COMMON},
    "estimate": {"data": _PATH, "naive": _SWITCH, "derived": _SWITCH, "boot_draws": _INT, "level": _NUM,
                 **_COMMON, **_FIT},
    "bounds": {"data": _PATH, "u": {list}, "fit_json": _PATH | _NULL, "lattice": _INT, **_COMMON, **_FIT},
    "mc": {"design": _CHOICE, "n": _INT, "reps": _INT, "boot_draws": _INT, "level": _NUM, "bins": _INT,
           **_COMMON, **_FIT},
}
_PROBES = ["5", True, 2.5, 5, [1], {"a": 1}, None]


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in CONFIG_KEYS.items() for k in keys])
def test_config_value_of_the_wrong_type_exits_1(tmp_path, sim_dir, capsys, command, key):
    # every value a key's flag could not give is rejected, named, before any work
    args = {
        "simulate": ["--design", 2, "--n", 50],
        "estimate": ["--data", sim_dir / "data.csv"],
        "bounds": ["--data", sim_dir / "data.csv", "--u", 0.9],
        "mc": ["--design", 2, "--n", 500, "--reps", 2],
    }[command]
    assert set(CONFIG_KEYS[command]) == set(_resolve_config(build_parser().parse_args(
        [command, *map(str, args), "--out", "o"]))) - {"command"}
    cfg, out = tmp_path / "cfg.json", tmp_path / "o"
    wrong = [v for v in _PROBES if type(v) not in CONFIG_KEYS[command][key]]
    assert wrong
    for value in wrong:
        cfg.write_text(json.dumps({key: value}))
        assert run([command, *args, "--out", out, "--config", cfg]) == 1, value
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must be ") and err.endswith(f", got {value!r}\n"), err
        assert err.count("\n") == 1 and not out.exists()


# -- bounds ---------------------------------------------------------------------


def test_bounds_outputs(tmp_path, sim_dir):
    out = tmp_path / "bounds"
    code = run([
        "bounds", "--data", sim_dir / "data.csv", "--out", out,
        "--u", 0.8, "--u", 0.9, "--grid", 25, "--lattice", 6,
    ])
    assert code == 0
    doc = json.loads((out / "bounds.json").read_text())
    assert 0 < doc["u_y"] <= 1
    assert len(doc["sets"]) == 2
    for s in doc["sets"]:
        assert s["case"] in ("i", "ii", "iii", "iv", "empty", "recursive")
        for p in s["pieces"]:
            for v in p["upper"]:
                assert v == "inf" or isinstance(v, float)
    # larger u keeps at least as many pieces
    assert (out / "bounds_lattice_u0.8.csv").exists()
    lat = (out / "bounds_lattice_u0.9.csv").read_text().splitlines()
    assert lat[0] == "theta_0,theta_1,member"
    assert len(lat) == 37
    assert {r.rsplit(",", 1)[1] for r in lat[1:]} <= {"0", "1"}


@pytest.mark.parametrize("us", [(0.6, 0.6000001), (0.8, 0.9, 0.8)])
def test_bounds_rejects_colliding_lattice_files(tmp_path, sim_dir, capsys, us):
    out = tmp_path / "b"
    argv = ["bounds", "--data", sim_dir / "data.csv", "--out", out, "--lattice", 5]
    code = run(argv + [a for u in us for a in ("--u", u)])
    assert code == 1
    err = capsys.readouterr().err
    first, second = us[0], us[-1]
    assert f"u={first!r}" in err and f"u={second!r}" in err
    assert f"bounds_lattice_u{first:g}.csv" in err
    assert not out.exists()
    # without a lattice no file is written, so the same u values are fine
    assert run(argv[:-2] + [a for u in us for a in ("--u", u)] + ["--grid", 25]) == 0
    assert len(json.loads((out / "bounds.json").read_text())["sets"]) == len(us)


def test_bounds_negative_lattice_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["bounds", "--data", "d.csv", "--out", "o", "--u", "0.9", "--lattice", "-3"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("value", [-3, 2.5, "6", True])
def test_bounds_bad_lattice_in_config_exits_1(tmp_path, sim_dir, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"lattice": value}))
    out = tmp_path / "b"
    code = run(["bounds", "--data", sim_dir / "data.csv", "--out", out, "--u", 0.9, "--config", cfg])
    assert code == 1
    assert f"lattice must be a non-negative integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_bounds_below_frontier_exits_1(tmp_path, sim_dir, capsys):
    code = run([
        "bounds", "--data", sim_dir / "data.csv", "--out", tmp_path / "b",
        "--u", 0.01, "--grid", 25,
    ])
    assert code == 1
    assert "point-identified" in capsys.readouterr().err
    assert not (tmp_path / "b").exists()


def test_bounds_reuses_fit_json(tmp_path, sim_dir, est_dir):
    out = tmp_path / "bounds_fit"
    code = run([
        "bounds", "--data", sim_dir / "data.csv", "--out", out,
        "--u", 0.9, "--fit-json", est_dir / "fit.json",
    ])
    assert code == 0
    doc = json.loads((out / "bounds.json").read_text())
    fit = json.loads((est_dir / "fit.json").read_text())
    assert doc["u_y"] == fit["u_hat"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["inputs"]) == 2


def test_bounds_frontier_from_the_fit_or_the_data_is_the_same(tmp_path, sim_dir, est_dir):
    # est_dir's fit is on the same 20-point grid, so its u_hat is the frontier a fit inside bounds finds
    docs = []
    for extra in ([], ["--fit-json", est_dir / "fit.json"]):
        out = tmp_path / str(len(docs))
        assert run(["bounds", "--data", sim_dir / "data.csv", "--out", out, "--grid", 20, "--u", 0.9, *extra]) == 0
        docs.append((out / "bounds.json").read_bytes())
    assert docs[0] == docs[1]


def test_bounds_missing_fit_json_exits_2(tmp_path, sim_dir):
    code = run([
        "bounds", "--data", sim_dir / "data.csv", "--out", tmp_path / "b",
        "--u", 0.9, "--fit-json", tmp_path / "nope.json",
    ])
    assert code == 2


def test_bounds_fit_json_directory_exits_2(tmp_path, sim_dir, capsys):
    fit_dir = tmp_path / "fit"
    fit_dir.mkdir()
    code = run(["bounds", "--data", sim_dir / "data.csv", "--out", tmp_path / "b", "--u", 0.9, "--fit-json", fit_dir])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(fit_dir) in err


@pytest.mark.parametrize("doc", [{"grid": [0.5, 1.0]}, {"u_hat": None}, {"u_hat": "0.5"}, {"u_hat": True}, [0.5]])
def test_bounds_fit_json_without_numeric_u_hat_exits_1(tmp_path, sim_dir, capsys, doc):
    fit_path = tmp_path / "fit.json"
    fit_path.write_text(json.dumps(doc))
    code = run(["bounds", "--data", sim_dir / "data.csv", "--out", tmp_path / "b", "--u", 0.9, "--fit-json", fit_path])
    assert code == 1
    assert capsys.readouterr().err.startswith(f"error: {fit_path}: u_hat must be a number, got ")
    assert not (tmp_path / "b").exists()


def test_bounds_fit_json_of_other_data_exits_1(tmp_path, sim_dir, est_dir, capsys, monkeypatch):
    # a design-1 fit, and the data's own fit with another n, used with design-2 data,
    # rejected from the data's support bounds before any surface is built
    import crqiv.surface

    calls = []
    monkeypatch.setattr(crqiv.surface, "assemble_surface", lambda *args, **kwargs: calls.append(1))
    other = tmp_path / "other"
    assert run(["simulate", "--design", 1, "--n", 600, "--seed", 3, "--out", other]) == 0
    assert run(["estimate", "--data", other / "data.csv", "--out", other, "--grid", 20]) == 0
    doc = json.loads((est_dir / "fit.json").read_text())
    (tmp_path / "fit.json").write_text(json.dumps({**doc, "n": doc["n"] + 1}))
    capsys.readouterr()
    for fit_path in (other / "fit.json", tmp_path / "fit.json"):
        code = run(["bounds", "--data", sim_dir / "data.csv", "--out", tmp_path / "b", "--u", 0.9,
                    "--fit-json", fit_path])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {fit_path}: not a fit of ") and err.count("\n") == 1
        assert not (tmp_path / "b").exists()
    assert calls == []


def test_bounds_lattice_memory_does_not_grow_with_npts(tmp_path, sim_dir, est_dir):
    # bounds streams its lattice a block of rows at a time, so 16 times the
    # rows leave the traced peak where it was (1,764,531 and 1,800,562 bytes
    # at npts 100 and 400 with numpy 2.4, each after a warm run); the
    # allowance covers the axis byte tables, which grow with npts.  Holding
    # every row's text, the lattice and its meshgrid, it peaked at 1,817,945
    # and 24,490,214
    peaks = []
    for npts in (100, 400):
        tracemalloc.start()
        try:
            assert run(["bounds", "--data", sim_dir / "data.csv", "--fit-json", est_dir / "fit.json", "--u", 0.9,
                        "--lattice", npts, "--out", tmp_path / str(npts)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= peaks[0] + 250_000, peaks


def test_bounds_assembles_the_surface_once(tmp_path, sim_dir, monkeypatch):
    import crqiv.estimator
    import crqiv.surface
    from crqiv.surface import assemble_surface

    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return assemble_surface(*args, **kwargs)

    monkeypatch.setattr(crqiv.surface, "assemble_surface", counted)
    monkeypatch.setattr(crqiv.estimator, "assemble_surface", counted)
    code = run([
        "bounds", "--data", sim_dir / "data.csv", "--out", tmp_path / "b",
        "--u", 0.9, "--grid", 25,
    ])
    assert code == 0
    assert len(calls) == 1


def test_threads_recorded_as_given(tmp_path):
    for threads in (None, 3):
        out = tmp_path / f"sim{threads}"
        extra = [] if threads is None else ["--threads", threads]
        assert run(["simulate", "--design", 1, "--n", 50, "--out", out] + extra) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["threads"] == threads


@pytest.mark.parametrize("value", [-4, 0, 2.5, True, "x"])
def test_bad_threads_in_config_exits_1(tmp_path, capsys, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": value}))
    out = tmp_path / "o"
    assert run(["simulate", "--design", 1, "--n", 50, "--out", out, "--config", cfg]) == 1
    assert f"threads must be a positive integer or null, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


def test_threads_in_config_recorded_as_the_flag_would_be(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 4}))
    assert run(["simulate", "--design", 1, "--n", 50, "--out", tmp_path / "o", "--threads", 2, "--config", cfg]) == 0
    assert json.loads((tmp_path / "o" / "manifest.json").read_text())["config"]["threads"] == 4


@pytest.mark.parametrize("command", ["estimate", "mc"])
def test_negative_boot_draws_flag_is_rejected(capsys, command):
    args = {"estimate": ["--data", "d.csv"], "mc": ["--design", "2", "--n", "500", "--reps", "2"]}[command]
    argv = [command, *args, "--out", "o", "--boot-draws"]
    assert build_parser().parse_args(argv + ["0"]).boot_draws == 0
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["-1"])
    assert exc.value.code == 2
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "mc"])
@pytest.mark.parametrize("value", [-5, 2.5, "6"])
def test_bad_boot_draws_in_config_exits_1(tmp_path, sim_dir, capsys, command, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"boot_draws": value}))
    out = tmp_path / "o"
    args = {"estimate": ["--data", sim_dir / "data.csv"], "mc": ["--design", 2, "--n", 500, "--reps", 2]}[command]
    code = run([command, *args, "--out", out, "--grid", 10, "--config", cfg])
    assert code == 1
    assert f"boot_draws must be a non-negative integer, got {value!r}" in capsys.readouterr().err
    assert not out.exists()


# -- mc -------------------------------------------------------------------------


def test_mc_outputs(tmp_path):
    out = tmp_path / "mc"
    code = run([
        "mc", "--design", 1, "--n", 300, "--reps", 3, "--out", out,
        "--grid", 12, "--seed", 0, "--threads", 1,
    ])
    assert code == 0
    qte = (out / "mc_qte.csv").read_text().splitlines()
    assert qte[0] == "u,mean_qte,n_reported,mean_naive_qte"
    assert len(qte) == 13
    hist = (out / "mc_u_hat_hist.csv").read_text().splitlines()
    assert hist[0] == "bin_low,bin_high,count"
    assert sum(int(r.split(",")[2]) for r in hist[1:]) == 3
    frontier = (out / "mc_frontier.csv").read_text().splitlines()
    assert frontier[0] == "rep,u_hat,u_prev,triggered,y1_hat_0,y1_hat_1"
    assert len(frontier) == 4
    assert not (out / "mc_coverage.csv").exists()


def test_mc_honours_kind(tmp_path):
    common = ["mc", "--design", 2, "--n", 500, "--reps", 2, "--grid", 10, "--seed", 0]
    qte = {}
    for kind in ("convolution", "local_linear"):
        assert run(common + ["--kind", kind, "--out", tmp_path / kind]) == 0
        qte[kind] = (tmp_path / kind / "mc_qte.csv").read_bytes()
    assert qte["convolution"] != qte["local_linear"]


def test_mc_coverage_and_thread_invariance(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    common = ["mc", "--design", 2, "--n", 250, "--reps", 2, "--grid", 8,
              "--boot-draws", 8, "--seed", 0]
    assert run(common + ["--out", a, "--threads", 1]) == 0
    assert run(common + ["--out", b, "--threads", 3]) == 0
    for name in ("mc_qte.csv", "mc_u_hat_hist.csv", "mc_frontier.csv", "mc_coverage.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name
    cov = (a / "mc_coverage.csv").read_text().splitlines()
    assert cov[0] == "u,coverage,hits,n_valid"
    assert len(cov) == 9


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_mc_fits_each_repetition_once(tmp_path, monkeypatch, seed):
    # one loop: each repetition is drawn once and banded, its sample fitted
    # once, as the all-ones row of its band's first block, and mc_coverage.csv
    # is coverage_study's
    import crqiv.estimator
    import crqiv.inference
    import crqiv.simulate
    from crqiv.inference import BootstrapConfig, coverage_study
    from crqiv.simulate import DgpSpec

    drawn, sample_fits = [], []
    real_generate, real_fit = crqiv.simulate.generate, crqiv.estimator.fit_curve
    real_rows = crqiv.inference.fit_replicates

    def generate(*args, **kwargs):
        drawn.append(1)
        return real_generate(*args, **kwargs)

    def fit_curve(*args, **kwargs):
        sample_fits.append(1)
        return real_fit(*args, **kwargs)

    def fit_replicates(data, counts, *args, **kwargs):
        sample_fits.extend([1] * int(np.count_nonzero((counts == 1).all(axis=1))))
        return real_rows(data, counts, *args, **kwargs)

    out = tmp_path / "mc"
    with monkeypatch.context() as mp:
        mp.setattr(crqiv.simulate, "generate", generate)
        mp.setattr(crqiv.estimator, "fit_curve", fit_curve)
        mp.setattr(crqiv.inference, "fit_replicates", fit_replicates)
        assert run(["mc", "--design", 2, "--n", 2000, "--reps", 3, "--grid", 20,
                    "--boot-draws", 10, "--seed", seed, "--out", out]) == 0
    assert len(drawn) == 3
    assert len(sample_fits) == 3
    grid = crqiv.estimator.QuantileGrid.default(20)
    again = coverage_study(DgpSpec(2, 2000, seed), 3, BootstrapConfig(draws=10, seed=seed), grid=grid)
    _write_csv(tmp_path / "again.csv", ["u", "coverage", "hits", "n_valid"], again.rows())
    assert (out / "mc_coverage.csv").read_bytes() == (tmp_path / "again.csv").read_bytes()


def test_band_bytes_do_not_depend_on_blas_threads(tmp_path, child_env):
    # design 2 at n = 3e4 has cells above 10,000 records, where OpenBLAS
    # splits a long dot product across its threads; the band's moments are
    # fixed-order reductions, so one and two threads write the same bytes
    if len(os.sched_getaffinity(0)) < 2:
        pytest.skip("needs 2 or more CPUs: on one, OpenBLAS runs one thread whatever it is told")
    assert run(["simulate", "--design", 2, "--n", 30_000, "--seed", 1, "--out", tmp_path]) == 0
    bands = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = {**child_env, "OPENBLAS_NUM_THREADS": threads}
        subprocess.run([sys.executable, "-m", "crqiv.cli", "estimate", "--data", str(tmp_path / "data.csv"),
                        "--grid", "20", "--boot-draws", "8", "--seed", "1", "--out", str(out)],
                       env=env, check=True, capture_output=True, timeout=300)
        bands.append((out / "band.csv").read_bytes())
    assert bands[0] == bands[1]
