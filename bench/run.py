"""Benchmark of the crqiv CLI: four workloads, end-to-end and per-layer.

Run from the root of a source checkout (the package need not be
installed; ``src`` goes on the children's PYTHONPATH):

    python3 bench/run.py --workload estimate_boot --seed 0 --seconds 20 --trace 0

``--trace 0`` makes three input sets from seeds derived from the workload
seed (``setup_s`` is the median of their set-up times), then runs the
timed CLI command in a fresh process on each set in turn for ``--seconds``
seconds (at least four runs, so the first set runs twice and its outputs
are compared) and reports the medians of the end-to-end metrics. These
runs are pinned to one CPU, and
a thread of the benchmark times a fixed reference computation (numpy and
interpreter work that calls no crqiv code) on that CPU every 0.1 s while
each command runs. The speed of a shared host's CPU drifts by tens of
per cent within a minute, and the two CPUs of a small VM drift apart, so
every end-to-end time is scaled to the reference speed:
``wall_norm_s = wall × REFERENCE_S / (mean reference time during the
command)``, and likewise ``setup_s``. The raw times are printed beside
them. ``--trace 1`` makes the inputs once, runs the
command once as a child, once in-process untraced and once in-process
with every public crqiv function traced (see ``tracer.py``), and reports
the per-layer metrics. Both modes check every output against the designs'
known truth and check that data outputs are byte-identical across runs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--workload all``
runs every workload in turn; its last line prefixes each metric with the
workload name. ``--smoke`` runs a tiny configuration of each workload.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

from tracer import PER_LAYER, Tracer, layer_metrics  # noqa: E402
from workloads import FULL, SMOKE, workloads  # noqa: E402

# the untimed runs measure CASES input sets, made from seeds derived from
# the workload seed, and run the timed command on each in turn: the work
# of one command varies by about 10% with its data (solver iterations),
# and a median over three data sets damps that
CASES = 3
MIN_RUNS = CASES + 1
RUN_BUDGET_S = 170.0
# reference speed: the median time of reference_work while the timed
# commands ran on the 2-vCPU VM the benchmark was defined on. Changing it
# rescales every end-to-end time, so it stays fixed.
REFERENCE_S = 2.5e-3
PROBE_INTERVAL_S = 0.1

END_TO_END = {
    "wall_norm_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {name: unit for name, (unit, _) in PER_LAYER.items()}
PER_LAYER_UNITS.update({
    "cli.cpu_s": "s",
    "trace.overhead_s": "s",
    "inference.bootstrap_band_1w_s": "s",
    "inference.bootstrap_band_2w_s": "s",
    "estimator.u_hat": "1",
    "accuracy.qte_mae": "1",
    "accuracy.reported_share": "1",
})


# units of the figures printed beside the metrics
NOTE_UNITS = {
    "cpu_s": "s", "draws_per_s": "1/s", "records_per_s": "1/s", "lattice_points_per_s": "1/s",
    "reps_per_s": "1/s", "qte_mae": "1", "reported_share": "1", "u_hat": "1",
    "lattice_points": "count", "lattice_disagreements": "count", "lattice_excused": "count",
    "case_seeds": "", "runs": "count", "spans": "count", "wall_s": "s", "wall_s_all": "s", "setup_raw_s": "s",
    "setup_raw_s_all": "s", "wall_norm_s_all": "s", "setup_s_all": "s", "reference_ms": "ms",
    "pinned_cpu": "",
    "untraced_child_wall_s": "s", "untraced_in_process_wall_s": "s", "traced_wall_s": "s",
}


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


@dataclass
class ChildRun:
    wall: float
    rss_mb: float
    cpu: float
    rc: int
    # mean time of the reference computation while the child ran, if probed
    reference: float | None = None

    @property
    def wall_norm(self) -> float:
        return self.wall * REFERENCE_S / self.reference


_SMALL = np.linspace(0.0, 1.0, 64)
_MEDIUM = np.random.default_rng(0).random(1 << 17)
_TABLE: dict = {}


def reference_work() -> None:
    """A fixed mix of the work crqiv does: interpreter loops, dict updates,
    many numpy calls on small arrays and a few on arrays past the L2 cache."""
    x = 0
    for i in range(3000):
        x += i * i
    for i in range(2000):
        _TABLE[i * 7919 % 4099] = i
    for _ in range(250):
        y = np.maximum(_SMALL * 2.0 - 0.5, 0.25)
        float(y.sum())
    float(_MEDIUM.sum())
    np.sort(_MEDIUM[:16384])


class Probe:
    """Times reference_work every PROBE_INTERVAL_S on a thread of this process.

    Thread CPU time is used, so the time the probe waits while the child
    holds the CPU is not counted; a slower host CPU makes it longer.
    """

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self):
        while not self._stop.is_set():
            t0 = time.thread_time()
            reference_work()
            self.samples.append(time.thread_time() - t0)
            self._stop.wait(PROBE_INTERVAL_S)

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()

    def mean(self) -> float:
        return statistics.fmean(self.samples)


def run_cli(args, log: Path, deadline: float, probe: bool = False) -> ChildRun:
    """Run ``python -m crqiv.cli *args`` in a fresh process; kill it at the deadline.

    With ``probe``, the reference computation is timed while the child runs.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    with open(log, "ab") as fh, (Probe() if probe else contextlib.nullcontext()) as pr:
        fh.write(("$ crqiv " + " ".join(args) + "\n").encode())
        fh.flush()
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "crqiv.cli", *args], cwd=ROOT, env=env,
                                stdin=subprocess.DEVNULL, stdout=fh, stderr=subprocess.STDOUT)
        timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
            timer.join()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(wall, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime, proc.returncode,
                    pr.mean() if probe else None)


def digest(directory: Path) -> dict:
    """sha256 of every data output below a directory; manifests carry timestamps."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def _log_tail(log: Path) -> list:
    return log.read_text(errors="replace").strip().splitlines()[-1:] if log.exists() else []


def checked(wl, inputs: Path, out: Path, ref: dict | None):
    """(accuracy, problems, digest) of one run's outputs."""
    try:
        acc, problems = wl.check(inputs, out)
    except (OSError, ValueError, KeyError) as exc:
        acc, problems = {}, [f"outputs unreadable: {exc!r}"]
    dg = digest(out)
    if ref is not None and dg != ref:
        problems = problems + ["data outputs differ from the first run's"]
    return acc, problems, dg


def case_seeds(seed: int) -> list:
    """Simulation seeds of the input sets of workload seed ``seed``."""
    return [CASES * seed + k for k in range(CASES)]


def make_inputs(wl, d: Path, seed: int, log: Path, deadline: float) -> tuple:
    """Write the workload's inputs to d: (wall seconds, seconds at reference speed)."""
    d.mkdir(parents=True)
    wall = norm = 0.0
    for args in wl.setup(d, seed):
        r = run_cli(args, log, deadline, probe=True)
        if r.rc != 0:
            raise BenchError(f"set-up command `crqiv {' '.join(args)}` exited {r.rc}: {_log_tail(log)}")
        wall += r.wall
        norm += r.wall_norm
    return wall, norm


@contextlib.contextmanager
def pinned_to_one_cpu():
    """Pin this process, its probe thread and its children to one CPU."""
    before = os.sched_getaffinity(0)
    cpu = max(before)
    os.sched_setaffinity(0, {cpu})
    try:
        yield cpu
    finally:
        os.sched_setaffinity(0, before)


def measure(wl, seed: int, seconds: float, work: Path, deadline: float) -> dict:
    """Untraced runs: end-to-end metrics."""
    with pinned_to_one_cpu() as cpu:
        res = _measure(wl, seed, seconds, work, deadline)
    res["notes"]["pinned_cpu"] = cpu
    return res


def _measure(wl, seed, seconds, work, deadline) -> dict:
    log = work / "cli.log"
    attempted = failed = 0
    problems = []
    inputs, setups = [], []
    for k, case_seed in enumerate(case_seeds(seed)):
        d = work / f"inputs{k}"
        setups.append(make_inputs(wl, d, case_seed, log, deadline))
        inputs.append(d)
        attempted += 1

    runs, acc, out_refs = [], {}, {}
    t_start = time.monotonic()
    for i in itertools.count():
        if len(runs) >= MIN_RUNS:
            # start another run only if it should end within the window
            if time.monotonic() - t_start + statistics.median(r.wall for r in runs) > seconds:
                break
        if runs and time.monotonic() + max(r.wall for r in runs) > deadline:
            break
        k = i % CASES
        out = work / f"out{i}"
        argv = wl.timed(inputs[k], out, case_seeds(seed)[k])
        r = run_cli(argv, log, deadline, probe=True)
        attempted += 1
        if r.rc != 0:
            bad = [f"exit code {r.rc}: {_log_tail(log)}"]
        else:
            runs.append(r)
            acc_i, bad, dg = checked(wl, inputs[k], out, out_refs.get(k))
            out_refs.setdefault(k, dg)
            acc = acc or acc_i
        if bad:
            failed += 1
            problems.extend(bad)
        shutil.rmtree(out, ignore_errors=True)
    if not runs:
        raise BenchError(f"every timed run failed: {problems}")

    walls = [r.wall for r in runs]
    wall = statistics.median(walls)
    metrics = {
        "wall_norm_s": statistics.median(r.wall_norm for r in runs),
        "setup_s": statistics.median(norm for _, norm in setups),
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
    }
    notes = {
        "command": ["python", "-m", "crqiv.cli", *argv],
        "case_seeds": case_seeds(seed),
        "runs": len(runs),
        "wall_s": wall,
        "wall_s_all": walls,
        "wall_norm_s_all": [r.wall_norm for r in runs],
        "reference_ms": 1e3 * statistics.median(r.reference for r in runs),
        "setup_raw_s": statistics.median(raw for raw, _ in setups),
        "setup_raw_s_all": [raw for raw, _ in setups],
        "setup_s_all": [norm for _, norm in setups],
        "cpu_s": statistics.median(r.cpu for r in runs),
        wl.work_metric: wl.work / wall,
        **acc,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "notes": notes}


def _call_main(args) -> tuple:
    """Run crqiv.cli.main in this process: (wall seconds, exit code)."""
    import crqiv.cli

    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        t0 = time.perf_counter()
        try:
            rc = crqiv.cli.main(list(args))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        wall = time.perf_counter() - t0
    if rc:
        print(err.getvalue().strip(), file=sys.stderr)
    return wall, rc


def bootstrap_by_workers(inputs: Path, sz) -> dict:
    """Untraced bootstrap_band wall time with 1 and with 2 workers."""
    try:
        from crqiv.data import load_csv
        from crqiv.estimator import QuantileGrid, fit_curve
        from crqiv.inference import BootstrapConfig, bootstrap_band

        configs = {w: BootstrapConfig(draws=sz.boot_draws, seed=1, level=0.95, workers=w) for w in (1, 2)}
    except (ImportError, TypeError):  # no worker count left to vary: the metrics are absent
        return {}
    data = load_csv(inputs / "data.csv")
    grid = QuantileGrid.default(sz.grid_boot)
    fit = fit_curve(data, grid=grid)
    out = {}
    for workers, boot in configs.items():
        t0 = time.perf_counter()
        bootstrap_band(data, boot, fit=fit, grid=grid)
        out[f"inference.bootstrap_band_{workers}w_s"] = time.perf_counter() - t0
    return out


def trace(wl, seed: int, work: Path, deadline: float, sz) -> dict:
    """One child run, one in-process untraced run and one traced run: per-layer metrics.

    The inputs are made twice, traced in-process and as children, and the
    two sets must be byte-identical.
    """
    log = work / "cli.log"
    attempted = 0
    inputs = work / "inputs"
    seed = case_seeds(seed)[0]
    setup_tracer = Tracer()
    setup_tracer.install()
    try:
        for args in wl.setup(inputs, seed):
            attempted += 1
            if _call_main(args)[1] != 0:
                raise BenchError(f"set-up command `crqiv {' '.join(args)}` failed")
    finally:
        setup_tracer.uninstall()
    make_inputs(wl, work / "inputs_again", seed, log, deadline)
    setup_bad = [] if digest(inputs) == digest(work / "inputs_again") else ["set-up outputs differ between runs"]

    child = run_cli(wl.timed(inputs, work / "child", seed), log, deadline)
    if child.rc != 0:
        raise BenchError(f"timed command exited {child.rc}: {_log_tail(log)}")
    acc, bad, ref = checked(wl, inputs, work / "child", None)
    runs_bad = [setup_bad, bad]

    plain_wall, rc = _call_main(wl.timed(inputs, work / "plain", seed))
    runs_bad.append([f"in-process run exited {rc}"] if rc else checked(wl, inputs, work / "plain", ref)[1])

    tracer = Tracer()
    tracer.install()
    try:
        traced_argv = wl.timed(inputs, work / "traced", seed)
        traced_wall, rc = _call_main(traced_argv)
    finally:
        tracer.uninstall()
    runs_bad.append([f"traced run exited {rc}"] if rc else checked(wl, inputs, work / "traced", ref)[1])
    attempted += len(runs_bad)
    failed = sum(1 for bad in runs_bad if bad)
    problems = [p for bad in runs_bad for p in bad]

    metrics = layer_metrics(tracer.spans, setup_tracer.spans, tracer.absent)
    metrics["cli.cpu_s"] = child.cpu
    metrics["trace.overhead_s"] = traced_wall - plain_wall
    if wl.name == "estimate_boot":
        metrics.update(bootstrap_by_workers(inputs, sz))
    else:
        metrics.update({f"inference.bootstrap_band_{w}w_s": 0.0 for w in (1, 2)})
    metrics["estimator.u_hat"] = acc.get("u_hat", 0.0)
    metrics["accuracy.qte_mae"] = acc.get("qte_mae", 0.0)
    metrics["accuracy.reported_share"] = acc.get("reported_share", 0.0)
    notes = {
        "command": ["python", "-m", "crqiv.cli", *traced_argv],
        "absent": sorted(tracer.absent),
        "untraced_child_wall_s": child.wall,
        "untraced_in_process_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": len(tracer.spans),
        **acc,
    }
    return {"attempted": attempted, "failed": failed, "problems": problems,
            "metrics": metrics, "notes": notes}


def environment() -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    src = hashlib.sha256()
    for p in sorted((SRC / "crqiv").glob("*.py")):
        src.update(p.name.encode() + b"\0" + p.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_commit": commit,
        "src_sha256": src.hexdigest(),
        "argv": sys.argv,
    }


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def report(name: str, seed: int, res: dict, units: dict) -> None:
    notes = res["notes"]
    print(f"== {name} (seed {seed}): {' '.join(notes['command'])}")
    for k, v in res["metrics"].items():
        print(f"   {k:<40} {_fmt(v):>14} {units[k]}")
    for k, v in notes.items():
        if k != "command":
            print(f"   {k:<40} {_fmt(v):>14} {NOTE_UNITS.get(k, '')}")
    error_rate = res["failed"] / res["attempted"]
    print(f"   {'error_rate':<40} {_fmt(error_rate):>14} 1 ({res['failed']} of {res['attempted']} runs)")
    for p in res["problems"]:
        print(f"   problem: {p}")


def main(argv=None) -> int:
    all_names = list(workloads(FULL))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=all_names + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    if not (SRC / "crqiv" / "cli.py").is_file():
        print(f"error: no crqiv sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sz = SMOKE if args.smoke else FULL
    table = workloads(sz)
    names = all_names if args.workload == "all" else [args.workload]
    units = PER_LAYER_UNITS if args.trace else END_TO_END

    print("env " + json.dumps(environment(), sort_keys=True), flush=True)
    results = {}
    for name in names:
        work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        deadline = time.monotonic() + RUN_BUDGET_S
        try:
            if args.trace:
                res = trace(table[name], args.seed, work, deadline, sz)
            else:
                res = measure(table[name], args.seed, args.seconds, work, deadline)
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        finally:
            shutil.rmtree(work, ignore_errors=True)
        report(name, args.seed, res, units)
        results[name] = res
    with contextlib.suppress(OSError):
        (ROOT / ".bench_work").rmdir()

    def entry(metrics):
        return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}

    if len(names) == 1:
        metrics = entry(results[names[0]]["metrics"])
    else:
        metrics = {f"{n}.{k}": v for n in names for k, v in entry(results[n]["metrics"]).items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
