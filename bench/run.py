"""mpsl benchmark: one closed-loop client driving mpsl through its public API
(spectral-sweep, nonlinear-continuation) or its CLI (cli-cold).

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the root of a checkout; mpsl is imported from ./src.  The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics.  With --trace 0 the metrics are the end-to-end ones, with
--trace 1 the per-layer ones (see bench/README.md).  The lines before it
repeat every metric by name and unit for a human reader.  End-to-end times
are scaled by a reference task timed between ops (speedref.py), so they do
not follow the drifting speed of a shared machine.  A run record and, for
traced runs, the spans go to .bench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

import speedref

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = ("spectral-sweep", "nonlinear-continuation", "cli-cold")
E2E = (("ops_per_s", "1/s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
       ("setup_s", "s"), ("peak_rss_mb", "MB"))
SETUP_PROBES = 5  # setup_s is the median of this many fresh-process set-ups
RSS_OPS = 60  # in-process peak_rss_mb covers set-up plus this many timed ops
TRACE_ROUNDS = 2  # rounds per phase of a traced run (1 with --smoke)
CLI_PROBES = 6  # samples each of `python -c pass` and `python -c "import mpsl.cli"`
CLI_PROBLEMS = 40  # problem files written at set-up (two rounds each)


def die(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny rounds, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# workloads ------------------------------------------------------------------


class InProcess:
    """spectral-sweep and nonlinear-continuation: ops are function calls."""

    speed = speedref.TASK

    def __init__(self, workload: str, stream, warmup: list[dict]):
        import inproc

        self.op, self.check = inproc.OPS[workload]
        self.stream = stream
        self.warmup_items = warmup
        self.tracer = None

    def next_round(self) -> list[dict]:
        return self.stream.round()

    def run_op(self, item: dict, op_id) -> tuple[float, str | None]:
        t = self.tracer
        if t is not None:
            t.op, t.paused = op_id, False
        err = None
        t0 = time.perf_counter()
        try:
            out = self.op(item)
        except Exception as exc:  # counted in failed; the loop goes on
            err = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if t is not None:
            t.paused = True
        if err is None:
            try:
                self.check(item, out)
            except Exception as exc:
                err = f"{type(exc).__name__}: {exc}"
        return seconds, err

    def start_tracing(self, run_dir: str) -> None:
        import tracer

        self.tracer = tracer.Tracer()
        self.tracer.install()

    def stop_tracing(self) -> dict:
        self.tracer.uninstall()
        data, self.tracer = self.tracer.data(), None
        return data

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(args, run_dir: str):
    """Imports, input generation, problem files and warm-up ops; everything
    that setup_s measures."""
    import gen

    os.makedirs(run_dir)
    stream = gen.Stream(args.workload, args.seed, smoke=args.smoke)
    warmup = gen.Stream(args.workload, args.seed, "warmup").warmup()
    if args.workload == "cli-cold":
        import clicold

        wl = clicold.CliCold(stream, warmup, run_dir, SRC, 2 if args.smoke else CLI_PROBLEMS)
    else:
        wl = InProcess(args.workload, stream, warmup)
    for i, item in enumerate(wl.warmup_items):
        _, err = wl.run_op(item, f"warmup{i}")
        if err:
            die(f"warm-up op failed: {err}")
    return wl


# phases ---------------------------------------------------------------------


class Phase:
    """Whole rounds of ops, timed one op at a time, each op followed by a
    sample of the workload's speed reference.  Times come raw and scaled to
    the reference's nominal speed; the phase time leaves out the samples."""

    def __init__(self, ref: speedref.Reference):
        self.ref = ref
        self.ops: list[tuple[str, float, float, bool]] = []  # kind, latency, op+check wall, passed
        self.speed: list[float] = []  # speed samples: one before the first op, one after each op
        self.errors: list[str] = []
        self.attempted = 0
        self.rounds = 0
        self.rss_mb: float | None = None

    def _scaled(self) -> list[float]:
        return self.ref.scales(self.speed)

    def latencies(self, scaled: bool = True) -> list[float]:
        f = self._scaled() if scaled else [1.0] * len(self.ops)
        return [lat * k for (_, lat, _, ok), k in zip(self.ops, f) if ok]

    def wall(self, scaled: bool = True) -> float:
        f = self._scaled() if scaled else [1.0] * len(self.ops)
        return sum(w * k for (_, _, w, _), k in zip(self.ops, f))

    def ops_per_s(self, scaled: bool = True) -> float:
        return len(self.latencies(scaled)) / self.wall(scaled)

    def summary(self) -> dict:
        by_kind: dict[str, list[float]] = {}
        for kind, lat, _, ok in self.ops:
            if ok:
                by_kind.setdefault(kind, []).append(lat)
        raw = self.latencies(False)
        return {"rounds": self.rounds, "attempted": self.attempted, "wall_s": self.wall(False),
                "raw_ops_per_s": self.ops_per_s(False) if raw else None,
                "raw_op_p50_s": statistics.median(raw) if raw else None,
                "raw_op_p90_s": quantile(raw, 9) if raw else None,
                "speed_reference": self.ref.name, "speed_nominal_s": self.ref.nominal_s,
                "speed_sample_median_s": statistics.median(self.speed),
                "median_latency_by_kind_s": {k: statistics.median(v) for k, v in by_kind.items()},
                "ops": [[*op, speed] for op, speed in zip(self.ops, self.speed[1:])]}


def run_phase(wl, first_op: int, seconds: float | None = None, rounds: int | None = None) -> Phase:
    """Run rounds until `rounds` are done, or while another round of the
    mean length so far still ends within `seconds`."""
    ph = Phase(wl.speed)
    ph.speed.append(ph.ref.sample())
    t0 = time.perf_counter()
    while True:
        if rounds is not None and ph.rounds >= rounds:
            break
        if seconds is not None and ph.rounds:
            elapsed = time.perf_counter() - t0
            if elapsed * (ph.rounds + 1) / ph.rounds > seconds:
                break
        for item in wl.next_round():
            start = time.perf_counter()
            latency, err = wl.run_op(item, first_op + ph.attempted)
            ph.attempted += 1
            if err is not None:
                ph.errors.append(err)
            if ph.attempted == RSS_OPS:
                ph.rss_mb = wl.peak_rss_mb()
            ph.ops.append((item.get("kind") or item["subcommand"], latency,
                           time.perf_counter() - start, err is None))
            ph.speed.append(ph.ref.sample())
        ph.rounds += 1
    if ph.rss_mb is None:
        ph.rss_mb = wl.peak_rss_mb()
    return ph


def measure_setup(args) -> tuple[list[float], list[float]]:
    """Wall time from spawning a fresh benchmark process to the moment its
    set-up is done, SETUP_PROBES times: raw, and scaled by interpreter-start
    samples taken right before and after each probe."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"] + (["--smoke"] if args.smoke else [])
    samples, scaled = [], []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        before = speedref.START.sample()
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.stdout.read()
            code = proc.wait(timeout=120)
        if code != 0 or line.strip() != b"READY":
            die(f"set-up probe failed with exit code {code}")
        scaled.append(samples[-1] * speedref.START.scales([before, speedref.START.sample()])[0])
    return samples, scaled


def cli_start_costs(n: int) -> tuple[float, float]:
    """Medians of a bare interpreter start and of `import mpsl.cli` on top."""
    import clicold

    env = clicold.child_env(SRC)
    samples: dict[str, list[float]] = {"pass": [], "import mpsl.cli": []}
    for _ in range(n):
        for code, out in samples.items():
            seconds, exit_code, _, err = clicold.run_child([sys.executable, "-c", code], env)
            if exit_code != 0:
                die(f"python -c {code!r} exited {exit_code}: {err}")
            out.append(seconds)
    interp = statistics.median(samples["pass"])
    return interp, statistics.median(samples["import mpsl.cli"]) - interp


# reporting ------------------------------------------------------------------


def quantile(values: list[float], q: int) -> float:
    """The q-th decile (exclusive method) of at least two values."""
    return statistics.quantiles(values, n=10)[q - 1] if len(values) > 1 else values[0]


def environment() -> dict:
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), model)
    except OSError:
        pass
    env_threads = os.environ.get("MPSL_THREADS", "").strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        # mirrors mpsl.cli._worker_count: MPSL_THREADS, else min(4, cpus)
        "mpsl_threads_effective": max(1, int(env_threads)) if env_threads else min(4, os.cpu_count() or 1),
        "blas_threads_env": {k: os.environ.get(k, "unset") for k in (
            "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")},
    }


def emit(args, metrics: dict, phases: list[Phase], record: dict) -> int:
    attempted = sum(p.attempted for p in phases)
    errors = [e for p in phases for e in p.errors]
    failed = len(errors)
    samples = sum(len(p.latencies(False)) for p in phases)
    record.update(seed=args.seed, workload=args.workload, trace=args.trace, smoke=args.smoke,
                  environment=environment(), attempted=attempted, failed=failed,
                  failed_frac=failed / attempted, latency_samples=samples,
                  phases=[p.summary() for p in phases],
                  errors=errors[:20], metrics=metrics)
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"{args.workload} seed={args.seed} trace={args.trace}: {attempted} ops attempted, "
          f"{failed} failed, {samples} latency samples")
    for err in errors[:5]:
        print(f"  failed: {err}")
    for name in record.get("missing", []):
        print(f"  missing: {name} (a wrapped mpsl name it needs is gone)")
    print(f"  {'failed_frac':34s} {failed / attempted:.6g} frac")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if not args.trace:
        ph = record["phases"][0]
        print(f"  unscaled: ops_per_s {ph['raw_ops_per_s']:.6g} 1/s, op_p50_s {ph['raw_op_p50_s']:.6g} s, "
              f"op_p90_s {ph['raw_op_p90_s']:.6g} s, setup_s {record['raw_setup_s']:.6g} s; "
              f"median {ph['speed_reference']} {ph['speed_sample_median_s']:.6g} s "
              f"(nominal {ph['speed_nominal_s']:g} s)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "mpsl")):
        die(f"no mpsl sources under {SRC}; run from the root of an mpsl checkout")
    sys.path.insert(0, SRC)
    import mpsl

    if os.path.dirname(os.path.abspath(mpsl.__file__)) != os.path.join(SRC, "mpsl"):
        die(f"imported mpsl from {mpsl.__file__}, not from {SRC}")
    run_dir = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        if args.setup_probe:
            set_up(args, run_dir)
            print("READY", flush=True)
            return 0
        setup_raw, setup_scaled = ([], []) if args.trace else measure_setup(args)
        wl = set_up(args, run_dir)
        if not args.trace:
            ph = run_phase(wl, 0, seconds=args.seconds)
            lat = ph.latencies()
            if not lat:
                die("no op passed its checks; no latency to report")
            values = {
                "ops_per_s": ph.ops_per_s(),
                "op_p50_s": statistics.median(lat),
                "op_p90_s": quantile(lat, 9),
                "setup_s": statistics.median(setup_scaled),
                "peak_rss_mb": ph.rss_mb,
            }
            metrics = {name: {"value": values[name], "unit": unit} for name, unit in E2E}
            return emit(args, metrics, [ph], {"setup_samples_raw_s": setup_raw,
                                              "setup_samples_scaled_s": setup_scaled,
                                              "raw_setup_s": statistics.median(setup_raw)})

        import gen
        import tracer

        rounds = 1 if args.smoke else TRACE_ROUNDS
        plain = run_phase(wl, 0, rounds=rounds)
        wl.start_tracing(run_dir)
        traced = run_phase(wl, plain.attempted, rounds=rounds)
        data = wl.stop_tracing()
        interp, imp = cli_start_costs(2 if args.smoke else CLI_PROBES)
        metrics, missing = tracer.layer_metrics(data, tuple(name for name, _ in gen.CLI_SUBCOMMANDS))
        metrics = {"cli.interpreter_s": {"value": interp, "unit": "s"},
                   "cli.import_s": {"value": imp, "unit": "s"}, **metrics}
        if plain.latencies() and traced.latencies():
            metrics["bench.trace_overhead_frac"] = {
                "value": 1.0 - traced.ops_per_s() / plain.ops_per_s(), "unit": "frac"}
        tracer.write_spans(data, os.path.join(OUT, f"{args.workload}-seed{args.seed}-spans.jsonl"))
        return emit(args, metrics, [plain, traced], {"missing": missing, "calls": data["calls"]})
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
