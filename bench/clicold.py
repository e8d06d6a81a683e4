"""Subprocess ops of the cli-cold workload.

One op is one ``python -m mpsl <subcommand> problem.json --out DIR`` process
with a fresh output directory.  Rounds come in pairs on the same problem
file; the second round of a pair compares every output file byte for byte
with the first, so each problem is invoked exactly twice.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

import speedref
import tracer
from checks import require, scaled_ok

CHILD_TIMEOUT_S = 120.0

EXPECTED = {
    "validate": ("validate.json",),
    "spectrum": ("spectrum.csv", "spectrum.json"),
    "predict": ("predict.csv", "predict.json"),
    "classify": ("classify.json", "gallery.svg"),
    "solve": ("solution.csv", "solution.json"),
}


def child_env(src: str) -> dict:
    """The environment for a child process that imports mpsl from `src`."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def run_child(cmd: list[str], env: dict) -> tuple[float, int, int, str]:
    """Run one process to completion; returns (seconds, exit code, peak RSS
    in KiB of that process alone, stderr tail)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, env=env)
    watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        err = proc.stderr.read()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    seconds = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss, err.decode("utf-8", "replace")[-400:]


def check(item: dict, out_dir: str, code: int, err: str) -> None:
    sub = item["subcommand"]
    require(code == 0, f"{sub} exited {code}: {err.strip()}")
    files = sorted(os.listdir(out_dir))
    require(files == sorted(EXPECTED[sub]), f"{sub} wrote {files}")
    if sub == "validate":
        with open(os.path.join(out_dir, "validate.json"), encoding="utf-8") as fh:
            level = json.load(fh)["level"]
        require(level == "linear", f"hypothesis verdict {level!r}")
    elif sub == "solve":
        with open(os.path.join(out_dir, "solution.json"), encoding="utf-8") as fh:
            sol = json.load(fh)
        require(scaled_ok(sol["residuals"], sol["scales"]), "solve residual")
    ref = item.get("reference_dir")
    if ref is not None:
        for name in files:
            with open(os.path.join(out_dir, name), "rb") as a, open(os.path.join(ref, name), "rb") as b:
                require(a.read() == b.read(), f"{sub}: {name} differs between two invocations")


class CliCold:
    """Problem files, op commands and checks of the cli-cold workload."""

    speed = speedref.START

    def __init__(self, stream, warmup: list[dict], run_dir: str, src: str, n_problems: int):
        self.run_dir = run_dir
        self.stream = stream
        self.env = child_env(src)
        os.makedirs(os.path.join(run_dir, "problems"))
        self._rounds = [self._write(ops, f"p{i:03d}") for i, ops in
                        enumerate(stream.round() for _ in range(n_problems))]
        self._round_no = 0
        self._last: list[dict] = []
        self.traced_dir: str | None = None
        self.max_rss_kb = 0
        self.warmup_items = self._write(warmup, "warmup")

    def _write(self, ops: list[dict], tag: str) -> list[dict]:
        path = os.path.join(self.run_dir, "problems", f"{tag}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(ops[0]["problem"], fh, indent=2, sort_keys=True)
        return [{"subcommand": op["subcommand"], "args": op["args"], "path": path} for op in ops]

    def next_round(self) -> list[dict]:
        """Even rounds open a new problem; odd rounds repeat the previous one
        and compare outputs."""
        if self._round_no % 2 == 0:
            if not self._rounds:
                self._rounds.append(self._write(self.stream.round(), f"p{self._round_no:03d}x"))
            items = [dict(it) for it in self._rounds.pop(0)]
        else:
            items = [{"subcommand": prev["subcommand"], "args": prev["args"], "path": prev["path"],
                      "reference_dir": prev["out"]} for prev in self._last]
        self._round_no += 1
        self._last = items
        return items

    def run_op(self, item: dict, op_id) -> tuple[float, str | None]:
        out_dir = os.path.join(self.run_dir, "ops", str(op_id))
        os.makedirs(out_dir)
        argv = [item["subcommand"], item["path"], *item["args"], "--out", out_dir]
        if self.traced_dir is None:
            cmd = [sys.executable, "-m", "mpsl", *argv]
        else:
            data = os.path.join(self.traced_dir, f"{op_id}.json")
            here = os.path.dirname(os.path.abspath(__file__))
            cmd = [sys.executable, os.path.join(here, "cli_traced.py"), data, str(op_id), "--", *argv]
        seconds, code, rss_kb, err = run_child(cmd, self.env)
        item["out"] = out_dir
        if not str(op_id).startswith("warmup"):
            self.max_rss_kb = max(self.max_rss_kb, rss_kb)
        try:
            check(item, out_dir, code, err)
        except Exception as exc:  # any check failure counts against failed_frac
            return seconds, f"{type(exc).__name__}: {exc}"
        return seconds, None

    def start_tracing(self, run_dir: str) -> None:
        self.traced_dir = os.path.join(run_dir, "traced")
        os.makedirs(self.traced_dir)

    def stop_tracing(self) -> dict:
        """Merge what each traced op process saved."""
        d, self.traced_dir = self.traced_dir, None
        parts = []
        for name in sorted(os.listdir(d), key=lambda n: int(n.split(".")[0])):
            with open(os.path.join(d, name), encoding="utf-8") as fh:
                parts.append(json.load(fh))
        return tracer.merge(parts)

    def peak_rss_mb(self) -> float:
        return self.max_rss_kb / 1024.0
