#!/usr/bin/env python3
"""lexstable benchmark: the real CLI on seeded workloads, end to end and
layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
``src``, never an installed copy. It writes the workload's inputs under
``.perfbench_work/`` from the seed, then repeats whole rounds of the
workload's commands, one process at a time, as many rounds as fit in S
seconds (at least one).
Every command's outputs are checked against computations made in
``workloads.py``, apart from the package, and must be byte-identical in
every round.

``--trace 0`` reports the end-to-end metrics: medians over rounds of
set-up and analysis wall time, analysis throughput and peak RSS.
``--trace 1`` follows each untraced round with a traced one, in which
every command runs in-process under ``tracer.py``, and reports the
per-layer metrics. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from statistics import median

from tracer import merge_counter
from workloads import WORKLOADS, CheckError, KnownFault

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACER = HERE / "tracer.py"
STARTUP_PROBES = 5

# Per-layer metrics that are counters from tracer.py rather than span totals.
COUNTERS = ("lexicon.tokens", "stability.observations", "synth.messages", "ingest.read_corpus.maxrss_mb")


@dataclass
class Proc:
    wall_s: float
    maxrss_mb: float
    code: int
    stdout: str
    stderr: str


def child_env() -> dict[str, str]:
    """The caller's environment without the thread knob, with ``src`` first
    on the import path."""
    env = {k: v for k, v in os.environ.items() if k != "LEXSTABLE_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Spawner:
    """Runs commands one at a time through ``spawner.py``, a small helper
    process, so each command's max RSS is its own; see that file."""

    def __init__(self, env: dict[str, str]):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env, cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], out_dir: Path) -> Proc:
        out_dir.mkdir(parents=True, exist_ok=True)
        so, se = out_dir / ".stdout", out_dir / ".stderr"
        job = {"argv": argv, "cwd": str(out_dir), "stdout": str(so), "stderr": str(se)}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        r = json.loads(line)
        return Proc(r["wall_s"], r["maxrss_kb"] / 1024.0, r["code"],
                    so.read_text("utf-8", "replace"), se.read_text("utf-8", "replace"))

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Bench:
    def __init__(self, workload: str, seed: int, work: Path, spawner: Spawner):
        self.spawner = spawner
        self.work = work
        self.wl = WORKLOADS[workload](work, seed)
        self.reference: dict[str, dict[str, str]] = {}  # command -> output -> sha256
        self.checked: dict[tuple, Exception | None] = {}
        self.errors: list[str] = []
        self.faults: set[str] = set()
        self.passes = 0
        self.names = [c.name for c in sorted(self.wl.commands(work), key=lambda c: c.phase != "setup")]

    def cli(self, args: list[str], out: Path, trace_file: Path | None = None) -> Proc:
        if trace_file is None:
            return self.spawner.run([sys.executable, "-m", "lexstable.cli", *args], out)
        return self.spawner.run([sys.executable, str(TRACER), str(SRC), str(trace_file), *args], out)

    def check(self, cmd, out: Path, proc: Proc) -> None:
        if proc.code != 0:
            raise CheckError(f"exit code {proc.code}: {proc.stderr.strip()[-400:]}")
        digests = {name: sha256(out / name) for name in cmd.outputs}
        if self.reference.setdefault(cmd.name, digests) != digests:
            raise CheckError("outputs differ from the first pass")
        # Outputs equal the first pass's, so one check per distinct console output.
        key = (cmd.name, proc.stdout, proc.stderr)
        if key not in self.checked:
            try:
                cmd.check(out, proc.stdout, proc.stderr)
                self.checked[key] = None
            except (CheckError, KnownFault) as exc:
                self.checked[key] = exc
            except Exception as exc:  # unreadable output counts as wrong output
                self.checked[key] = CheckError(f"{type(exc).__name__}: {exc}")
        if self.checked[key] is not None:
            raise self.checked[key]

    def run_pass(self, traced: bool) -> dict:
        d = self.work / f"pass{self.passes}"
        self.passes += 1
        res = {"setup": [], "analysis": [], "attempted": 0, "failed": 0, "traces": []}
        for cmd in self.wl.commands(d):
            out = d / cmd.name
            trace_file = out / ".trace.json" if traced else None
            proc = self.cli(cmd.argv, out, trace_file)
            res[cmd.phase].append(proc)
            res["attempted"] += 1
            try:
                self.check(cmd, out, proc)
            except KnownFault as exc:
                res["failed"] += 1
                self.faults.add(f"{cmd.name}: {exc}")
            except CheckError as exc:
                res["failed"] += 1
                self.errors.append(f"{cmd.name}: {exc}")
            if traced and proc.code == 0:
                res["traces"].append((cmd.name, json.loads(trace_file.read_text(encoding="utf-8"))))
        shutil.rmtree(d)
        return res


def end_to_end(rounds: list[dict], tokens: int) -> dict[str, float]:
    """Each command's median over rounds, summed (times) or maximised
    (peak RSS) over the commands of a phase."""
    def per_command(phase, field):
        return [median(getattr(r[phase][i], field) for r in rounds) for i in range(len(rounds[0][phase]))]

    analysis_s = sum(per_command("analysis", "wall_s"))
    return {
        "setup_s": sum(per_command("setup", "wall_s")),
        "analysis_s": analysis_s,
        "analysis_tokens_per_s": tokens / analysis_s,
        "setup_peak_rss_mb": max(per_command("setup", "maxrss_mb")),
        "analysis_peak_rss_mb": max(per_command("analysis", "maxrss_mb")),
    }


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """End-to-end and per-layer metric name -> unit, as BENCHMARK.json lists them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def layer_values(untraced: dict, traced: dict, names) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer values of one traced pass, plus each command's coverage.
    A name "<span>.<calls|busy_s|self_s>" is read from the spans; the
    others are counters or derived here."""
    spans: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    coverage: dict[str, float] = {}
    cli_self = 0.0
    for name, t in traced["traces"]:
        for span, agg in t["layers"].items():
            entry = spans.setdefault(span, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            for k in entry:
                entry[k] += agg[k]
        for k, v in t["counters"].items():
            merge_counter(counters, k, v)
        coverage[name] = t["covered_s"] / t["wall_s"]
        cli_self += t["wall_s"] - t["covered_by_layers_s"]
    wall = lambda r: sum(p.wall_s for p in r["setup"] + r["analysis"])  # noqa: E731
    values = {
        "cli.self_s": cli_self,
        "report.busy_s": sum(v["busy_s"] for k, v in spans.items() if k.startswith("report.")),
        "trace.overhead_s": wall(traced) - wall(untraced),
        "trace.min_coverage": min(coverage.values(), default=0.0),
    }
    for metric in names:
        if metric in values or metric == "cli.startup_s":
            continue
        if metric in COUNTERS:
            values[metric] = float(counters.get(metric, 0))
        else:
            span, field = metric.rsplit(".", 1)
            values[metric] = float(spans.get(span, {}).get(field, 0))
    return values, coverage


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lexstable" / "cli.py").is_file():
        print(f"error: no lexstable sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2

    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spawner = Spawner(child_env())
    try:
        bench = Bench(args.workload, args.seed, work, spawner)
        bench.cli(["--version"], work / "version")  # byte-compiles and pages in the package
        probes = [bench.cli(["--version"], work / "version").wall_s
                  for _ in range(STARTUP_PROBES if args.trace else 0)]
        rounds, traced = [], []
        start = time.perf_counter()
        while True:  # whole rounds, as many as fit in the time given (at least one)
            round_start = time.perf_counter()
            rounds.append(bench.run_pass(traced=False))
            if args.trace:
                traced.append(bench.run_pass(traced=True))
            now = time.perf_counter()
            if now - start + (now - round_start) > args.seconds:
                break
        elapsed = time.perf_counter() - start
    finally:
        spawner.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    attempted = sum(r["attempted"] for r in rounds + traced)
    failed = sum(r["failed"] for r in rounds + traced)
    correct = not bench.errors and bench.wl.tokens > 0
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} round(s) in {elapsed:.1f} s"
          f"{' (each followed by a traced round)' if args.trace else ''}")
    print(f"inputs: {bench.wl.describe()}")
    for i, r in enumerate(rounds):
        print(f"round {i}: " + ", ".join(f"{name} {p.wall_s:.3f} s {p.maxrss_mb:.1f} MB"
                                          for name, p in zip(bench.names, r["setup"] + r["analysis"])))
    for line in dict.fromkeys(bench.errors):
        print(f"ERROR {line}")
    for line in sorted(bench.faults):
        print(f"known fault, counted as failed: {line}")
    for name, digests in bench.reference.items():
        for output, digest in digests.items():
            print(f"output {name}/{output} sha256 {digest}")

    end_to_end_units, per_layer_units = metric_units()
    if args.trace:
        units = per_layer_units
        per_pass = [layer_values(u, t, units) for u, t in zip(rounds, traced)]
        values = {m: median(v[m] for v, _ in per_pass) for m in units if m != "cli.startup_s"}
        values["cli.startup_s"] = median(probes)
        for name in per_pass[0][1]:
            share = median(cov[name] for _, cov in per_pass)
            print(f"coverage {name}: {share:.1%} of in-process wall time inside spans")
    else:
        units = end_to_end_units
        values = end_to_end(rounds, bench.wl.tokens)
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"attempted {attempted}, failed {failed}, correct {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
