"""The isingtri benchmark: closed-loop workloads of `isingtri` commands.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--record FILE]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --compare PARENT.jsonl CHANGE.jsonl

A run first times interpreter start plus `import isingtri.cli` (setup_s), then
runs whole rounds of the workload's commands, one at a time, each in its own
interpreter, for about --seconds.  After the timed rounds every output is
checked against a computation made apart from the engine that produced it
(checks.py).  A command fails on a nonzero exit or a failed check; failed
commands are never timed.  With --trace 1 the run makes pairs of one untraced
and one traced round (traced.py) and reports per-layer figures and the tracing
overhead instead.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 9

sys.path[:0] = [str(HERE), str(SRC)]
from checks import CheckFailed, Checker  # noqa: E402
from traced import LAYER_METRICS  # noqa: E402
from workloads import NAMED_METRICS, WORKLOADS, Command  # noqa: E402


def child_env() -> dict:
    """The commands' environment.  The string-hash seed is fixed: with a random
    one the same command's time spreads by up to a third between processes,
    for the same work and output, which would drown the changes runs compare."""
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(argv: list[str], stdout: Path, stderr: Path) -> tuple[int, float, float, float]:
    """Run one process to its end; return (exit code, wall s, CPU s, peak RSS MB)."""
    with open(stdout, "w") as out, open(stderr, "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024


class Run:
    """One benchmark run: its scratch directory, checker and command records."""

    def __init__(self, workload: str, seed: int, tag: str):
        self.workload = workload
        self.dir = OUT / f"{workload}-{seed}-{tag}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.commands = WORKLOADS[workload](seed, str(self.dir))
        self.checker = Checker(self.untimed_cli)
        self.n_ref = 0

    def untimed_cli(self, argv: list[str]) -> dict:
        """Reference outputs needed by the checks, run after the timed rounds."""
        self.n_ref += 1
        out = self.dir / f"ref{self.n_ref}.json"
        rc, *_ = spawn([sys.executable, "-m", "isingtri.cli", *argv], out, out.with_suffix(".err"))
        if rc != 0:
            raise CheckFailed(f"reference command {' '.join(argv)} exited {rc}")
        return json.loads(out.read_text())

    def run_round(self, label: str, traced: bool = False) -> list[dict]:
        records = []
        for cmd in self.commands:
            base = self.dir / f"{label}-{cmd.name}"
            if traced:
                argv = [sys.executable, str(HERE / "traced.py"), str(base) + ".trace.json", "--"]
            else:
                argv = [sys.executable, "-m", "isingtri.cli"]
            rc, wall, cpu, rss = spawn(argv + list(cmd.argv), base.with_suffix(".json"),
                                  base.with_suffix(".err"))
            records.append({"name": cmd.name, "argv": list(cmd.argv), "rc": rc, "wall_s": wall,
                            "cpu_s": cpu, "rss_mb": rss, "out": str(base.with_suffix(".json")),
                            "trace": str(base) + ".trace.json" if traced else None})
        return records

    def check(self, cmd: Command, rec: dict) -> None:
        """Fill in ok / error / result hash of one command record."""
        rec.update(ok=False, wrong=False, error=None, hash=None)
        if rec["rc"] != 0:
            rec["error"] = f"exit code {rec['rc']}"
            return
        try:
            payload = json.loads(Path(rec["out"]).read_text())
            rec["hash"] = payload["manifest"]["output_hashes"]["result"]
            self.checker.check(cmd.check, payload, cmd.params)
        except CheckFailed as exc:
            rec.update(wrong=True, error=f"check failed: {exc}")
        except (ValueError, KeyError, TypeError) as exc:
            rec.update(wrong=True, error=f"unreadable output: {type(exc).__name__}: {exc}")
        else:
            rec["ok"] = True

    def check_rounds(self, rounds: list[list[dict]]) -> None:
        for records in rounds:
            for cmd, rec in zip(self.commands, records):
                self.check(cmd, rec)


def measure_setup() -> float:
    """Median of interpreter start plus `import isingtri.cli`, after one warm-up."""
    times = []
    for i in range(SETUP_REPS + 1):
        rc, wall, _, _ = spawn([sys.executable, "-c", "import isingtri.cli"], Path(os.devnull),
                            Path(os.devnull))
        if rc != 0:
            raise RuntimeError("import isingtri.cli failed")
        times.append(wall)
    return statistics.median(times[1:])


def timed_rounds(run: Run, seconds: float, make_round) -> list:
    """Whole rounds until the next one would end after `seconds` (at least one)."""
    rounds, start = [], time.perf_counter()
    while True:
        rounds.append(make_round(len(rounds)))
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(rounds) > seconds:
            return rounds


def upper_quartile(values: list[float]) -> float:
    return statistics.quantiles(values, n=4, method="inclusive")[2] if len(values) > 1 else values[0]


def run_metrics(workload: str, rounds: list[list[dict]]) -> dict:
    """End-to-end figures of a run, from its successful commands only.

    Each command's time is the upper quartile of its times over the rounds.
    The shared host alternates, within seconds, between its usual busy state
    and spells in which the same work runs up to a third faster; the share of
    those spells differs from run to run.  The upper quartile reads the busy
    state unless three rounds in four fall in a fast spell, where the median
    flips with every run whose rounds are half fast."""
    walls: dict = {}
    cpus: dict = {}
    for rec in (rec for r in rounds for rec in r if rec["ok"]):
        walls.setdefault(rec["name"], []).append(rec["wall_s"])
        cpus.setdefault(rec["name"], []).append(rec["cpu_s"])
    if not walls:
        return {}
    walls = {name: upper_quartile(v) for name, v in walls.items()}
    out = {
        "wall_s": sum(walls.values()),
        "cpu_s": sum(upper_quartile(v) for v in cpus.values()),
        "cmd_geomean_s": math.exp(statistics.fmean(math.log(w) for w in walls.values())),
        "peak_rss_mb": max(rec["rss_mb"] for r in rounds for rec in r if rec["ok"]),
    }
    for name, _unit, _better, fn in NAMED_METRICS[workload]:
        try:
            out[name] = fn(walls)
        except KeyError:            # a command it needs failed in every round
            pass
    return out


def medians(per_round: list[dict]) -> dict:
    names = {k for m in per_round for k in m}
    return {k: statistics.median(m[k] for m in per_round if k in m) for k in sorted(names)}


def bench_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def units() -> dict:
    spec = bench_spec()
    table = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for metrics in NAMED_METRICS.values():
        table.update({name: unit for name, unit, _b, _f in metrics})
    table.update({name: unit for name, unit, _b, _h in LAYER_METRICS})
    table["trace.overhead_s"] = table["cpu_s"] = "s"
    return table


def print_commands(label: str, records: list[dict]) -> None:
    for r in records:
        status = "ok" if r["ok"] else f"FAILED ({r['error']})"
        print(f"  {label:>8} {r['name']:<12} {r['wall_s']:9.3f} s {r['rss_mb']:7.1f} MB  "
              f"{status}  result {r['hash']}")


def bench(workload: str, seed: int, seconds: float, trace: bool, record: str | None) -> dict:
    run = Run(workload, seed, "trace" if trace else "plain")
    unit = units()
    report: dict = {"workload": workload, "seed": seed, "trace": int(trace)}
    if not trace:
        setup_s = measure_setup()
        rounds = timed_rounds(run, seconds, lambda i: run.run_round(f"r{i}"))
        run.check_rounds(rounds)
        figures = run_metrics(workload, rounds)
        figures["setup_s"] = setup_s
        all_records = [rec for r in rounds for rec in r]
        for i, r in enumerate(rounds):
            print_commands(f"round {i}", r)
        wanted = [m["name"] for m in bench_spec()["end_to_end"]]
    else:
        pairs = timed_rounds(run, seconds, lambda i: (run.run_round(f"u{i}"),
                                                      run.run_round(f"t{i}", traced=True)))
        run.check_rounds([r for pair in pairs for r in pair])
        per_pair = []
        for i, (plain, traced) in enumerate(pairs):
            print_commands(f"plain {i}", plain)
            print_commands(f"traced {i}", traced)
            for a, b in zip(plain, traced):
                if a["ok"] and b["ok"] and a["hash"] != b["hash"]:
                    b.update(ok=False, wrong=True, error="traced output differs from the untraced one")
            per_pair.append(layer_figures(plain, traced))
        counts = [{k: v for k, v in p.items() if unit.get(k) == "count"} for p in per_pair]
        if any(c != counts[0] for c in counts):
            print("  WARNING: layer counts differ between traced rounds of one seed")
        figures = medians(per_pair)
        all_records = [rec for pair in pairs for r in pair for rec in r]
        wanted = [m["name"] for m in bench_spec()["per_layer"]]
    attempted = len(all_records)
    failed = sum(1 for r in all_records if not r["ok"])
    correct = not any(r["wrong"] for r in all_records)
    print(f"workload {workload}: {attempted} commands attempted, {failed} failed"
          f"{'' if correct else ', WRONG OUTPUT'}")
    for name, value in figures.items():
        print(f"  {name:<30} {value:14.6f} {unit.get(name, '')}")
    report.update(correct=correct, attempted=attempted, failed=failed, figures=figures,
                  commands=[{k: r[k] for k in ("name", "argv", "rc", "wall_s", "cpu_s", "rss_mb", "ok",
                                               "error", "hash")} for r in all_records])
    if record:
        with open(record, "a") as fh:
            fh.write(json.dumps(report) + "\n")
    shutil.rmtree(run.dir, ignore_errors=True)
    missing = [m for m in wanted if m not in figures]
    if missing:
        raise RuntimeError(f"no successful command produced {missing}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m: {"value": figures[m], "unit": unit[m]} for m in wanted}}


def layer_figures(plain: list[dict], traced: list[dict]) -> dict:
    """Per-layer figures of one traced round, summed over its successful commands."""
    totals: dict = {}
    for rec in traced:
        if not rec["ok"]:
            continue
        for name, value in json.loads(Path(rec["trace"]).read_text())["metrics"].items():
            totals[name] = totals.get(name, 0) + value
    both = [(a, b) for a, b in zip(plain, traced) if a["ok"] and b["ok"]]
    totals["trace.overhead_s"] = sum(b["wall_s"] - a["wall_s"] for a, b in both)
    return totals


# ---------------------------------------------------------------------------
# comparison of two sets of recorded runs
# ---------------------------------------------------------------------------

def compare(parent_path: str, change_path: str) -> int:
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    better["cpu_s"] = "lower"
    for metrics in NAMED_METRICS.values():
        better.update({name: b for name, _u, b, _f in metrics})
    sides = []
    for path in (parent_path, change_path):
        runs = [json.loads(line) for line in Path(path).read_text().splitlines() if line.strip()]
        sides.append([r for r in runs if not r["trace"]])
    unit = units()
    workloads = sorted({r["workload"] for r in sides[0]} & {r["workload"] for r in sides[1]})
    print(f"{'workload':<16} {'metric':<18} {'parent median [q1, q3]':>32} "
          f"{'change median [q1, q3]':>32} {'wins':>7}  verdict")
    for wl in workloads:
        runs = [[r for r in side if r["workload"] == wl] for side in sides]
        fail_share = [sum(r["failed"] for r in rs) / max(1, sum(r["attempted"] for r in rs))
                      for rs in runs]
        for name in sorted({k for rs in runs for r in rs for k in r["figures"]}):
            values = [[r["figures"][name] for r in rs if name in r["figures"]] for rs in runs]
            if not all(values):
                continue
            sign = 1 if better[name] == "lower" else -1
            quart = [statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3 for v in values]
            med = [q[1] for q in quart]
            pairs = list(zip(values[0], values[1]))
            wins = sum(1 for a, b in pairs if sign * (b - a) < 0)
            verdict = "no bound"
            if name in bounds:
                spread = max((q[2] - q[0]) / q[1] for q in quart)
                change = sign * (med[1] - med[0]) / med[0]       # > 0 means worse
                if spread > bounds[name]:
                    worst_change = max(values[1]) if sign > 0 else min(values[1])
                    best_parent = min(values[0]) if sign > 0 else max(values[0])
                    beats_all = sign * (worst_change - best_parent) < 0
                    verdict = "better (every run)" if beats_all else "unresolved"
                elif change > bounds[name]:
                    verdict = f"WORSE by {change:.1%} (bound {bounds[name]:.0%})"
                elif wins >= 0.9 * len(pairs) and -change > (quart[0][2] - quart[0][0]) / med[0]:
                    verdict = f"better by {-change:.1%}"
                else:
                    verdict = "no change beyond the bound"
            cells = [f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}] {unit.get(name, '')}" for q in quart]
            print(f"{wl:<16} {name:<18} {cells[0]:>32} {cells[1]:>32} "
                  f"{wins:>3}/{len(pairs):<3}  {verdict}")
        print(f"{wl:<16} {'failed share':<18} {fail_share[0]:>32.4f} {fail_share[1]:>32.4f}")
    return 0


# ---------------------------------------------------------------------------
# harness self-test: failing and corrupted commands must be caught
# ---------------------------------------------------------------------------

def self_test() -> int:
    run = Run("samplers-nu2", 1, "selftest")
    cases = [
        ("nonzero exit", Command("bad_nu", ("coeffs", "--nu", "-1", "--target", "sphere",
                                            "--order", "6"), "sphere_nu1", {"order": 6}), None),
        ("sphere coefficient off by one",
         Command("sphere", ("coeffs", "--nu", "1", "--target", "sphere", "--order", "12"),
                 "sphere_nu1", {"order": 12}), corrupt_sphere),
        ("sample with a wrong edge count",
         Command("exact", ("sample", "exact", "--nu", "2", "--n", "2", "--reps", "50",
                           "--seed", "1"), "sphere_samples", {"edges": 6, "reps": 50}),
         corrupt_edges),
    ]
    caught = 0
    for label, cmd, corrupt in cases:
        run.commands = [cmd]
        clean = run.run_round("clean")[0]
        run.check(cmd, clean)
        bad = dict(clean)
        if corrupt:
            path = Path(clean["out"])
            bad["out"] = str(path.with_suffix(".corrupt.json"))
            Path(bad["out"]).write_text(json.dumps(corrupt(json.loads(path.read_text()))))
            run.check(cmd, bad)
        figures = run_metrics("samplers-nu2", [[bad]])
        ok = (not bad["ok"]) and figures == {} and (corrupt is None or clean["ok"])
        caught += ok
        print(f"{'caught' if ok else 'MISSED'}: {label}: {bad['error']}")
    shutil.rmtree(run.dir, ignore_errors=True)
    print(f"self-test: {caught} of {len(cases)} faults caught")
    return 0 if caught == len(cases) else 1


def corrupt_sphere(payload: dict) -> dict:
    coeffs = payload["result"]["series"]["coeffs"]
    coeffs["6"] = str(int(coeffs["6"]) + 1)
    return payload


def corrupt_edges(payload: dict) -> dict:
    payload["result"]["samples"][0]["edges"] += 3
    return payload


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="append this run's full record (JSON line) to FILE")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"))
    args = ap.parse_args(argv)
    if not (SRC / "isingtri" / "cli.py").is_file():
        print(f"error: no isingtri sources under {SRC}", file=sys.stderr)
        return 2
    if args.compare:
        return compare(*args.compare)
    if args.self_test:
        return self_test()
    if not args.workload:
        ap.error("--workload is required")
    result = bench(args.workload, args.seed, args.seconds, bool(args.trace), args.record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
