"""Command-line surface: every subsystem behind one binary with JSON output.

Each invocation emits a run manifest next to its results: the subcommand, the
full parameter set, library version, seeds, wall-clock time, peak resident
memory and a sha256 of the canonically serialized result payload.  Re-running
the same command reproduces the result hash bit for bit (samplers included: all
randomness is seed-derived).

Every subcommand reaches the engine layers through their module objects,
which `isingtri/__init__.py` registers to load on first use, so a command
compiles and runs only the layers it calls.  `acceptance` is imported inside
its subcommand (`report`), the only one that uses it.
"""

from __future__ import annotations

import argparse
import itertools
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

from . import __version__, criticality, exactnum, maps, partition, sampler, sha256

# the accepted --target forms of each subcommand that takes one
TARGETS = {
    "coeffs": "sphere | word:<+->... | U | zplus:<p>",
    "oracle": "sphere | word:<+->... | q:<p>",
    "asymp": "sphere | word:<+->...",
}


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _result_hash(payload) -> str:
    return sha256(_canonical_json(payload).encode()).hexdigest()


def _peak_rss_mb() -> float:
    """This process's peak resident set in MB: VmHWM where /proc has it (Linux
    carries the spawning process's high-water mark into ru_maxrss), else ru_maxrss."""
    try:
        with open("/proc/self/status") as status:
            kb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except (OSError, StopIteration):
        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return round(kb / 1024, 2)


def _emit(args, subcommand: str, params: dict, result, t0: float, seeds=None,
          extra: dict | None = None) -> None:
    manifest = {
        "subcommand": subcommand,
        "params": params,
        "version": __version__,
        "seeds": seeds,
        "rng_algorithm": sampler.RNG_ALGORITHM if seeds else None,
        "wallclock_s": round(time.time() - t0, 3),
        "peak_rss_mb": _peak_rss_mb(),
        "output_hashes": {"result": _result_hash(result)},
        **(extra or {}),
    }
    out = getattr(args, "output", None)
    if out:
        path = Path(out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(result, indent=2) + "\n")
        Path(str(path) + ".manifest.json").write_text(json.dumps(manifest, indent=2) + "\n")
    else:
        sys.stdout.write(json.dumps({"manifest": manifest, "result": result}, indent=2) + "\n")


def _interval_json(iv: exactnum.Interval) -> list:
    lo, hi = iv.float_bounds()
    return [lo, hi]


def _unknown_target(cmd: str, target: str) -> SystemExit:
    """Exit 2, as argparse does for a bad argument, naming the accepted forms."""
    print(f"isingtri {cmd}: error: unknown --target {target!r} (accepted: {TARGETS[cmd]})",
          file=sys.stderr)
    return SystemExit(2)


def _series_csv(series) -> str:
    lines = ["exponent,coefficient,float"]
    for k in series.support():
        c = series.coeff(k)
        lines.append(f"{k},{exactnum.format_scalar(c)},"
                     f"{float(exactnum.scalar_to_float(c, 64).mid):.17g}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_coeffs(args) -> int:
    t0 = time.time()
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    target = args.target
    if target == "sphere":
        series = partition.sphere_series(nu, order)
    elif target == "U":
        series = partition.solve_U(nu, order)
    elif target.startswith("word:"):
        word = maps.normalize_word(target[5:])
        series = partition.WordTable(nu, order).series(word)
    elif target.startswith("zplus:"):
        p = int(target[6:])
        series = partition.zplus_recursion(p, nu, order, partition.WordTable(nu, order + p))
    else:
        raise _unknown_target("coeffs", target)
    if args.out == "csv":
        result = {"format": "csv", "target": target, "csv": _series_csv(series)}
    else:
        result = {"format": "json", "target": target, "series": series.to_json()}
    _emit(args, "coeffs", {"nu": args.nu, "target": target, "order": order,
                           "out": args.out}, result, t0)
    return 0


def cmd_oracle(args) -> int:
    t0 = time.time()
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    target = args.target
    cap = maps.DEFAULT_CAP if args.cap is None else args.cap
    dump = []
    if target == "sphere":
        series = maps.oracle_sphere(nu, order, cap=cap)
        if args.dump_maps:
            for n in range(3, order + 1, 3):
                dump += [m.to_text() for m in maps.enumerate_maps(n, "sphere", cap=cap)]
    elif target.startswith("q:"):
        series = maps.oracle_Q(int(target[2:]), nu, order, cap=cap)
    elif target.startswith("word:"):
        word = maps.normalize_word(target[5:])
        series = maps.oracle_series(word, nu, order, cap=cap)
        if args.dump_maps:
            p = len(word)
            for n in range(1, order + 1):
                if (2 * n - p) % 3 == 0:
                    dump += [m.to_text() for m in maps.enumerate_maps(n, "pgon", p, cap=cap)]
    else:
        raise _unknown_target("oracle", target)
    result = {"target": target, "series": series.to_json()}
    if args.dump_maps:
        result["maps"] = dump
    _emit(args, "oracle", {"nu": args.nu, "target": target, "order": order,
                           "cap": cap, "dump_maps": args.dump_maps}, result, t0)
    return 0


def cmd_verify(args) -> int:
    t0 = time.time()
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    words = partition.WordTable(nu, order + 2)
    rep = partition.verify_catalytic(nu, order, words)
    oracle_order = min(order, maps.DEFAULT_CAP)
    q_results = [r.to_json() for r in partition.check_q_identities(words, oracle_order)]
    oracle_ok = True
    for p in (1, 2, 3):
        for bits in itertools.product("+-", repeat=p):
            w = "".join(bits)
            if not words.series(w).eq_to_order(maps.oracle_series(w, nu, oracle_order), oracle_order):
                oracle_ok = False
    all_ok = rep.ok and oracle_ok and all(r["ok"] for r in q_results)
    result = {
        "catalytic": rep.to_json(),
        "q_identities": q_results,
        "oracle_equivalence_to": oracle_order,
        "oracle_equivalence_ok": oracle_ok,
        "all_ok": all_ok,
    }
    _emit(args, "verify", {"nu": args.nu, "order": order}, result, t0)
    return 0 if all_ok else 1


def cmd_critical(args) -> int:
    t0 = time.time()
    nu = exactnum.parse_scalar(args.nu)
    width = Fraction(args.width) if "/" in args.width else Fraction(float(args.width)).limit_denominator(10 ** 40)
    crit = criticality.critical_point(nu, width)
    result = crit.to_json()
    _emit(args, "critical", {"nu": args.nu, "width": args.width}, result, t0)
    return 0


def cmd_spectral(args) -> int:
    t0 = time.time()
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    crit = criticality.critical_point(nu)
    z1, z2, zm = criticality.boundary_at_tnu(partition.WordTable(nu, order), crit, order - 1)
    matrix = criticality.mean_matrix(crit, z1, z2, zm)
    radius = criticality.spectral_radius(matrix)
    result = {
        "matrix": matrix.to_json(),
        "radius": _interval_json(radius),
        "below_one": bool(radius.hi < 1),
        "inputs": {"Z_+": _interval_json(z1), "Z_++": _interval_json(z2),
                   "Z_+-": _interval_json(zm), "t_nu": _interval_json(crit.t_nu)},
    }
    _emit(args, "spectral", {"nu": args.nu, "order": order}, result, t0)
    return 0


def cmd_asymp(args) -> int:
    t0 = time.time()
    nu = exactnum.parse_scalar(args.nu)
    order = args.order
    target = args.target
    if target == "sphere":
        series = partition.sphere_series(nu, order)
    elif target.startswith("word:"):
        word = maps.normalize_word(target[5:])
        series = partition.WordTable(nu, order).series(word)
    else:
        raise _unknown_target("asymp", target)
    crit = criticality.critical_point(nu)
    fit = criticality.estimate_asymptotics(series, crit)
    result = {"target": target, "fit": fit.to_json(), "regime": crit.regime}
    _emit(args, "asymp", {"nu": args.nu, "target": target, "order": order}, result, t0)
    return 0


def cmd_sample(args) -> int:
    t0 = time.time()
    nu = exactnum.parse_scalar(args.nu)
    seeds = [sampler.derive_seed(args.seed, i) for i in range(args.reps)]
    samples = []
    drawn = []
    extra = None
    if args.mode == "exact":
        ctx = sampler.ExactSamplerContext(nu, 3 * args.n + 1)
        for i in range(args.reps):
            m = sampler.exact_sample(nu, args.n, seed=seeds[i], ctx=ctx)
            drawn.append(m)
    elif args.mode == "mcmc":
        for i in range(args.reps):
            m = sampler.mcmc_sample(nu, args.n, args.steps, seed=seeds[i])
            drawn.append(m)
    elif args.mode == "boltzmann":
        # t_nu is known as an enclosure: draw at its lower end, never above t_nu
        t = (criticality.critical_point(nu).t_nu.lo if args.t == "t_nu"
             else exactnum.parse_scalar(args.t))
        bctx = sampler.BoltzmannContext(nu, t, series_order=args.series_order)
        word = maps.normalize_word(args.word)
        for i in range(args.reps):
            drawn.append(sampler.boltzmann_sample(word, nu, bctx, seed=seeds[i]))
        extra = {"truncation": _truncated_mass(bctx, word)}
    else:
        raise SystemExit(2)
    for m, s in zip(drawn, seeds):
        samples.append({"seed": s, "map": m.to_text(), "edges": m.n_edges,
                        "mono": m.monochromatic_count()})
    stats = sampler.collect_stats(drawn, r_max=args.r_max,
                                  meta={"mode": args.mode, "nu": args.nu, "seed": args.seed,
                                        "rng": sampler.RNG_ALGORITHM})
    result = {"samples": samples, "stats": stats.to_json()}
    if args.output_dir:
        outdir = Path(args.output_dir)
        outdir.mkdir(parents=True, exist_ok=True)
        for i, rec in enumerate(samples):
            (outdir / f"sample_{i:05d}.json").write_text(json.dumps(rec, indent=2) + "\n")
        (outdir / "stats.json").write_text(json.dumps(stats.to_json(), indent=2) + "\n")
    _emit(args, "sample", {"mode": args.mode, "nu": args.nu, "n": args.n,
                           "steps": args.steps, "t": args.t, "word": args.word,
                           "seed": args.seed, "reps": args.reps}, result, t0,
          seeds=seeds, extra=extra)
    return 0


def _truncated_mass(bctx: sampler.BoltzmannContext, word: str) -> dict:
    """The Boltzmann mass of the sizes past the series order, P(n > N), by the
    power-law tail model: a heuristic estimate, and below t_nu, where the
    true tail decays geometrically, an upper estimate."""
    value = exactnum.scalar_to_float(bctx.value(word), 96).mid
    model = criticality.eval_series_interval(bctx.words.series(word),
                                             exactnum.scalar_to_float(bctx.t, 96),
                                             criticality.decay_exponent(bctx.nu))
    tail = max(model.mid - value, 0)
    return {"t": exactnum.format_scalar(bctx.t), "series_order": bctx.order,
            "mass": float(tail / (value + tail)),
            "estimate": "heuristic: power-law tail model, an upper estimate below t_nu"}


def cmd_stats(args) -> int:
    t0 = time.time()
    indir = Path(args.input_dir)
    stored = []
    for path in sorted(indir.glob("sample_*.json")):
        rec = json.loads(path.read_text())
        stored.append(maps.CombMap.from_text(rec["map"]))
    stats = sampler.collect_stats(stored, r_max=args.r_max)
    result = stats.to_json()
    _emit(args, "stats", {"input_dir": args.input_dir, "r_max": args.r_max}, result, t0)
    return 0


def cmd_report(args) -> int:
    from .acceptance import run_acceptance

    t0 = time.time()
    which = [int(x) for x in args.criteria.split(",")] if args.criteria else None
    results = run_acceptance(which, quick=args.quick)
    result = {
        "criteria": [r.to_json() for r in results],
        "all_passed": all(r.passed for r in results),
    }
    lines = []
    for r in results:
        lines.append(f"[{'PASS' if r.passed else 'FAIL'}] criterion {r.cid}: {r.name} "
                     f"({r.runtime_s:.1f}s)")
    result["text"] = "\n".join(lines)
    _emit(args, "report", {"criteria": args.criteria, "quick": args.quick}, result, t0)
    print("\n" + result["text"], file=sys.stderr)
    return 0 if result["all_passed"] else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="isingtri",
                                 description="Exact series, critical data and samplers "
                                             "for Ising-weighted random triangulations")
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p):
        p.add_argument("--output", help="write result JSON here (manifest alongside)")

    p = sub.add_parser("coeffs", help="coefficient tables from the series engines")
    p.add_argument("--nu", required=True)
    p.add_argument("--target", required=True, help=TARGETS["coeffs"])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--out", choices=("json", "csv"), default="json")
    common(p)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("oracle", help="brute-force coefficient tables")
    p.add_argument("--nu", required=True)
    p.add_argument("--target", required=True, help=TARGETS["oracle"])
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--cap", type=int)
    p.add_argument("--dump-maps", action="store_true")
    common(p)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("verify", help="identity suites; nonzero exit on failure")
    p.add_argument("--nu", required=True)
    p.add_argument("--order", type=int, default=15)
    common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("critical", help="singularity location and regime")
    p.add_argument("--nu", required=True)
    p.add_argument("--width", default="1/1000000000000000000000000000000")
    common(p)
    p.set_defaults(func=cmd_critical)

    p = sub.add_parser("spectral", help="branching mean matrix and Perron root")
    p.add_argument("--nu", required=True)
    p.add_argument("--order", type=int, default=46)
    common(p)
    p.set_defaults(func=cmd_spectral)

    p = sub.add_parser("asymp", help="coefficient asymptotics estimation")
    p.add_argument("--nu", required=True)
    p.add_argument("--target", default="sphere", help=TARGETS["asymp"])
    p.add_argument("--order", type=int, default=60)
    common(p)
    p.set_defaults(func=cmd_asymp)

    p = sub.add_parser("sample", help="random generation")
    p.add_argument("mode", choices=("exact", "mcmc", "boltzmann"))
    p.add_argument("--nu", required=True)
    p.add_argument("--n", type=int, default=1)
    p.add_argument("--steps", type=int, default=100000)
    p.add_argument("--t", default="t_nu")
    p.add_argument("--word", default="++")
    p.add_argument("--series-order", type=int, default=30)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--reps", type=int, default=1)
    p.add_argument("--r-max", type=int, default=4)
    p.add_argument("--out", dest="output_dir", help="directory for per-sample JSON")
    common(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("stats", help="recompute statistics from stored samples")
    p.add_argument("--in", dest="input_dir", required=True)
    p.add_argument("--r-max", type=int, default=4)
    common(p)
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("report", help="acceptance-criteria summary")
    p.add_argument("--criteria", help="comma-separated ids, default all")
    p.add_argument("--quick", action="store_true",
                   help="reduced orders for smoke runs (not the acceptance gate)")
    common(p)
    p.set_defaults(func=cmd_report)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    # the failures the commands raise (NotImplementedError is a RuntimeError):
    # a structured error and exit 1; a bug such as an AttributeError keeps its
    # traceback
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        err = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(err), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
