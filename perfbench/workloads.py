"""The benchmark's workloads: each is a round of `isingtri` commands.

A round is run as a closed loop, one command at a time.  Every command that
takes a seed gets one derived from the benchmark's `--seed`; the coefficient
commands are deterministic and take none.  Sizes are chosen so that several
rounds of each gated workload fit in one run; README.md gives the measured
cost of each command and the reasons for each size.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    """One `isingtri` invocation, the check its output must pass and its metric."""

    name: str
    argv: tuple[str, ...]
    check: str                       # key into checks.CHECKS
    params: dict = field(default_factory=dict)


def _seed(seed: int, k: int) -> str:
    return str(seed * 16 + k)


def critical_nuc(seed: int, scratch: str) -> list[Command]:
    return [
        Command("critical", ("critical", "--nu", "nu_c"), "critical_nuc"),
        Command("sphere_nuc", ("coeffs", "--nu", "nu_c", "--target", "sphere", "--order", "25"),
                "sphere_oracle", {"nu": "nu_c", "order": 25}),
        Command("u_nuc", ("coeffs", "--nu", "nu_c", "--target", "U", "--order", "60"),
                "u_series", {"nu": "nu_c", "order": 60}),
        Command("verify_nuc", ("verify", "--nu", "nu_c", "--order", "12"), "verify"),
    ]


def critical_spectral(seed: int, scratch: str) -> list[Command]:
    return [Command("spectral", ("spectral", "--nu", "nu_c", "--order", "31"), "spectral_nuc")]


def series_rational(seed: int, scratch: str) -> list[Command]:
    return [
        Command("sphere", ("coeffs", "--nu", "1", "--target", "sphere", "--order", "39"),
                "sphere_nu1", {"order": 39}),
        Command("word", ("coeffs", "--nu", "2", "--target", "word:++-", "--order", "15"),
                "boundary", {"nu": "2", "word": "++-", "order": 15}),
        Command("zplus", ("coeffs", "--nu", "2", "--target", "zplus:6", "--order", "24"),
                "boundary", {"nu": "2", "word": "++++++", "order": 24, "zplus4_order": 15}),
        Command("u_half", ("coeffs", "--nu", "1/2", "--target", "U", "--order", "90"),
                "u_series", {"nu": "1/2", "order": 90}),
        Command("verify_2", ("verify", "--nu", "2", "--order", "15"), "verify"),
    ]


def samplers_nu2(seed: int, scratch: str) -> list[Command]:
    sample_dir = f"{scratch}/exact_n5"
    return [
        Command("exact_cold", ("sample", "exact", "--nu", "2", "--n", "5", "--reps", "200",
                               "--seed", _seed(seed, 0), "--out", sample_dir),
                "sphere_samples", {"edges": 15, "reps": 200}),
        Command("stats", ("stats", "--in", sample_dir), "stats", {"reps": 200}),
        Command("exact_warm", ("sample", "exact", "--nu", "2", "--n", "2", "--reps", "500",
                               "--seed", _seed(seed, 1)),
                "sphere_samples", {"edges": 6, "reps": 500, "gibbs_n": 2}),
        Command("mcmc_e192", ("sample", "mcmc", "--nu", "2", "--n", "64", "--steps", "2000",
                              "--seed", _seed(seed, 2)),
                "sphere_samples", {"edges": 192, "reps": 1}),
        Command("mcmc_n1", ("sample", "mcmc", "--nu", "2", "--n", "1", "--steps", "100",
                            "--reps", "150", "--seed", _seed(seed, 3)),
                "sphere_samples", {"edges": 3, "reps": 150, "gibbs_n": 1}),
        Command("boltzmann", ("sample", "boltzmann", "--nu", "2", "--t", "1/20", "--word", "++",
                              "--series-order", "7", "--reps", "10", "--seed", _seed(seed, 4)),
                "gon_samples", {"word": "++", "reps": 10}),
    ]


WORKLOADS = {
    "critical-nuc": critical_nuc,
    "critical-spectral": critical_spectral,
    "series-rational": series_rational,
    "samplers-nu2": samplers_nu2,
}


def _wall(walls: dict, *names: str) -> float:
    return sum(walls[n] for n in names)


# Workload-specific end-to-end figures, each from the wall times of one
# run: (name, unit, better, function of {command: wall_s over rounds}).
NAMED_METRICS = {
    "critical-nuc": [
        ("sphere_nuc_s", "s", "lower", lambda w: w["sphere_nuc"]),
    ],
    "critical-spectral": [
        ("spectral_s", "s", "lower", lambda w: w["spectral"]),
    ],
    "series-rational": [
        ("sphere_s", "s", "lower", lambda w: w["sphere"]),
        ("boundary_s", "s", "lower", lambda w: _wall(w, "word", "zplus")),
    ],
    "samplers-nu2": [
        ("exact_cold_s", "s", "lower", lambda w: w["exact_cold"]),
        ("exact_draws_per_s", "draws/s", "higher", lambda w: 500 / w["exact_warm"]),
        ("mcmc_steps_per_s", "steps/s", "higher", lambda w: 2000 / w["mcmc_e192"]),
        ("boltzmann_s", "s", "lower", lambda w: w["boltzmann"]),
    ],
}
