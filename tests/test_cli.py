import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

try:
    import jsonschema
except ImportError:                 # pragma: no cover
    jsonschema = None

SCHEMA_DIR = Path(__file__).resolve().parents[1] / "src" / "isingtri" / "schemas"
PERFBENCH_DIR = Path(__file__).resolve().parents[1] / "perfbench"


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "isingtri.cli", *args],
                          capture_output=True, text=True, timeout=600)
    return proc


def load_schema(name):
    return json.loads((SCHEMA_DIR / f"{name}.schema.json").read_text())


def validate(payload, name):
    if jsonschema is not None:
        jsonschema.validate(payload, load_schema(name))


def test_critical_nu_c_exact_string():
    proc = run_cli("critical", "--nu", "nu_c")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["result"]["rho_exact"] == "-55/864 + 25/864*sqrt7"
    assert out["result"]["regime"] == "critical"
    validate(out["result"], "critical")
    validate(out["manifest"], "manifest")


def test_unknown_flag_exits_2():
    proc = run_cli("critical", "--nu", "1", "--bogus")
    assert proc.returncode == 2


def test_bad_input_structured_error():
    proc = run_cli("coeffs", "--nu", "0", "--target", "sphere", "--order", "5")
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert "error" in err and "message" in err


def test_coeffs_json_and_rerun_bit_identical():
    args = ("coeffs", "--nu", "2", "--target", "word:++", "--order", "7")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    pa, pb = json.loads(a.stdout), json.loads(b.stdout)
    assert pa["result"] == pb["result"]
    assert pa["manifest"]["output_hashes"] == pb["manifest"]["output_hashes"]
    validate(pa["result"], "coeffs")
    series = pa["result"]["series"]
    assert series["coeffs"]["1"] == "2"


@pytest.mark.parametrize("args, result_hash", [
    (("--nu", "nu_c", "--target", "sphere", "--order", "25"),
     "55227855a82321525aa2136470623266ec7b78171d11d15257e6b143bee30ee2"),
    (("--nu", "1", "--target", "sphere", "--order", "39"),
     "035ab93b7006477a912480859c8a8073a6eb060658fb7b1fbda6982db9b99112"),
    (("--nu", "2", "--target", "zplus:6", "--order", "24"),
     "968a905d4dac567a6bd61e10de094e96fcef63c0aaf4d5adbed335cc94e62d7c"),
    (("--nu", "2", "--target", "word:++-", "--order", "15"),
     "fd674630a790f45924a5b12a773b2953a18bd2c7548fa9936b722f2c5d41a364"),
    (("--nu", "nu_c", "--target", "word:+-+-", "--order", "14"),
     "61ca5584daf442800bf5ee549ac214720b1bbdfefa692e8cbd7790ff60261050"),
    (("--nu", "nu_c", "--target", "U", "--order", "60"),
     "37c63f4e367c11d38f86db01011957429b8a90b32dd368e0224c9701ae8bcf3e"),
    (("--nu", "1/2", "--target", "U", "--order", "90"),
     "f1d020feca18c0461b89e1bc3f80383fb85dd654f8dc058f08c61387e1ed3141"),
], ids=["sphere-nu_c-25", "sphere-1-39", "zplus6-2-24", "word-2-15", "word-nu_c-14",
        "U-nu_c-60", "U-1/2-90"])
def test_coeffs_output_hash_pinned(args, result_hash):
    proc = run_cli("coeffs", *args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["manifest"]["output_hashes"]["result"] == result_hash


def test_sample_exact_output_hash_pinned():
    proc = run_cli("sample", "exact", "--nu", "2", "--n", "5", "--reps", "20", "--seed", "7")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert (out["manifest"]["output_hashes"]["result"]
            == "665b97410e3e92aa77005314fcb9d39a8d105a39470801a5e610f7b207dc9a8e")


@pytest.mark.parametrize("args, result_hash", [
    (("boltzmann", "--nu", "2", "--t", "1/20", "--word", "++", "--series-order", "7",
      "--reps", "10", "--seed", "20"),
     "1aa225911cc6cc80397e3c94a371a0b73818b70748bff6c5fcd9c7436b2dcc51"),
    (("exact", "--nu", "2", "--n", "6", "--reps", "5", "--seed", "3"),
     "e887895f25e6b6924480748990901fde6b903d2fa4ef9fd616799c3b57a28fa4"),
    (("exact", "--nu", "3/2", "--n", "3", "--reps", "30", "--seed", "5"),
     "36272741546dd9cfc92edb1408d74f73638e59595414993a1f5a170b0f046be9"),
    (("mcmc", "--nu", "3/2", "--n", "4", "--steps", "3000", "--reps", "3", "--seed", "4"),
     "b6fc034d7a5d8903bedd60f4db1ede14f24f168f3c968391fae51a3eea800bc5"),
    (("mcmc", "--nu", "1/3", "--n", "4", "--steps", "3000", "--reps", "3", "--seed", "4"),
     "35f806c788945ab900312e58035ca634d7dd34b716f730ba3a06e29458edaeef"),
    # reaches the insert cases, so it notices a change of peeling-case order
    (("boltzmann", "--nu", "1/2", "--t", "1/4", "--word", "+", "--series-order", "15",
      "--reps", "30", "--seed", "5"),
     "5f3a8faeb80f85845e4fe1a8fdd3628995c5f448a585a2e413cae43ec786f67d"),
    (("exact", "--nu", "nu_c", "--n", "2", "--reps", "30", "--seed", "8"),
     "cfe4bcec010a54185443d8ce1dcae0e81ecad804a345da9fd898f6d9d0752c8c"),
    # large maps with hubs: many flips and vertex-index updates
    (("mcmc", "--nu", "2", "--n", "30", "--steps", "5000", "--reps", "2", "--seed", "11"),
     "f78727ba49c63d2be5834afc8f6612b6b467528424fd4285cd3155cdc9a85667"),
    # QuadExt weights in both Markov-chain moves
    (("mcmc", "--nu", "nu_c", "--n", "3", "--steps", "400", "--reps", "2", "--seed", "9"),
     "23b7e79a60245bfd4c740dacbffb710764514c01f63753bd3fa27119d382605a"),
], ids=["boltzmann-2-7", "exact-2-6", "exact-3/2-3", "mcmc-3/2-4", "mcmc-1/3-4",
        "boltzmann-1/2-15", "exact-nu_c-2", "mcmc-2-30", "mcmc-nu_c-3"])
def test_sample_output_hash_pinned(args, result_hash):
    proc = run_cli("sample", *args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["manifest"]["output_hashes"]["result"] == result_hash


@pytest.mark.parametrize("args", [
    ("coeffs", "--nu", "2", "--target", "word:++-", "--order", "8"),
    ("sample", "exact", "--nu", "2", "--n", "2", "--reps", "2", "--seed", "1"),
], ids=["coeffs", "sample-exact"])
def test_benchmark_tracer_finds_its_functions(args, tmp_path):
    # the tracer looks functions up by name: a rename must fail here, not in a traced run
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH_DIR / "traced.py"), str(trace), "--", *args],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(trace.read_text())["metrics"]
    assert "partition.words_read" in metrics
    assert "sampler.case_weights_calls" in metrics


def test_cli_import_loads_the_traced_layers_only():
    # every command pays for what `isingtri.cli` imports; the tracer needs the engines loaded
    probe = ("import json, sys, isingtri.cli; loaded = sys.modules; print(json.dumps(["
             "[m for m in ('dataclasses', 'inspect', 'isingtri.acceptance') if m in loaded], "
             "[m for m in ('exactnum', 'series', 'partition', 'criticality', 'maps', 'sampler', "
             "'cli') if 'isingtri.' + m not in loaded]]))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    unwanted, missing = json.loads(proc.stdout)
    assert unwanted == [] and missing == []


def test_stats_hash_independent_of_input_path(tmp_path):
    first = tmp_path / "first"
    proc = run_cli("sample", "exact", "--nu", "2", "--n", "1", "--seed", "3",
                   "--reps", "4", "--out", str(first))
    assert proc.returncode == 0
    second = tmp_path / "elsewhere" / "second"
    shutil.copytree(first, second)
    hashes = []
    for indir in (first, second):
        proc = run_cli("stats", "--in", str(indir))
        assert proc.returncode == 0
        out = json.loads(proc.stdout)
        assert out["result"]["count"] == 4
        hashes.append(out["manifest"]["output_hashes"]["result"])
    assert hashes[0] == hashes[1]


def test_coeffs_csv():
    proc = run_cli("coeffs", "--nu", "1/2", "--target", "U", "--order", "9",
                   "--out", "csv")
    out = json.loads(proc.stdout)
    assert out["result"]["csv"].splitlines()[0] == "exponent,coefficient,float"
    assert "3,1," in out["result"]["csv"]       # [t^3] U = 4 nu^2 = 1 at nu = 1/2


def test_oracle_subcommand_with_dump():
    proc = run_cli("oracle", "--nu", "2", "--target", "word:++", "--order", "4",
                   "--dump-maps")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    validate(out["result"], "oracle")
    assert out["result"]["series"]["coeffs"]["1"] == "2"
    assert any(line.startswith("alpha=") for line in out["result"]["maps"])


def test_verify_subcommand_green():
    proc = run_cli("verify", "--nu", "2", "--order", "8")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["result"]["all_ok"] is True
    validate(out["result"], "verify")



def test_asymp_sphere_schema():
    proc = run_cli("asymp", "--nu", "1", "--target", "sphere", "--order", "30")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    validate(out["result"], "asymp")
    validate(out["manifest"], "manifest")

def test_spectral_small_order():
    proc = run_cli("spectral", "--nu", "nu_c", "--order", "34")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    validate(out["result"], "spectral")
    lo, hi = out["result"]["radius"]
    assert 0.9 < lo <= hi < 1.05


def test_sample_exact_with_output(tmp_path):
    outdir = tmp_path / "runs"
    proc = run_cli("sample", "exact", "--nu", "2", "--n", "1", "--seed", "99",
                   "--reps", "5", "--out", str(outdir),
                   "--output", str(tmp_path / "batch.json"))
    assert proc.returncode == 0
    batch = json.loads((tmp_path / "batch.json").read_text())
    validate(batch, "sample")
    manifest = json.loads((tmp_path / "batch.json.manifest.json").read_text())
    validate(manifest, "manifest")
    assert len(list(outdir.glob("sample_*.json"))) == 5

    # stats recomputation from the stored samples agrees
    proc2 = run_cli("stats", "--in", str(outdir))
    out2 = json.loads(proc2.stdout)
    assert out2["result"]["count"] == 5
    assert out2["result"]["root_degree"] == batch["stats"]["root_degree"]
    validate(out2["result"], "stats")


@pytest.mark.parametrize("mode_args", [
    ("exact", "--nu", "2", "--n", "1"),
    ("boltzmann", "--nu", "2", "--t", "1/20", "--word", "++", "--series-order", "7"),
], ids=["exact", "boltzmann"])
def test_sample_determinism(mode_args):
    args = ("sample", *mode_args, "--seed", "4242", "--reps", "3")
    a = json.loads(run_cli(*args).stdout)
    b = json.loads(run_cli(*args).stdout)
    assert a["manifest"]["output_hashes"] == b["manifest"]["output_hashes"]
    validate(a["result"], "sample")


def test_report_quick_single_criterion():
    proc = run_cli("report", "--criteria", "1", "--quick")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    validate(out["result"], "report")
    assert out["result"]["all_passed"] is True
    assert "criterion 1" in out["result"]["text"]


def test_a_bug_keeps_its_traceback(monkeypatch):
    from isingtri import cli

    def broken(args):
        raise AttributeError("a bug, not a computational failure")

    monkeypatch.setattr(cli, "cmd_critical", broken)
    with pytest.raises(AttributeError):
        cli.main(["critical", "--nu", "2"])
