import importlib.util
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


def test_manifest_records_peak_memory():
    proc = run_cli("critical", "--nu", "2")
    assert proc.returncode == 0
    manifest = json.loads(proc.stdout)["manifest"]
    assert 1 < manifest["peak_rss_mb"] < 1024
    validate(manifest, "manifest")
    # optional, and outside the hashed result
    schema = load_schema("manifest")
    assert "peak_rss_mb" not in schema["required"]
    validate({k: v for k, v in manifest.items() if k != "peak_rss_mb"}, "manifest")
    if jsonschema is not None:
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate({**manifest, "peak_rss_mb": "17 MB"}, schema)


def test_peak_memory_is_this_process_only():
    # a parent with a 64 MB high-water mark spawns the command
    script = ("import subprocess, sys\n"
              "held = b'x' * (64 << 20)\n"
              "sys.stdout.write(subprocess.run([sys.executable, '-m', 'isingtri.cli', 'critical',"
              " '--nu', '2'], capture_output=True, text=True, check=True).stdout)\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["manifest"]["peak_rss_mb"] < 40


def test_unknown_flag_exits_2():
    proc = run_cli("critical", "--nu", "1", "--bogus")
    assert proc.returncode == 2


@pytest.mark.parametrize("command", [
    ("coeffs", "--order", "5"), ("oracle", "--order", "5"), ("asymp",),
], ids=["coeffs", "oracle", "asymp"])
def test_unknown_target_exits_2_and_names_the_forms(command):
    proc = run_cli(*command, "--nu", "2", "--target", "foo")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "'foo'" in proc.stderr and "sphere | word:<+->..." in proc.stderr


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
    # a two-block word, read from the Dobrushin table
    (("--nu", "2", "--target", "word:+++--", "--order", "20"),
     "f94c2967b2107ba5053efb761f212dbe0cf529ba2aa6322348f4622a4a19cd78"),
    # a four-block word, computed by the peeling recursion
    (("--nu", "3/2", "--target", "word:+-++-", "--order", "18"),
     "c8374863d949804577dcbc07c88839224e3a9b2e2f60213ae67626ac78f258af"),
], ids=["sphere-nu_c-25", "sphere-1-39", "zplus6-2-24", "word-2-15", "word-nu_c-14",
        "U-nu_c-60", "U-1/2-90", "word-2-20", "word-3/2-18"])
def test_coeffs_output_hash_pinned(args, result_hash):
    proc = run_cli("coeffs", *args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["manifest"]["output_hashes"]["result"] == result_hash


@pytest.mark.parametrize("args, result_hash", [
    (("verify", "--nu", "nu_c", "--order", "12"),
     "12f1d25df73ed4a9dae9789fe70f593a80594ff30c7b1f08b27a67412fda93c0"),
    (("oracle", "--nu", "nu_c", "--target", "sphere", "--order", "9"),
     "630c5649d3ef1e5fa139db085fb21fe6bec7258644b4494f37cdeb509f329446"),
    (("oracle", "--nu", "2", "--target", "q:3", "--order", "9"),
     "95e93dd553a67eb13fb4236304f7b79ec7e276225ed9331b796f9305ba3e26a5"),
    (("oracle", "--nu", "nu_c", "--target", "word:++-", "--order", "9"),
     "d6943f92ed45a6f156f01373642914dd523bbd6e791a08e2afafb4a4bf4d2c1b"),
    (("spectral", "--nu", "nu_c", "--order", "31"),
     "17a14ddebd58828c959b6f0e1f3fced90afc62065715682320c88cc7d9be64fc"),
    # order 30: the first with the ten nonzero coefficients the fit needs
    (("asymp", "--nu", "2", "--target", "word:++-", "--order", "30"),
     "7721b041fd77dfead24712eecd2d81d65291a7b5923c4656a37cb9025c8481f4"),
], ids=["verify-nu_c-12", "oracle-sphere-nu_c-9", "oracle-q3-2-9", "oracle-word-nu_c-9",
        "spectral-nu_c-31", "asymp-word-2-30"])
def test_oracle_output_hash_pinned(args, result_hash):
    proc = run_cli(*args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["manifest"]["output_hashes"]["result"] == result_hash


@pytest.mark.parametrize("args, result_hash", [
    # root isolation and the choice by the ratio estimate, on both branches
    (("critical", "--nu", "2"),
     "5933522e69355755657ca20f64e01188c85446741bd23cf47c75c5c713f6e938"),
    (("critical", "--nu", "1/2"),
     "4cb1f33414e24d603e480eb6824df064f5a57b48642b78cab97d67d6b7fa5342"),
    (("spectral", "--nu", "2", "--order", "40"),
     "a09cd8c48e20130b566e3c75618dc9388d07dd828d1d7ac8f2ae4959ad7d85b8"),
    (("asymp", "--nu", "1", "--target", "sphere", "--order", "60"),
     "92aad23d5204e8dbf25a7297a2b5e320ad2260774b1accf9abd5fbbf288de171"),
], ids=["critical-2", "critical-1/2", "spectral-2-40", "asymp-sphere-1-60"])
def test_criticality_output_hash_pinned(args, result_hash):
    proc = run_cli(*args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["manifest"]["output_hashes"]["result"] == result_hash


def test_critical_rejects_a_nonpositive_width():
    proc = run_cli("critical", "--nu", "2", "--width", "0")
    assert proc.returncode == 1
    err = json.loads(proc.stderr.strip().splitlines()[-1])
    assert err == {"error": "ValueError", "message": "width must be positive, got 0"}


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
     "848d6d35709dcb994cbaa580954e5d9ec35c578a8abc8ba5d5a0c2ed1ea9ea5e"),
    (("exact", "--nu", "nu_c", "--n", "2", "--reps", "30", "--seed", "8"),
     "cfe4bcec010a54185443d8ce1dcae0e81ecad804a345da9fd898f6d9d0752c8c"),
    # large maps with hubs: many flips and vertex-index updates
    (("mcmc", "--nu", "2", "--n", "30", "--steps", "5000", "--reps", "2", "--seed", "11"),
     "f78727ba49c63d2be5834afc8f6612b6b467528424fd4285cd3155cdc9a85667"),
    # QuadExt weights in both Markov-chain moves
    (("mcmc", "--nu", "nu_c", "--n", "3", "--steps", "400", "--reps", "2", "--seed", "9"),
     "23b7e79a60245bfd4c740dacbffb710764514c01f63753bd3fa27119d382605a"),
    # draws that reach words of four and more cyclic blocks
    (("exact", "--nu", "2", "--n", "8", "--reps", "10", "--seed", "1"),
     "abfb26a1d1de923ce7e76b90baf9fb5b5d93fad5030ac4b8a1c420b2040f8b8c"),
    (("exact", "--nu", "nu_c", "--n", "4", "--reps", "5", "--seed", "2"),
     "4ddeed980bf1832d7cbd041a44ef0f2863048c165b35f9602168b6638a19da69"),
], ids=["boltzmann-2-7", "exact-2-6", "exact-3/2-3", "mcmc-3/2-4", "mcmc-1/3-4",
        "boltzmann-1/2-15", "exact-nu_c-2", "mcmc-2-30", "mcmc-nu_c-3", "exact-2-8",
        "exact-nu_c-4"])
def test_sample_output_hash_pinned(args, result_hash):
    proc = run_cli("sample", *args)
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert out["manifest"]["output_hashes"]["result"] == result_hash


@pytest.mark.parametrize("args, solves", [
    (("coeffs", "--nu", "2", "--target", "word:++-", "--order", "8"), 1),
    (("sample", "exact", "--nu", "2", "--n", "2", "--reps", "2", "--seed", "1"), 1),
    # the command that loads the fewest layers: the tracer must load the rest itself
    (("critical", "--nu", "nu_c"), 0),
    # order 31: the lowest at which the inputs can be evaluated at t_nu
    (("spectral", "--nu", "nu_c", "--order", "31"), 1),
], ids=["coeffs", "sample-exact", "critical", "spectral"])
def test_benchmark_tracer_finds_its_functions(args, solves, tmp_path):
    # the tracer looks functions up by name: a rename must fail here, not in a traced run,
    # and a solver bound privately would leave its per-layer figures at 0
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH_DIR / "traced.py"), str(trace), "--", *args],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(trace.read_text())["metrics"]
    assert "partition.words_read" in metrics
    assert "sampler.case_weights_calls" in metrics
    assert metrics["partition.dobrushin_solves"] == solves


def test_benchmark_tracer_times_the_lazily_loaded_oracle(tmp_path):
    # the oracle's names load on first access: unless they are bound in `maps`,
    # the tracer wraps nothing and the oracle span reads 0 without an error
    trace = tmp_path / "trace.json"
    proc = subprocess.run([sys.executable, str(PERFBENCH_DIR / "traced.py"), str(trace), "--",
                           "verify", "--nu", "2", "--order", "6"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    metrics = json.loads(trace.read_text())["metrics"]
    assert metrics["maps.oracle_s"] > 0
    assert metrics["maps.validate_calls"] > 0


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


ENGINE_LAYERS = ("exactnum", "series", "maps", "partition", "criticality", "sampler")
SAMPLES = "<sample dir>"            # replaced by the `sample_dir` fixture


@pytest.fixture(scope="module")
def sample_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("samples")
    proc = run_cli("sample", "exact", "--nu", "2", "--n", "2", "--reps", "4", "--seed", "3",
                   "--out", str(outdir))
    assert proc.returncode == 0, proc.stderr
    return outdir


def run_in_fresh_interpreter(args, sample_dir, tmp_path):
    """Run one command in-process in a new interpreter.

    Returns the engine layers executed by `import isingtri.cli` and by the
    whole command (a layer still registered lazily has not been compiled or
    run), and the names in `sys.modules` at the end.
    """
    args = [str(sample_dir) if a == SAMPLES else a for a in args]
    probe = ("import json, sys, types, isingtri.cli\n"
             f"layers = {ENGINE_LAYERS!r}\n"
             "run = lambda: [m for m in layers "
             "if type(sys.modules['isingtri.' + m]) is types.ModuleType]\n"
             "on_import = run()\n"
             "rc = isingtri.cli.main(sys.argv[1:])\n"
             "print(json.dumps([rc, on_import, run(), sorted(sys.modules)]))")
    proc = subprocess.run([sys.executable, "-c", probe, *args, "--output", str(tmp_path / "out.json")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    rc, on_import, executed, loaded = json.loads(proc.stdout)
    assert rc == 0
    return on_import, set(executed), set(loaded)


ORACLE_MODULES = {"isingtri.maps.oracle", "isingtri.maps.enumerate"}


@pytest.mark.parametrize("args, allowed", [
    (("critical", "--nu", "nu_c"), {"exactnum", "criticality"}),
    (("coeffs", "--nu", "nu_c", "--target", "sphere", "--order", "9"),
     set(ENGINE_LAYERS) - {"criticality", "sampler", "maps"}),
    (("sample", "exact", "--nu", "2", "--n", "2", "--reps", "5", "--seed", "1"),
     set(ENGINE_LAYERS) - {"criticality", "series"}),
    (("sample", "mcmc", "--nu", "2", "--n", "2", "--steps", "50", "--seed", "1"),
     {"exactnum", "maps", "sampler"}),
    (("stats", "--in", SAMPLES), {"exactnum", "maps", "sampler"}),
], ids=["critical", "coeffs-sphere", "sample-exact", "sample-mcmc", "stats"])
def test_commands_execute_only_the_layers_they_call(args, allowed, sample_dir, tmp_path):
    on_import, executed, loaded = run_in_fresh_interpreter(args, sample_dir, tmp_path)
    assert on_import == []
    assert executed <= allowed
    # none of these commands calls the brute-force oracle
    assert not loaded & ORACLE_MODULES


def test_maps_and_sampler_share_one_combmap(tmp_path):
    # importing a submodule of the lazily registered `maps` by its full name ran
    # `maps/__init__.py` first and then loaded `combmap` a second time
    probe = ("import sys, isingtri.cli\n"
             "assert isingtri.cli.main(sys.argv[1:]) == 0\n"
             "from isingtri import maps, sampler\n"
             "home = sys.modules['isingtri.maps.combmap']\n"
             "assert maps.CombMap is sampler.CombMap is home.CombMap\n"
             "assert maps.InvalidMap is home.InvalidMap\n")
    proc = subprocess.run([sys.executable, "-c", probe, "sample", "exact", "--nu", "2", "--n", "2",
                           "--reps", "3", "--seed", "1", "--output", str(tmp_path / "out.json")],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr


GATED_COMMANDS = [
    ("critical", "--nu", "nu_c"),
    ("coeffs", "--nu", "nu_c", "--target", "sphere", "--order", "9"),
    ("verify", "--nu", "2", "--order", "6"),
    ("sample", "exact", "--nu", "2", "--n", "2", "--reps", "5", "--seed", "1"),
    ("sample", "mcmc", "--nu", "2", "--n", "2", "--steps", "50", "--seed", "1"),
    ("sample", "boltzmann", "--nu", "2", "--t", "1/20", "--word", "++", "--series-order", "7",
     "--reps", "3", "--seed", "1"),
    ("stats", "--in", SAMPLES),
]


@pytest.mark.skipif(importlib.util.find_spec("_sha256") is None,
                    reason="this interpreter has no builtin SHA-256 module")
@pytest.mark.parametrize("args", GATED_COMMANDS, ids=[
    "critical", "coeffs-sphere", "verify", "sample-exact", "sample-mcmc", "sample-boltzmann",
    "stats"])
def test_commands_do_not_load_openssl(args, sample_dir, tmp_path):
    # `hashlib` maps OpenSSL's libcrypto, about 4 MB resident in every command
    _, _, loaded = run_in_fresh_interpreter(args, sample_dir, tmp_path)
    assert "_hashlib" not in loaded


def test_result_hash_without_the_builtin_sha256():
    # the `hashlib` fallback gives the same seed streams and result hash
    probe = ("import sys\n"
             "sys.modules['_sha256'] = None\n"
             "import hashlib, isingtri, isingtri.cli\n"
             "assert isingtri.sha256 is hashlib.sha256\n"
             "sys.exit(isingtri.cli.main(sys.argv[1:]))")
    proc = subprocess.run([sys.executable, "-c", probe, "sample", "exact", "--nu", "2", "--n", "5",
                           "--reps", "20", "--seed", "7"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert (out["manifest"]["output_hashes"]["result"]
            == "665b97410e3e92aa77005314fcb9d39a8d105a39470801a5e610f7b207dc9a8e")


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


def test_sample_boltzmann_at_t_nu_reports_its_truncated_mass():
    proc = run_cli("sample", "boltzmann", "--nu", "2", "--t", "t_nu", "--series-order", "30",
                   "--reps", "3", "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    validate(out["manifest"], "manifest")
    truncation = out["manifest"]["truncation"]
    assert truncation["series_order"] == 30
    assert 0 < truncation["mass"] < 1
    assert "heuristic" in truncation["estimate"]
    assert all(s["edges"] <= 30 for s in out["result"]["samples"])


def test_report_quick_single_criterion():
    proc = run_cli("report", "--criteria", "1", "--quick")
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    validate(out["result"], "report")
    assert out["result"]["all_passed"] is True
    assert "criterion 1" in out["result"]["text"]


def test_report_quick_passes_every_criterion():
    proc = run_cli("report", "--quick")
    assert proc.returncode == 0
    criteria = json.loads(proc.stdout)["result"]["criteria"]
    assert [c["id"] for c in criteria] == list(range(1, 12))
    assert all(c["passed"] for c in criteria)


def test_a_bug_keeps_its_traceback(monkeypatch):
    from isingtri import cli

    def broken(args):
        raise AttributeError("a bug, not a computational failure")

    monkeypatch.setattr(cli, "cmd_critical", broken)
    with pytest.raises(AttributeError):
        cli.main(["critical", "--nu", "2"])
