import hashlib
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import nnsft.sft as sft_module
from nnsft import harness
from nnsft.cli import build_parser, main, parse_ratio
from nnsft.entropy import ConvergenceError
from nnsft.lattice import parse_window
from nnsft.sft import NnSft, bad_sites, hard_square, parse_sft

from _util import forbidden_pairs, spec_text


def run_cli(*args: str, env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "nnsft.cli", *args],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )


def test_parse_ratio():
    assert parse_ratio("1/64") == 1.0 / 64.0
    assert parse_ratio("0.25") == 0.25
    with pytest.raises(ValueError):
        parse_ratio("a/b")
    for bad in ("1/0", "0/0", "nan", "inf", "-inf", "1e999", "1" + "0" * 400 + "/1"):
        with pytest.raises(ValueError):
            parse_ratio(bad)


def test_epsilon_and_cap_defaults_are_the_harness_defaults():
    # the parser holds them as text, so it needs no harness to build
    assert parse_ratio("1/64") == harness.DEFAULT_EPSILON
    assert parse_ratio("1/384") == harness.DEFAULT_CAP
    args = build_parser().parse_args(["verify", "--spec", "hardsquare"])
    assert (args.epsilon, args.cap) == (harness.DEFAULT_EPSILON, harness.DEFAULT_CAP)


def test_check_hardsquare():
    res = run_cli("check", "--spec", "hardsquare")
    assert res.returncode == 0
    assert "ssf: true" in res.stdout
    assert "safe_symbols: [0]" in res.stdout
    assert "local_implies_global: true" in res.stdout


def test_check_checkerboard4():
    res = run_cli("check", "--spec", "checkerboard:4")
    assert res.returncode == 1
    assert "ssf: false" in res.stdout
    assert "witness: north=0 south=1 east=2 west=3" in res.stdout
    assert "safe_symbols: []" in res.stdout
    assert "local_implies_global: unknown" in res.stdout


def test_check_spec_file(tmp_path):
    path = tmp_path / "hs.sft"
    path.write_text("alphabet 2\nhforbid 1 1\nvforbid 1 1\n")
    res = run_cli("check", "--spec", str(path))
    assert res.returncode == 0 and "ssf: true" in res.stdout


def test_input_errors_exit_2(tmp_path):
    assert run_cli("check", "--spec", "no-such-thing").returncode == 2
    bad = tmp_path / "bad.sft"
    bad.write_text("alphabet 2\nzap 1 1\n")
    res = run_cli("check", "--spec", str(bad))
    assert res.returncode == 2
    assert "line 2" in res.stderr
    # argparse's own refusals: one line naming the command, no usage block
    for args in (
        ("check", "--nonsense"),
        ("check", "--spec", "hardsquare", "--nonsense"),
        ("frobnicate",),
        ("verify", "--size", "4"),
        ("verify", "--spec", "hardsquare", "--corrupt", "nan"),
        ("verify", "--spec", "hardsquare", "--epsilon", "1/0"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert len(res.stderr.splitlines()) == 1, args
        assert res.stderr.startswith(("nnsft: error: ", f"nnsft {args[0]}: error: ")), args
    # a symbol of 2**63 or more, and a header far wider than its rows
    big = tmp_path / "big.txt"
    big.write_text("window -2 -2 5 5\n" + "0 0 0 0 0\n" * 2 + "0 0 99999999999999999999 0 0\n" + "0 0 0 0 0\n" * 2)
    wide = tmp_path / "wide.txt"
    wide.write_text("window 0 0 1000000000000 1\n0\n")
    # bad numeric flags: one error line, never a traceback
    for args in (
        ("verify", "--spec", "hardsquare", "--epsilon", "1/0"),
        ("verify", "--spec", "hardsquare", "--cap", "inf", "--epsilon", "inf"),
        ("verify", "--spec", "hardsquare", "--epsilon", "nan"),
        ("verify", "--spec", "hardsquare", "--support", "-1"),
        # a perturbation support over the sampling guard, refused before it is drawn
        ("verify", "--spec", "checkerboard:64", "--size", "4", "--trials", "1", "--support", "2097153"),
        ("verify", "--spec", "hardsquare", "--jobs", "0"),
        ("sample", "--spec", "hardsquare", "--size", "-1"),
        # windows over the sampling guard are refused before any allocation
        ("sample", "--spec", "hardsquare", "--size", "100000"),
        ("verify", "--spec", "hardsquare", "--size", "100000"),
        ("entropy", "--spec", "hardsquare", "--tol", "nan"),
        # strip widths over 64 are refused before q**m is formed
        ("entropy", "--spec", "full:1", "--strip-width", "65"),
        ("entropy", "--spec", "hardsquare", "--strip-width", "100000"),
        # at m = 1 the q x q pair tables are refused before they are built
        ("entropy", "--spec", "full:2000000", "--strip-width", "1"),
        # a tolerance below the residual's rounding floor, refused before iterating
        ("entropy", "--spec", "hardsquare", "--strip-width", "4", "--tol", "1e-300"),
        ("repair", "--spec", "checkerboard:5", "--window", str(big)),
        ("repair", "--spec", "checkerboard:5", "--window", str(wide)),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert len(res.stderr.splitlines()) == 1 and "error:" in res.stderr, args
    # a negative seed: one argparse type names the flag, for the rule
    # smallest too, which draws nothing
    clean = tmp_path / "clean.txt"
    clean.write_text("window -2 -2 5 5\n" + "0 0 0 0 0\n" * 5)
    for args in (
        ("sample", "--spec", "hardsquare", "--size", "2", "--seed", "-1"),
        ("verify", "--spec", "hardsquare", "--size", "2", "--trials", "1", "--seed", "-1"),
        ("repair", "--spec", "hardsquare", "--window", str(clean), "--rule", "random", "--seed", "-1"),
        ("repair", "--spec", "hardsquare", "--window", str(clean), "--seed", "-5"),
    ):
        res = run_cli(*args)
        assert res.returncode == 2, args
        assert len(res.stderr.splitlines()) == 1, args
        assert f"nnsft {args[0]}: error: argument --seed: must be a nonnegative integer" in res.stderr, args


def test_sample_and_repair_round_trip(tmp_path):
    raw = tmp_path / "w.txt"
    res = run_cli(
        "sample", "--spec", "hardsquare", "--size", "9", "--seed", "5",
        "--corrupt", "0.4", "--out", str(raw),
    )
    assert res.returncode == 0
    w = parse_window(raw.read_text())
    assert w.rect.centered_radius() == 9
    assert bad_sites(w, hard_square()).sites

    res = run_cli("repair", "--spec", "hardsquare", "--window", str(raw))
    assert res.returncode == 0
    repaired = parse_window(res.stdout)
    # default repair radius is the largest supported: N = 8
    inside = {s for s in bad_sites(repaired, hard_square()).sites
              if max(abs(s[0]), abs(s[1])) <= 8}
    assert inside == set()


def test_sample_stdout_admissible():
    res = run_cli("sample", "--spec", "checkerboard:5", "--size", "6", "--seed", "1")
    assert res.returncode == 0
    w = parse_window(res.stdout)
    from nnsft.sft import checkerboard

    assert forbidden_pairs(w, checkerboard(5)) == set()


def test_sample_corrupt_rate_outside_unit_interval_exits_2(monkeypatch, capsys):
    # a rate of 0 (or -0) prints the uncorrupted window; one outside
    # [0, 1] is refused with one error line, as verify refuses it
    args = ["sample", "--spec", "hardsquare", "--size", "4", "--seed", "5"]
    assert main(args) == 0
    plain = capsys.readouterr().out
    for rate in ("0", "-0"):
        assert main([*args, "--corrupt", rate]) == 0
        assert capsys.readouterr().out == plain

    def refuse(*_):  # a rate outside [0, 1] is refused before sampling
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr("nnsft.harness.sample_admissible", refuse)
    for rate in ("-0.5", "1.5"):
        assert main([*args, "--corrupt", rate]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: corrupt rate must be in [0, 1]\n"


def test_bad_sampling_arguments_refused_before_sampling(monkeypatch, capsys):
    # with both samplers stubbed to raise, each command still exits 2
    # with its refusal: nothing is sampled before the arguments are checked
    def refuse(*_):
        raise AssertionError("sampled before refusing")

    monkeypatch.setattr("nnsft.harness.sample_admissible_stack", refuse)
    monkeypatch.setattr("nnsft.harness.sample_admissible", refuse)
    verify = ["verify", "--spec", "hardsquare", "--size", "1000", "--trials", "1"]
    for args, message in (
        ([*verify, "--support", "2097153"], "support_size 2097153 exceeds the 512 distinct patterns"),
        ([*verify, "--support", "-1"], "perturbation support size must be >= 0"),
        ([*verify, "--cap", "-1"], "cap must be positive and finite"),
        (["sample", "--spec", "hardsquare", "--size", "1000", "--corrupt", "-0.5"],
         "corrupt rate must be in [0, 1]"),
    ):
        assert main(args) == 2, args
        assert capsys.readouterr() == ("", f"error: {message}\n"), args


def test_checkerboard_too_large_for_every_command_refused_before_building(capsys):
    # k**2 over entropy's state guard: refused in well under a second,
    # before the 2k forbidden pairs are built; entropy below it still runs
    for k in (100_000_000, 1415):
        start = time.perf_counter()
        assert main(["check", "--spec", f"checkerboard:{k}"]) == 2
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr() == (
            "", f"error: checkerboard:{k} is too large: no command runs for k**2 > 2000000\n"
        )
    assert main(["entropy", "--spec", "checkerboard:100", "--strip-width", "2"]) == 0
    assert capsys.readouterr().out.startswith("entropy_per_site ")


def test_check_runs_the_ssf_check_once(monkeypatch, capsys):
    real, calls = sft_module.check_ssf, []

    def counting(sft):
        calls.append(sft.q)
        return real(sft)

    monkeypatch.setattr(sft_module, "check_ssf", counting)
    monkeypatch.setattr("nnsft.cli.check_ssf", counting, raising=False)
    assert main(["check", "--spec", "checkerboard:5"]) == 0
    assert calls == [5]
    assert capsys.readouterr().out == "ssf: true\nsafe_symbols: []\nlocal_implies_global: true\n"


def test_repair_out_file_summary(tmp_path):
    raw = tmp_path / "w.txt"
    run_cli("sample", "--spec", "hardsquare", "--size", "7", "--seed", "3",
            "--corrupt", "0.5", "--out", str(raw))
    out = tmp_path / "fixed.txt"
    res = run_cli(
        "repair", "--spec", "hardsquare", "--window", str(raw),
        "--size", "5", "--out", str(out),
    )
    assert res.returncode == 0
    assert res.stdout.startswith("repaired N=5 bad_total=")
    parse_window(out.read_text())


def test_verify_csv_shape(tmp_path):
    csv_path = tmp_path / "t.csv"
    res = run_cli(
        "verify", "--spec", "hardsquare", "--size", "10", "--trials", "4",
        "--seed", "7", "--csv", str(csv_path),
    )
    assert res.returncode == 0
    lines = res.stdout.splitlines()
    assert lines[0] == (
        "trial,seed,N,q,bad_total,bad_fraction,certified_gap,"
        "min_shell_margin,total_gap,total_bound,case1_status,all_pass"
    )
    rows = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(rows) == 5  # header + 4 trials
    assert lines[-1].startswith("# summary:")
    assert csv_path.read_bytes() == res.stdout.encode()


def test_verify_refusal_writes_nothing(tmp_path):
    # refused before the first trial: nothing on stdout and no CSV file,
    # an unwritable --csv path included
    csv_path = tmp_path / "f.csv"
    guard = "a window of radius 1024 has 4198401 sites, over the sampling guard (4194304)"
    for spec, size, path, message in (
        ("checkerboard:4", "3", csv_path, "sampling requires a single-site fillable SFT"),
        ("full:65", "3", csv_path, "alphabet too large for exhaustive SSF check (q > 64)"),
        ("hardsquare", "1022", csv_path, guard),
        ("checkerboard:4", "1022", csv_path, guard),
        ("hardsquare", "3", tmp_path / "missing" / "x.csv", "[Errno 2] No such file or directory"),
    ):
        res = run_cli("verify", "--spec", spec, "--size", size, "--trials", "2", "--csv", str(path))
        assert res.returncode == 2, spec
        assert res.stdout == "", spec
        assert res.stderr.startswith(f"error: {message}") and len(res.stderr.splitlines()) == 1, spec
        assert not path.exists(), spec


# sha256 of the stdout of verify; the CSV bytes are the output contract
GOLDEN_VERIFY = {
    ("--spec", "checkerboard:5", "--size", "24", "--trials", "4", "--seed", "3"):
        "067a81e7af5e5b71c8f24718c1013447c00f0d8f5c0c9b624f95a61a6d6b65cc",
    ("--spec", "hardsquare", "--size", "16", "--trials", "6", "--seed", "2", "--support", "40"):
        "5b91089a32cace6d0dcb26f61844099c69aa0fa0bd4a1d3d4dbbe17d0a065050",
    # the largest support certified exactly, and the smallest on the 5*cap bound
    ("--spec", "checkerboard:5", "--size", "4", "--trials", "1", "--support", "10000"):
        "82a8bfc277c26babd5e56f07e4401f7baead9151ce805f16b65b2df118c08319",
    ("--spec", "checkerboard:5", "--size", "4", "--trials", "1", "--support", "10001"):
        "f69adf2e8738d9ab0af28a10ba004bebb0f05993887d12ce8e991198bbe942a8",
    # the random fill rule, whose draws follow the sweep order
    ("--spec", "hardsquare", "--size", "16", "--trials", "4", "--seed", "1", "--rule", "random"):
        "b4621f7a74326ccbd122556ac9aa48ea3351af7c4825dd60696b77640ba0bc43",
    ("--spec", "checkerboard:5", "--size", "12", "--trials", "4", "--seed", "2", "--rule", "random"):
        "73b6af88cac30100b642db5bab119b6f661075fdb7f508c76d19793ffcb37a70",
}


def test_verify_csv_golden(capsys):
    for args, digest in GOLDEN_VERIFY.items():
        assert main(["verify", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


# sha256 of the stdout of `repair --rule random --seed 5` on the window
# that `sample --spec checkerboard:5 --size 10 --seed 4 --corrupt 0.5` writes
GOLDEN_REPAIR_RANDOM = "7f95bf210f69039debe95a3e4041a9f27825077e6122363df0ab298995885be0"


def test_repair_random_rule_golden(tmp_path, capsys):
    raw = tmp_path / "w.txt"
    spec = ["--spec", "checkerboard:5"]
    assert main(["sample", *spec, "--size", "10", "--seed", "4", "--corrupt", "0.5", "--out", str(raw)]) == 0
    capsys.readouterr()
    assert main(["repair", *spec, "--window", str(raw), "--rule", "random", "--seed", "5"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == GOLDEN_REPAIR_RANDOM


# sha256 of the stdout of entropy; the printed repr pins every bit of the value
GOLDEN_ENTROPY = {
    ("--spec", "hardsquare", "--strip-width", "20"):
        "ad86c1f51d9fe82124a286aafbfa066bd070e20f09bf20621fc8bd5c57a66816",
    ("--spec", "checkerboard:5", "--strip-width", "8"):
        "efa0241a89bc44134eda84b348032529a2416931db0a86404aad1b80d26b358e",
}


def test_entropy_golden(capsys):
    for args, digest in GOLDEN_ENTROPY.items():
        assert main(["entropy", *args]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc/self/task to count threads")
def test_blas_runs_one_thread_whatever_the_environment():
    # importing nnsft before numpy pins BLAS to one thread over the
    # caller's setting, and the dense golden strip value holds under it
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2")
    count = "import os, nnsft, numpy; print(len(os.listdir('/proc/self/task')))"
    res = subprocess.run([sys.executable, "-c", count], env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0 and res.stdout == "1\n", res.stderr
    args = ("--spec", "checkerboard:5", "--strip-width", "8")
    res = run_cli("entropy", *args, env=env)
    assert res.returncode == 0
    assert hashlib.sha256(res.stdout.encode()).hexdigest() == GOLDEN_ENTROPY[args]


def test_each_module_imports_as_itself_and_the_package_loads_no_numpy():
    # the package re-exports nothing, so no attribute of it shadows one of
    # its modules, and importing it alone starts no BLAS
    check = (
        "import sys, types, nnsft\n"
        "assert 'numpy' not in sys.modules\n"
        "for name in ('cli', 'entropy', 'harness', 'lattice', 'potentials', 'repair', 'sft'):\n"
        "    exec(f'import nnsft.{name} as mod')\n"
        "    assert isinstance(mod, types.ModuleType) and mod.__name__ == f'nnsft.{name}', name\n"
    )
    res = subprocess.run([sys.executable, "-c", check], capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr


def test_each_command_loads_only_what_it_runs(tmp_path):
    # each command imports its modules when it runs: check loads only sft
    # of the package and no numpy, repair and entropy no harness; nothing
    # is timed. No command loads dataclasses, as every value class derives
    # from sft._Frozen. Only check goes without inspect, which numpy imports
    window = tmp_path / "w.txt"
    window.write_text("window -2 -2 5 5\n" + "0 0 0 0 0\n" * 5)
    probe = "import sys\nfrom nnsft.cli import main\nmain(sys.argv[1:])\nprint(*sorted(sys.modules))\n"
    trial_layers = {"nnsft.harness", "nnsft.potentials", "nnsft.repair", "nnsft.lattice", "nnsft.sft"}
    for args, absent, present in (
        (("check", "--spec", "hardsquare"),
         {"nnsft.harness", "nnsft.potentials", "nnsft.repair", "nnsft.entropy", "nnsft.lattice", "fractions",
          "numpy", "inspect"},
         {"nnsft.sft"}),
        (("sample", "--spec", "hardsquare", "--size", "3", "--corrupt", "0.5"),
         {"nnsft.entropy"}, {"nnsft.harness", "nnsft.lattice"}),
        (("entropy", "--spec", "hardsquare", "--strip-width", "4"),
         {"nnsft.harness", "nnsft.potentials"}, {"nnsft.entropy"}),
        (("repair", "--spec", "hardsquare", "--window", str(window)),
         {"nnsft.harness", "nnsft.potentials"}, {"nnsft.repair"}),
        (("verify", "--spec", "hardsquare", "--size", "3", "--trials", "1"), set(), trial_layers),
    ):
        res = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, (args, res.stderr)
        loaded = set(res.stdout.splitlines()[-1].split())
        absent = absent | {"dataclasses"}
        assert not absent & loaded and present <= loaded, (args, absent & loaded, present - loaded)


def test_cli_process_freezes_its_objects_only_at_exit():
    # main has gc.freeze run at exit, registered once however often it
    # runs; this hook, registered first, runs after it. gc.freeze is
    # wrapped to count its calls
    probe = (
        "import atexit, gc, sys\n"
        "calls = []\n"
        "freeze = gc.freeze\n"
        "gc.freeze = lambda: (calls.append(1), freeze())\n"
        "atexit.register(lambda: print('at exit', len(calls), gc.get_freeze_count() > 0))\n"
        "from nnsft.cli import main\n"
        "for _ in range(2):\n"
        "    assert main(sys.argv[1:]) == 0\n"
        "    print('after main', len(calls), gc.get_freeze_count())\n"
    )
    for args in (("check", "--spec", "hardsquare"), ("entropy", "--spec", "hardsquare", "--strip-width", "4")):
        res = subprocess.run([sys.executable, "-c", probe, *args], capture_output=True, text=True, timeout=60)
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert [ln for ln in lines if ln.startswith(("after", "at exit"))] == [
            "after main 0 0", "after main 0 0", "at exit 1 True"], res.stdout


def test_verify_rational_epsilon_and_hypothesis_guard():
    res = run_cli(
        "verify", "--spec", "hardsquare", "--size", "8", "--trials", "1",
        "--epsilon", "1/64", "--cap", "1/384",
    )
    assert res.returncode == 0
    res = run_cli(
        "verify", "--spec", "hardsquare", "--size", "8", "--trials", "1",
        "--cap", "1/64",
    )
    assert res.returncode == 2
    assert "hypothesis" in res.stderr


def test_entropy_convergence_failure_exits_2(monkeypatch, capsys):
    def stall(*_, **__):
        raise ConvergenceError("power iteration did not certify convergence in 3 steps")

    # the command looks strip_entropy up on its module when it runs
    monkeypatch.setattr("nnsft.entropy.strip_entropy", stall)
    assert main(["entropy", "--spec", "hardsquare"]) == 2
    assert capsys.readouterr() == ("", "error: power iteration did not certify convergence in 3 steps\n")


def test_entropy_output():
    res = run_cli("entropy", "--spec", "full:2", "--strip-width", "4")
    assert res.returncode == 0
    line = res.stdout.splitlines()[0]
    parts = line.split()
    assert parts[0] == "entropy_per_site"
    assert float(parts[1]) == pytest.approx(np.log(2), abs=1e-9)
    assert parts[2:] == ["strip_width", "4", "states", "16"]
    assert res.stdout.splitlines()[1] == "logarithm natural"


def test_entropy_of_a_lambda_one_strip_is_zero(tmp_path):
    # a width-1 column alternates 0/1 and only 0 0 sits side by side:
    # T = [[1, 0], [0, 0]], lambda_max = 1; the estimate lands a rounding
    # below 1, and the entropy printed must still be 0.0, not negative
    spec = tmp_path / "one.sft"
    spec.write_text(
        "alphabet 2\nhforbid 0 1\nhforbid 1 0\nhforbid 1 1\nvforbid 0 0\nvforbid 1 1\n"
    )
    res = run_cli("entropy", "--spec", str(spec), "--strip-width", "1")
    assert res.returncode == 0
    assert res.stdout == "entropy_per_site 0.0 strip_width 1 states 2\nlogarithm natural\n"


def test_cli_determinism():
    invocations = [
        ("check", "--spec", "checkerboard:5"),
        ("sample", "--spec", "hardsquare", "--size", "8", "--seed", "11", "--corrupt", "0.2"),
        ("entropy", "--spec", "hardsquare", "--strip-width", "8"),
        ("verify", "--spec", "hardsquare", "--size", "10", "--trials", "3", "--seed", "2"),
    ]
    for args in invocations:
        a, b = run_cli(*args), run_cli(*args)
        assert a.stdout == b.stdout and a.returncode == b.returncode


def test_verify_jobs_output_identical():
    base = ("verify", "--spec", "checkerboard:5", "--size", "10", "--trials", "4", "--seed", "3")
    serial = run_cli(*base, "--jobs", "1")
    par_a = run_cli(*base, "--jobs", "3")
    par_b = run_cli(*base, "--jobs", "3")
    assert serial.stdout == par_a.stdout == par_b.stdout
    assert serial.returncode == par_a.returncode == 0


def test_main_in_process_exit_codes(capsys):
    assert main(["check", "--spec", "hardsquare"]) == 0
    assert main(["check", "--spec", "checkerboard:2"]) == 1
    assert main(["check", "--spec", "bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize(
    "args",
    [("entropy", "--spec", "hardsquare", "--strip-width", "4"),
     ("verify", "--spec", "hardsquare", "--size", "8", "--trials", "2"),
     ("--help",)],
    ids=["entropy", "verify", "help"],
)
def test_closed_stdout_pipe_exits_141_silently(args, unbuffered):
    # the reader is gone before the first line; a print fails unbuffered,
    # the flush before main returns fails buffered (argparse prints the
    # help inside parse_args, and its own writer would swallow the error)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read, write = os.pipe()
    os.close(read)
    try:
        res = subprocess.run([sys.executable, "-m", "nnsft.cli", *args], stdout=write,
                             stderr=subprocess.PIPE, env=env, timeout=300)
    finally:
        os.close(write)
    assert (res.returncode, res.stderr) == (141, b"")


def test_spec_render_parse_round_trip_random():
    rng = np.random.default_rng(23)
    for _ in range(100):
        q = int(rng.integers(1, 6))
        hf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q + 1)))
        )
        vf = frozenset(
            (int(rng.integers(q)), int(rng.integers(q)))
            for _ in range(int(rng.integers(0, q * q + 1)))
        )
        sft = NnSft(q, hf, vf)
        assert parse_sft(spec_text(sft, rng)) == sft
