"""Command-line driver: check, sample, repair, verify, entropy.

Exit codes: 0 on success / all checks passing, 1 when a check fails or
a violation is found, 2 on input errors (bad flags, unparsable files).
Every command is deterministic given its flags; repeated invocations
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .entropy import ConvergenceError, strip_entropy
from .harness import (
    DEFAULT_CAP,
    DEFAULT_EPSILON,
    TrialConfig,
    _check_corrupt_rate,
    corrupt,
    run_experiment,
    sample_admissible,
)
from .lattice import parse_window, render_window
from .repair import repair
from .sft import find_safe_symbols, load_sft, local_implies_global


def parse_ratio(text: str) -> float:
    """Accept a finite decimal or a p/q rational (so 1/64 is exact).

    Raises ValueError, which argparse reports as a bad flag value.
    """
    if "/" in text:
        p, q = text.split("/", 1)
        try:
            value = int(p) / int(q)
        except (ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"bad ratio {text!r}") from exc
    else:
        value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nnsft",
        description=(
            "Nearest-neighbor Z^2 SFT toolkit: fillability checks, admissible "
            "sampling, shell-by-shell repair, quantitative verification trials, "
            "and strip transfer-matrix entropy."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_spec(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--spec",
            required=True,
            help="SFT spec file, or built-in: hardsquare, checkerboard:<k>, full:<q>",
        )

    def seed(text: str) -> int:
        """The --seed type: a nonnegative integer, as numpy's generators
        need. argparse prints the error after the flag's name."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {value}")
        return value

    p_check = sub.add_parser("check", help="report SSF status and safe symbols")
    add_spec(p_check)

    p_sample = sub.add_parser("sample", help="sample an admissible window, optionally corrupted")
    add_spec(p_sample)
    p_sample.add_argument("--size", type=int, required=True, help="window radius")
    p_sample.add_argument("--seed", type=seed, default=0)
    p_sample.add_argument("--corrupt", type=parse_ratio, default=0.0, metavar="RATE",
                          help="site resampling probability (default 0)")
    p_sample.add_argument("--out", help="write the window here instead of stdout")

    p_repair = sub.add_parser("repair", help="repair a window file shell by shell")
    add_spec(p_repair)
    p_repair.add_argument("--window", required=True, help="window file to repair")
    p_repair.add_argument("--size", type=int, default=None,
                          help="repair radius N (default: largest the window supports)")
    p_repair.add_argument("--rule", choices=("smallest", "random"), default="smallest")
    p_repair.add_argument("--seed", type=seed, default=0, help="seed for --rule random")
    p_repair.add_argument("--out", help="write the repaired window here instead of stdout")

    p_verify = sub.add_parser("verify", help="run verification trials, emit CSV")
    add_spec(p_verify)
    p_verify.add_argument("--size", type=int, default=24, help="box radius N (default 24)")
    p_verify.add_argument("--trials", type=int, default=20)
    p_verify.add_argument("--seed", type=seed, default=0)
    p_verify.add_argument("--epsilon", type=parse_ratio, default=DEFAULT_EPSILON,
                          help="nominal norm-gap hypothesis (default 1/64)")
    p_verify.add_argument("--cap", type=parse_ratio, default=DEFAULT_CAP,
                          help="perturbation coefficient cap (default 1/384)")
    p_verify.add_argument("--corrupt", type=parse_ratio, default=0.15, metavar="RATE")
    p_verify.add_argument("--support", type=int, default=8,
                          help="perturbation support size (default 8)")
    p_verify.add_argument("--rule", choices=("smallest", "random"), default="smallest")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="accepted for compatibility (must be >= 1); "
                               "trials run in order in one thread")
    p_verify.add_argument("--csv", help="also write the CSV table to this file")

    p_entropy = sub.add_parser("entropy", help="strip transfer-matrix entropy per site")
    add_spec(p_entropy)
    p_entropy.add_argument("--strip-width", type=int, default=8, metavar="M")
    p_entropy.add_argument("--tol", type=float, default=1e-10)

    return parser


def _cmd_check(args: argparse.Namespace) -> int:
    sft = load_sft(args.spec)
    res = sft.ssf  # cached: local_implies_global reads it again
    print(f"ssf: {'true' if res.ok else 'false'}")
    if not res.ok:
        n, s, e, w = res.witness
        print(f"witness: north={n} south={s} east={e} west={w}")
    print(f"safe_symbols: {find_safe_symbols(sft)}")
    lig = local_implies_global(sft)
    print(f"local_implies_global: {'true' if lig is True else lig}")
    return 0 if res.ok else 1


def _cmd_sample(args: argparse.Namespace) -> int:
    sft = load_sft(args.spec)
    _check_corrupt_rate(args.corrupt)  # before the window is sampled
    rng = np.random.default_rng(args.seed)
    w = sample_admissible(sft, args.size, rng)
    if args.corrupt:  # rate 0 draws nothing
        w = corrupt(w, sft.q, args.corrupt, rng)
    text = render_window(w)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"wrote window radius={args.size} to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_repair(args: argparse.Namespace) -> int:
    sft = load_sft(args.spec)
    with open(args.window, "r", encoding="utf-8") as f:
        w = parse_window(f.read())
    n = args.size
    if n is None:
        n = w.rect.centered_radius() - 1
    if n < 0:
        raise ValueError("window too small to repair: its domain must contain the box of radius N+1")
    rng = np.random.default_rng(args.seed) if args.rule == "random" else None
    result = repair(w, sft, n, rule=args.rule, rng=rng)
    text = render_window(result.window)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text)
        print(f"repaired N={n} bad_total={result.total_bad} -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise ValueError("jobs must be >= 1")
    sft = load_sft(args.spec)
    cfg = TrialConfig(
        sft=sft,
        n=args.size,
        epsilon=args.epsilon,
        cap=args.cap,
        corrupt_rate=args.corrupt,
        support_size=args.support,
        seed=args.seed,
        trials=args.trials,
        rule=args.rule,
    )
    result = run_experiment(cfg)
    sys.stdout.write(result.csv_text)
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as f:
            f.write(result.csv_text)
    return 0 if result.all_pass else 1


def _cmd_entropy(args: argparse.Namespace) -> int:
    sft = load_sft(args.spec)
    res = strip_entropy(sft, args.strip_width, tol=args.tol)
    print(f"entropy_per_site {res.value!r} strip_width {res.strip_width} states {res.states}")
    print("logarithm natural")
    return 0


_COMMANDS = {
    "check": _cmd_check,
    "sample": _cmd_sample,
    "repair": _cmd_repair,
    "verify": _cmd_verify,
    "entropy": _cmd_entropy,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, ConvergenceError) as exc:  # parse and empty-subshift errors are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
