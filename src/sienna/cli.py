"""Command-line experiment runner.

Subcommands: ``run <scenario>`` executes one bench scenario and writes its
CSV plus summary JSON, ``selftest`` runs the exhaustive small-field codec
and commitment suites and exits 1 if any fails, ``dump-config`` prints
every field of the default configuration, counts included, in the flat
key=value format ``--config`` reads, so ``--config`` of its output is the
default run. ``--check`` makes the exit status reflect the scenario's
gates. The command line's scenario, ``--seed`` (else ``SIENNA_SEED``),
``--out``, ``--trials`` and ``--samples`` win over the file's lines. A file that cannot be read, a bad
or repeated line, a bad flag or seed, and an ``--out`` that cannot be made
a directory exit 2.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .bench import SCENARIO_TABLE, SCENARIOS, ExperimentConfig, run_experiment
from .gf import FieldSpec
from .rs import RsCodeSpec

__all__ = ["main", "cli_entry", "parse_config_text", "default_config_text"]


def default_config_text(config: ExperimentConfig | None = None) -> str:
    config = config or ExperimentConfig()
    lines = [
        f"scenario={config.scenario}",
        "seeds=" + ",".join(str(s) for s in config.seeds),
        f"output_path={config.output_path}",
        f"trials={config.trials}",
        f"samples={config.samples}",
    ]
    return "\n".join(lines) + "\n"


def parse_config_text(text: str) -> ExperimentConfig:
    """Apply every key=value line to the default at once, so lines may come in
    any order; a key may appear on one line only."""
    changes = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in {f.name for f in fields(ExperimentConfig)}:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        if key in changes:
            raise ValueError(f"config line {lineno}: repeated key {key!r}")
        try:
            if key in ("scenario", "output_path"):
                changes[key] = value
            elif key in ("trials", "samples"):
                changes[key] = int(value)
            else:
                changes[key] = tuple(int(v) for v in value.split(","))
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: bad {key}={value}: {exc}") from None
    return ExperimentConfig(**changes)


def _selftest() -> int:
    """Exhaustive small-field suites; prints PASS or FAIL per block and
    returns 1 if any block fails. The checks are plain comparisons, not
    ``assert`` statements, so ``python -O`` runs them too."""
    from .bits import random_bits
    from .commitment import commit, new_salt, open_commitment
    from .gf import gf_mul

    verdicts = []

    def report(block: str, ok: bool) -> None:
        verdicts.append(ok)
        print(f"selftest: {block} ... {'PASS' if ok else 'FAIL'}")

    field = FieldSpec(3)
    gf = field.tables()
    axioms = all(
        gf.mul(a, b) == gf.mul(b, a)
        and gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
        and gf_mul(a, b ^ c, field) == gf_mul(a, b, field) ^ gf_mul(a, c, field)
        for a, b, c in product(range(8), repeat=3)
    )
    report("GF(2^3) field axioms (exhaustive)", axioms)

    spec = RsCodeSpec(field, 7, 3)
    codec = spec.codec()

    def decodes_to_zero(positions, values) -> bool:
        """The zero codeword with ``values`` added at ``positions`` decodes to zero."""
        word = np.zeros(7, dtype=np.int64)
        for pos, val in zip(positions, values):
            word[pos] ^= val
        out = codec.decode(word)
        return out is not None and not out.any()

    corrected = all(
        decodes_to_zero(positions, values)
        for n_err in (1, 2)
        for positions in combinations(range(7), n_err)
        for values in product(range(1, 8), repeat=n_err)
    )
    report("RS(2^3,7,3) corrects every <=2-symbol pattern", corrected)
    miscorrected = any(
        decodes_to_zero(positions, values)
        for positions in combinations(range(7), 3)
        for values in product((1, 3, 7), repeat=3)
    )
    report("RS(2^3,7,3) never silently accepts 3 errors", not miscorrected)

    rng = np.random.default_rng(0)
    salt = new_salt(spec, 1)
    fp = random_bits(spec.codeword_bits, rng)
    commitment = commit(salt, fp, spec)
    k = field.k_bits

    def opens_under(pos: int, val: int) -> bool:
        """The commitment opens to its salt with symbol ``pos`` of fp XORed by ``val``."""
        noisy = fp.copy()
        for b in range(k):
            noisy[pos * k + b] ^= (val >> (k - 1 - b)) & 1
        outcome = open_commitment(commitment, noisy, spec)
        return outcome.recovered and np.array_equal(outcome.salt, salt)

    opened = all(opens_under(pos, val) for pos in range(7) for val in range(1, 8))
    report("fuzzy commitment opens under 1-symbol corruption", opened)
    rejected = sum(
        not open_commitment(commitment, random_bits(spec.codeword_bits, rng), spec).recovered
        for _ in range(500)
    )
    report("random wrong fingerprints rejected", rejected >= 499)
    return 0 if all(verdicts) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sienna",
        description="Experiment bench for the breathing-based pairing stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    schemas = "; ".join(
        f"{name}.csv({','.join(header)})" for name, (_, header) in SCENARIO_TABLE.items()
    )
    run_p = sub.add_parser(
        "run",
        help="run one scenario and write CSV + summary JSON",
        description=f"Scenario CSV schemas: {schemas}.",
    )
    run_p.add_argument("scenario", choices=SCENARIOS)
    run_p.add_argument("--config", type=str, help="flat key=value config file")
    run_p.add_argument("--seed", type=int, help="seed override (also env SIENNA_SEED)")
    run_p.add_argument("--out", type=str, help="output directory")
    run_p.add_argument("--trials", type=int, help="trial count override")
    run_p.add_argument("--samples", type=int, help="sample count override")
    run_p.add_argument(
        "--check", action="store_true", help="exit 1 unless the scenario's gates pass"
    )

    sub.add_parser("selftest", help="exhaustive small-field codec and commitment suites")
    sub.add_parser("dump-config", help="print the default config in key=value form")
    return parser


def cli_entry(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return _selftest()
    if args.command == "dump-config":
        sys.stdout.write(default_config_text())
        return 0

    # SIENNA_SEED stands in for --seed. It is read first, so when the run
    # stops with no seed while it is set, it is what could not be read.
    seed, env_seed = args.seed, os.environ.get("SIENNA_SEED")
    try:
        if seed is None and env_seed:
            seed = int(env_seed)
        text = "" if args.config is None else Path(args.config).read_text()
        config = parse_config_text(text)
        # The command line's scenario and flags win over the file's lines.
        seeds = None if seed is None else (seed,)
        flags = dict(seeds=seeds, output_path=args.out, trials=args.trials, samples=args.samples)
        flags = {k: v for k, v in flags.items() if v is not None}
        config = replace(config, scenario=args.scenario, **flags)
    except (OSError, ValueError) as exc:
        if seed is None and env_seed:
            print(f"bad override: SIENNA_SEED={env_seed}", file=sys.stderr)
        else:
            source = "override" if args.config is None else f"config {args.config}"
            print(f"bad {source}: {exc}", file=sys.stderr)
        return 2
    try:
        Path(config.output_path).mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"bad output path: {exc}", file=sys.stderr)
        return 2
    summary = run_experiment(config)
    checks = summary.get("checks", {})
    for name, passed in checks.items():
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    print(f"artifacts: {Path(config.output_path) / (config.scenario + '.csv')}")
    if args.check and not all(checks.values()):
        return 1
    return 0


def main() -> None:
    sys.exit(cli_entry())
