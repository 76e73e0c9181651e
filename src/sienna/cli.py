"""Command-line experiment runner.

Subcommands: ``run <scenario>`` executes one bench scenario and writes its
CSV plus summary JSON, ``selftest`` runs the exhaustive small-field codec
and commitment suites, ``dump-config`` prints the default configuration in
the flat key=value format the ``--config`` flag accepts. ``--check`` makes
the exit status reflect the scenario's acceptance gates. The environment
variable ``SIENNA_SEED`` overrides the default seed when ``--seed`` is not
given.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from itertools import combinations, product
from pathlib import Path

import numpy as np

from .bench import SCENARIO_TABLE, SCENARIOS, ExperimentConfig, run_experiment
from .channel import ChannelParams
from .gf import default_field
from .rs import RsCodeSpec

__all__ = ["main", "cli_entry", "parse_config_text", "default_config_text"]


def default_config_text(config: ExperimentConfig | None = None) -> str:
    config = config or ExperimentConfig()
    ch = config.channel
    lines = [
        f"scenario={config.scenario}",
        "seeds=" + ",".join(str(s) for s in config.seeds),
        f"population={config.population}",
        "durations=" + ",".join(f"{d:g}" for d in config.durations),
        f"rs={config.rs.field.k_bits},{config.rs.m_symbols},{config.rs.n_symbols}",
        f"channel={ch.p0:g},{ch.p1:g},{ch.p2:g},{ch.p_jam:g}",
        f"p_max={config.p_max:g}",
        f"output_path={config.output_path}",
    ]
    if config.trials is not None:
        lines.append(f"trials={config.trials}")
    if config.samples is not None:
        lines.append(f"samples={config.samples}")
    return "\n".join(lines) + "\n"


def parse_config_text(text: str, base: ExperimentConfig | None = None) -> ExperimentConfig:
    config = base or ExperimentConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key == "scenario":
            config = replace(config, scenario=value)
        elif key == "seeds":
            config = replace(config, seeds=tuple(int(v) for v in value.split(",")))
        elif key == "population":
            config = replace(config, population=int(value))
        elif key == "durations":
            config = replace(config, durations=tuple(float(v) for v in value.split(",")))
        elif key == "rs":
            k, m, n = (int(v) for v in value.split(","))
            config = replace(config, rs=RsCodeSpec(default_field(k), m, n))
        elif key == "channel":
            p0, p1, p2, p_jam = (float(v) for v in value.split(","))
            config = replace(config, channel=ChannelParams(p0=p0, p1=p1, p2=p2, p_jam=p_jam))
        elif key == "p_max":
            config = replace(config, p_max=float(value))
        elif key == "trials":
            config = replace(config, trials=int(value))
        elif key == "samples":
            config = replace(config, samples=int(value))
        elif key == "output_path":
            config = replace(config, output_path=value)
        else:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
    return config


def _selftest() -> int:
    """Exhaustive small-field suites; prints one line per block."""
    from .bits import random_bits
    from .commitment import commit, new_salt, open_commitment
    from .gf import gf_mul
    from .rs import rs_decode

    field = default_field(3)
    gf = field.tables()
    for a in range(8):
        for b in range(8):
            assert gf.mul(a, b) == gf.mul(b, a)
            for c in range(8):
                assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
                assert gf_mul(a, b ^ c, field) == gf_mul(a, b, field) ^ gf_mul(a, c, field)
    print("selftest: GF(2^3) field axioms (exhaustive) ... PASS")

    spec = RsCodeSpec(field, 7, 3)
    zero = np.zeros(7, dtype=np.int64)
    for n_err in (1, 2):
        for positions in combinations(range(7), n_err):
            for values in product(range(1, 8), repeat=n_err):
                word = zero.copy()
                for pos, val in zip(positions, values):
                    word[pos] ^= val
                out = rs_decode(word, spec)
                assert out is not None and not out.any()
    print("selftest: RS(2^3,7,3) corrects every <=2-symbol pattern ... PASS")

    for positions in combinations(range(7), 3):
        for values in product((1, 3, 7), repeat=3):
            word = zero.copy()
            for pos, val in zip(positions, values):
                word[pos] ^= val
            out = rs_decode(word, spec)
            assert out is None or out.any()
    print("selftest: RS(2^3,7,3) never silently accepts 3 errors ... PASS")

    rng = np.random.default_rng(0)
    salt = new_salt(spec, 1)
    fp = random_bits(spec.codeword_bits, rng)
    c = commit(salt, fp, spec)
    k = field.k_bits
    for pos in range(7):
        for val in range(1, 8):
            noisy = fp.copy()
            for b in range(k):
                noisy[pos * k + b] ^= (val >> (k - 1 - b)) & 1
            outcome = open_commitment(c, noisy, spec)
            assert outcome.recovered and np.array_equal(outcome.salt, salt)
    print("selftest: fuzzy commitment opens under 1-symbol corruption ... PASS")

    rejected = sum(
        not open_commitment(c, random_bits(spec.codeword_bits, rng), spec).recovered
        for _ in range(500)
    )
    assert rejected >= 499
    print("selftest: random wrong fingerprints rejected ... PASS")
    return 0


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

    config = ExperimentConfig(scenario=args.scenario)
    if args.config is not None:
        path = Path(args.config)
        if not path.exists():
            print(f"config file not found: {path}", file=sys.stderr)
            return 2
        try:
            config = parse_config_text(path.read_text(), base=config)
        except ValueError as exc:
            print(f"bad config {path}: {exc}", file=sys.stderr)
            return 2
        config = replace(config, scenario=args.scenario)
    seed = args.seed
    if seed is None and os.environ.get("SIENNA_SEED"):
        seed = int(os.environ["SIENNA_SEED"])
    if seed is not None:
        config = replace(config, seeds=(seed,))
    if args.out is not None:
        config = replace(config, output_path=args.out)
    if args.trials is not None:
        config = replace(config, trials=args.trials)
    if args.samples is not None:
        config = replace(config, samples=args.samples)

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


if __name__ == "__main__":
    main()
