"""Bench scenarios and the CLI surface."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sienna import bench, protocol
from sienna.bench import ExperimentConfig, SCENARIOS, run_experiment
from sienna.cli import cli_entry, default_config_text, parse_config_text
from sienna.commitment import OpenOutcome

SRC = Path(__file__).resolve().parent.parent / "src"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    for name in ("trials", "samples"):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: 0})
        assert getattr(ExperimentConfig(**{name: 1}), name) == 1


def test_config_holds_only_what_a_run_varies():
    assert [f.name for f in fields(ExperimentConfig)] == [
        "scenario", "seeds", "trials", "samples", "output_path"
    ]


def test_config_round_trip_through_text():
    config = ExperimentConfig(
        scenario="separation",
        seeds=(3, 4),
        trials=7,
        samples=11,
        output_path="artifacts",
    )
    back = parse_config_text(default_config_text(config))
    assert back.scenario == "separation"
    assert back.seeds == (3, 4)
    assert back.trials == 7
    assert back.samples == 11
    assert back.output_path == "artifacts"


def test_config_text_errors():
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("justnonsense")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("wat=1")
    for key in ("population=20", "durations=6.0", "rs=8,255,201", "channel=1.0,31.6", "p_max=1e3"):
        with pytest.raises(ValueError, match="config line 1: unknown key"):
            parse_config_text(key)  # the paper's setting is not a config value


def test_config_value_errors_name_their_line_and_key():
    with pytest.raises(ValueError, match="config line 2: bad trials=abc: invalid literal"):
        parse_config_text("seeds=0\ntrials=abc\n")
    with pytest.raises(ValueError, match="config line 1: bad seeds=3,x: invalid literal"):
        parse_config_text("seeds=3,x\n")


def test_separation_scenario(tmp_path):
    config = ExperimentConfig(scenario="separation", trials=20, output_path=str(tmp_path))
    summary = run_experiment(config)
    assert summary["fraction_target_corr_ge_090"] >= 0.9
    rows = (tmp_path / "separation.csv").read_text().strip().splitlines()
    assert rows[0] == "trial,seed,n_sources,target_corr,other_corr,target_ok"
    assert len(rows) == 21
    assert [row.split(",")[2] for row in rows[1:]] == ["2"] * 20


def test_separation_prepares_the_radar_once_per_trial(tmp_path, monkeypatch):
    """Each trial separates what the round separates: the scenario's one
    source separation is ``PrmsDevice.prepare`` on the radar's I/Q."""
    prepare = protocol.PrmsDevice.prepare
    calls = []

    def counting_prepare(iq_channels):
        calls.append(len(iq_channels))
        return prepare(iq_channels)

    monkeypatch.setattr(protocol.PrmsDevice, "prepare", staticmethod(counting_prepare))
    run_experiment(ExperimentConfig(scenario="separation", trials=5, output_path=str(tmp_path)))
    assert calls == [2] * 5


def test_pairing_scenario_small(tmp_path):
    config = ExperimentConfig(scenario="pairing-success", trials=8, output_path=str(tmp_path))
    summary = run_experiment(config)
    assert summary["keys_identical_in_every_completed_round"]
    assert summary["success_rate"] >= 0.75
    blob = json.loads((tmp_path / "pairing-success-summary.json").read_text())
    assert blob["scenario"] == "pairing-success"


def test_keys_identical_gate_fails_when_a_completed_round_disagrees(tmp_path, monkeypatch):
    """A ladder that completes on a wrongly recovered salt leaves the devices
    with different keys, and the gate reports it."""
    def open_wrong_salt(commitment, fingerprint_bits, spec):
        return OpenOutcome("recovered", np.zeros(spec.message_bits, dtype=np.uint8))

    monkeypatch.setattr(protocol, "open_commitment", open_wrong_salt)
    config = ExperimentConfig(scenario="pairing-success", trials=1, output_path=str(tmp_path))
    summary = run_experiment(config)
    assert summary["success_rate"] == 0.0
    assert not summary["checks"]["keys_identical"]


def test_adversarial_scenario_small(tmp_path):
    config = ExperimentConfig(scenario="adversarial-ber", output_path=str(tmp_path))
    summary = run_experiment(config)
    assert summary["checks"]["insider_fails_ge_99pct_everywhere"]
    assert summary["checks"]["disabled_jamming_insider_succeeds"]
    assert summary["jamming_disabled_ber"] < 1e-3
    header = (tmp_path / "adversarial-ber.csv").read_text().splitlines()[0]
    assert header == "p2,level,jam_to_signal,mean_ber,level_success_rate,insider_failure_rate"


def test_commitment_entropy_scenario_small(tmp_path):
    config = ExperimentConfig(
        scenario="commitment-entropy", samples=300, output_path=str(tmp_path)
    )
    summary = run_experiment(config)
    assert summary["checks"]["salts_pass_monobit_runs"]
    # concealment makes commitments statistically uniform, so their local
    # entropy estimate sits at the uniform level of their length
    assert summary["commitment"]["mean_apen_per_bit"] > 0.99
    assert summary["structural_entropy_per_bit"] == pytest.approx(1608 / 2040)
    # 300 samples are fewer than the R + 1 = 2040 + 65 the rank rate needs,
    # so no rate is reported and the rank gate cannot pass
    assert summary["rank_samples"] == 2040 + 65
    for kind in ("salt", "opening", "commitment"):
        assert summary[kind]["rank_rate"] is None
    assert summary["checks"]["commitment_rank_rate_below_salt"] is False


def test_rs_timing_scenario(tmp_path):
    config = ExperimentConfig(scenario="rs-timing", output_path=str(tmp_path))
    summary = run_experiment(config)
    assert set(summary["variation_by_parity"]) == {"16", "32", "54"}
    for key in ("zero_to_t_time_ratio_by_parity", "error_count_rank_correlation_by_parity"):
        assert set(summary[key]) == {"16", "32", "54"}
        assert all(math.isfinite(v) for v in summary[key].values())
    rows = (tmp_path / "rs-timing.csv").read_text().strip().splitlines()
    assert rows[0] == "parity_symbols,n_errors,q25_s,median_s"
    assert len(rows) == 1 + (8 + 1) + (16 + 1) + (27 + 1)


def test_cli_selftest():
    assert cli_entry(["selftest"]) == 0


def test_cli_selftest_fails_under_python_O_when_a_check_fails():
    """``python -O`` strips ``assert`` statements; the selftest's checks are
    comparisons, so with every open failing it still prints FAIL and exits 1."""
    code = (
        "import sys; from sienna import commitment; "
        "fail = commitment.OpenOutcome('decode-failure'); "
        "commitment.open_commitment = lambda c, fp, spec: fail; "
        "from sienna.cli import cli_entry; sys.exit(cli_entry(['selftest']))"
    )
    done = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 1
    lines = done.stdout.splitlines()
    assert lines[3] == "selftest: fuzzy commitment opens under 1-symbol corruption ... FAIL"
    assert [line.rsplit(" ", 1)[1] for line in lines] == ["PASS"] * 3 + ["FAIL", "PASS"]


def test_cli_dump_config(capsys):
    assert cli_entry(["dump-config"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "scenario=pairing-success", "seeds=0", "output_path=out", "trials=100", "samples=10000"
    ]
    assert parse_config_text(out) == ExperimentConfig()


def test_cli_dump_config_prints_every_count(capsys):
    assert cli_entry(["dump-config"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "trials=100" in lines
    assert "samples=10000" in lines


def test_cli_flags_win_over_the_config_file(tmp_path):
    """The dumped default says trials=100 and seeds=0; --trials and --seed win."""
    cfg = tmp_path / "dumped.cfg"
    cfg.write_text(default_config_text())
    out = tmp_path / "out"
    argv = ["run", "separation", "--config", str(cfg), "--trials", "2", "--seed", "9"]
    assert cli_entry(argv + ["--out", str(out)]) == 0
    blob = json.loads((out / "separation-summary.json").read_text())
    assert (blob["trials"], blob["seeds"]) == (2, [9])


def test_cli_config_that_is_a_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli_entry(["run", "separation", "--config", str(tmp_path), "--out", str(out)]) == 2
    assert f"bad config {tmp_path}" in capsys.readouterr().err
    assert not out.exists()


def test_default_config_text_parses_back_to_the_default():
    assert parse_config_text(default_config_text()) == ExperimentConfig()


def test_cli_run_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        code = cli_entry(
            ["run", "pairing-success", "--seed", "7", "--trials", "6", "--out", str(out), "--check"]
        )
        assert code == 0
    assert (out1 / "pairing-success.csv").read_bytes() == (out2 / "pairing-success.csv").read_bytes()
    assert (out1 / "pairing-success-summary.json").read_bytes() == (
        out2 / "pairing-success-summary.json"
    ).read_bytes()


def test_cli_missing_config_exits_2(tmp_path, capsys):
    missing = tmp_path / "nope.cfg"
    assert cli_entry(["run", "separation", "--config", str(missing)]) == 2
    assert str(missing) in capsys.readouterr().err


def test_cli_bad_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("mystery=1\n")
    assert cli_entry(["run", "separation", "--config", str(bad)]) == 2


def test_cli_scenario_applies_together_with_the_config_lines(tmp_path):
    """The command line's scenario wins over the file's ``scenario=`` line."""
    cfg = tmp_path / "other.cfg"
    cfg.write_text("scenario=rs-timing\nsamples=5\n")
    out = tmp_path / "out"
    argv = ["run", "separation", "--config", str(cfg), "--trials", "3", "--check"]
    assert cli_entry(argv + ["--out", str(out)]) == 0
    assert json.loads((out / "separation-summary.json").read_text())["scenario"] == "separation"


def test_cli_config_naming_no_scenario_exits_2_whatever_the_command_line(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("scenario=separatoin\n")
    out = tmp_path / "out"
    assert cli_entry(["run", "separation", "--config", str(cfg), "--out", str(out)]) == 2
    assert "unknown scenario 'separatoin'" in capsys.readouterr().err
    assert not out.exists()


def test_config_lines_apply_in_any_order():
    lines = ["scenario=separation", "seeds=4,5", "trials=3", "samples=7", "output_path=x"]
    expected = ExperimentConfig("separation", (4, 5), trials=3, samples=7, output_path="x")
    for order in (lines, lines[::-1], lines[2:] + lines[:2]):
        assert parse_config_text("\n".join(order)) == expected


@pytest.mark.parametrize(
    "text", ["trials=3\ntrials=5", "trials=5\n# note\n\ntrials=3"], ids=["next", "apart"]
)
def test_a_repeated_key_is_a_bad_config_naming_its_second_line(text):
    """Taking either value would make the lines' order matter."""
    second = len(text.splitlines())
    with pytest.raises(ValueError, match=f"config line {second}: repeated key 'trials'"):
        parse_config_text(text)


def test_cli_config_with_a_repeated_key_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("scenario=separation\nseeds=1\nseeds=2\n")
    out = tmp_path / "out"
    assert cli_entry(["run", "separation", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config line 3: repeated key 'seeds'" in capsys.readouterr().err
    assert not out.exists()


# ``sienna dump-config`` output from when the config also held the code, powers and windows.
OLD_DUMP = """scenario=pairing-success
seeds=0
population=20
durations=6.0,12.0,24.0,48.0,60.0
rs=8,255,201
channel=1.0,31.622776601683793
p_max=1000.0
output_path=out
trials=100
samples=10000
"""


def test_cli_old_dump_config_output_exits_2_and_writes_nothing(tmp_path, capsys):
    cfg = tmp_path / "old.cfg"
    cfg.write_text(OLD_DUMP)
    out = tmp_path / "out"
    assert cli_entry(["run", "separation", "--config", str(cfg), "--out", str(out)]) == 2
    assert "config line 3: unknown key 'population'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--trials", "--samples"])
def test_cli_override_below_one_exits_2(tmp_path, capsys, flag):
    out = tmp_path / "out"
    assert cli_entry(["run", "separation", flag, "0", "--out", str(out)]) == 2
    assert flag.lstrip("-") in capsys.readouterr().err
    assert not out.exists()


def test_cli_config_file_applies(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("seeds=5\ntrials=4\noutput_path=%s\n" % (tmp_path / "out"))
    assert cli_entry(["run", "separation", "--config", str(cfg)]) == 0
    blob = json.loads((tmp_path / "out" / "separation-summary.json").read_text())
    assert blob["seeds"] == [5]
    assert blob["trials"] == 4


def test_cli_unknown_args_exit_2():
    with pytest.raises(SystemExit) as exc:
        cli_entry(["run", "separation", "--frobnicate"])
    assert exc.value.code == 2


def test_cli_env_seed(tmp_path, monkeypatch):
    monkeypatch.setenv("SIENNA_SEED", "123")
    out = tmp_path / "env"
    assert cli_entry(["run", "separation", "--trials", "3", "--out", str(out)]) == 0
    blob = json.loads((out / "separation-summary.json").read_text())
    assert blob["seeds"] == [123]


def test_cli_bad_env_seed_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SIENNA_SEED", "abc")
    out = tmp_path / "out"
    assert cli_entry(["run", "separation", "--trials", "3", "--out", str(out)]) == 2
    assert "bad override: SIENNA_SEED=abc" in capsys.readouterr().err
    assert not out.exists()


def test_cli_bad_output_path_exits_2_before_the_scenario_runs(tmp_path, monkeypatch, capsys):
    """An output directory under a regular file cannot be made; the run
    stops there, before the scenario's runner is called."""
    calls = []
    header = bench.SCENARIO_TABLE["separation"][1]
    monkeypatch.setitem(
        bench.SCENARIO_TABLE, "separation", (lambda config: calls.append(config), header)
    )
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert cli_entry(["run", "separation", "--out", str(blocker / "out")]) == 2
    assert "bad output path" in capsys.readouterr().err
    assert calls == []


def test_all_scenarios_registered():
    assert set(SCENARIOS) == {
        "separation",
        "fingerprint-similarity",
        "commitment-entropy",
        "rs-timing",
        "adversarial-ber",
        "pairing-success",
    }
