"""Bench scenarios and the CLI surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sienna import bench, protocol
from sienna.bench import ExperimentConfig, SCENARIOS, run_experiment
from sienna.channel import ChannelParams
from sienna.cli import cli_entry, default_config_text, parse_config_text
from sienna.commitment import OpenOutcome
from sienna.gf import FieldSpec
from sienna.rs import RsCodeSpec

SRC = Path(__file__).resolve().parent.parent / "src"


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(scenario="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(seeds=())
    with pytest.raises(ValueError, match="duration"):
        ExperimentConfig(scenario="fingerprint-similarity", durations=())
    with pytest.raises(ValueError):
        ExperimentConfig(durations=(5.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(durations=(61.0,))
    for name in ("population", "trials", "samples"):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: 0})
    with pytest.raises(ValueError, match="population must be at least 2"):
        ExperimentConfig(population=1)  # fingerprint-similarity needs a pair of subjects
    for p_max in (1.0, 0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="p_max"):
            ExperimentConfig(p_max=p_max)


def test_config_round_trip_through_text():
    config = ExperimentConfig(
        scenario="separation",
        seeds=(3, 4),
        population=5,
        durations=(6.0, 24.0),
        rs=RsCodeSpec(FieldSpec(8), 255, 223),
        channel=ChannelParams(p0=2.0, p1=20.0),
        p_max=500.0,
        trials=7,
        output_path="artifacts",
    )
    back = parse_config_text(default_config_text(config))
    assert back.scenario == "separation"
    assert back.seeds == (3, 4)
    assert back.population == 5
    assert back.durations == (6.0, 24.0)
    assert back.rs.n_symbols == 223
    assert back.channel == ChannelParams(p0=2.0, p1=20.0)
    assert back.p_max == 500.0
    assert back.trials == 7
    assert back.output_path == "artifacts"


def test_config_text_errors():
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("justnonsense")
    with pytest.raises(ValueError, match="unknown key"):
        parse_config_text("wat=1")
    with pytest.raises(ValueError):
        parse_config_text("channel=1,31.6,31.6,0")  # the eavesdropper and jam powers are gone


def test_config_value_errors_name_their_line_and_key():
    with pytest.raises(ValueError, match="config line 2: bad trials=abc: invalid literal"):
        parse_config_text("seeds=0\ntrials=abc\n")
    with pytest.raises(ValueError, match="config line 1: bad rs=8,255: not enough values"):
        parse_config_text("rs=8,255\n")


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


def test_fingerprint_similarity_scenario_small(tmp_path):
    config = ExperimentConfig(
        scenario="fingerprint-similarity",
        population=6,
        durations=(6.0, 60.0),
        output_path=str(tmp_path),
    )
    summary = run_experiment(config)
    by_dur = summary["same_subject_mean_by_duration"]
    assert by_dur["6.0"] <= by_dur["60.0"]
    assert summary["gap_at_60s"] > 0.10


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
    assert "rs=8,255,201" in out
    assert parse_config_text(out).rs.n_symbols == 201


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


@pytest.mark.parametrize("line", ["rs=9,255,201", "rs=17,255,201"])
def test_cli_config_with_unsupported_symbol_width_exits_2(tmp_path, capsys, line):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert cli_entry(["run", "separation", "--config", str(bad)]) == 2
    assert "bad config" in capsys.readouterr().err


def test_cli_rs_timing_decodes_byte_codes_whatever_the_rs_line(tmp_path):
    """rs-timing decodes (255, 255 - p) codes over GF(2^8); the config's
    code does not enter it, so a GF(2^4) line runs the default's rows."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text("rs=4,15,7\n")
    columns = []
    for extra in ([], ["--config", str(cfg)]):
        out = tmp_path / f"out{len(extra)}"
        assert cli_entry(["run", "rs-timing", "--out", str(out)] + extra) == 0
        rows = (out / "rs-timing.csv").read_text().splitlines()
        columns.append([row.split(",")[:2] for row in rows])
    assert columns[0] == columns[1]
    assert columns[0][0] == ["parity_symbols", "n_errors"]


@pytest.mark.parametrize(
    "line", ["p_max=0.5", "channel=0.0,1.0", "channel=1.0,0.0", "channel=1.0,nan"]
)
def test_cli_config_with_powers_no_scenario_can_run_exits_2(tmp_path, capsys, line):
    """Zero and NaN powers are divisors, and the ladder needs p_max above p0."""
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    out = tmp_path / "out"
    assert cli_entry(["run", "adversarial-ber", "--config", str(bad), "--out", str(out)]) == 2
    assert "bad config" in capsys.readouterr().err
    assert not out.exists()


def test_cli_scenario_applies_together_with_the_config_lines(tmp_path):
    """The command line's scenario wins over the file's ``scenario=`` line."""
    cfg = tmp_path / "other.cfg"
    cfg.write_text("scenario=rs-timing\nrs=4,15,7\n")
    out = tmp_path / "out"
    argv = ["run", "separation", "--config", str(cfg), "--trials", "3", "--check"]
    assert cli_entry(argv + ["--out", str(out)]) == 0
    assert json.loads((out / "separation-summary.json").read_text())["scenario"] == "separation"


def test_config_lines_apply_in_any_order():
    """p_max is checked against p0 once every line is read, not line by line."""
    text = "channel=2000.0,20000.0\np_max=5000.0\n"
    for order in (text, "".join(reversed(text.splitlines(keepends=True)))):
        config = parse_config_text(order)
        assert (config.channel.p0, config.p_max) == (2000.0, 5000.0)


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
