import json

import numpy as np
import pytest

from fastocr.cli import main, parse_config
from fastocr.metrics import validate_report
from fastocr.tracelab import PlantedConfig, generate_trace, planted_trace_file, write_trace


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


TOY_RUN = """
# desk-scale run
model.layers = 8
model.hidden = 64
model.heads = 4
model.vocab = 256
workload.kind = toy
workload.image_tokens = 32
workload.text_tokens = 4
policy.name = fastocr
policy.rho = 0.25
policy.gap = 1
policy.kappa = 0.25
policy.warmup = 5
run.steps = 10
run.seeds = 1,2
run.instrumented = true
"""


def test_parse_config_basics(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, "a.b = 1\n# comment\nc = x  # inline\n"))
    assert cfg == {"a.b": "1", "c": "x"}


def test_parse_config_errors(tmp_path):
    from fastocr.cli import ConfigError

    with pytest.raises(ConfigError, match="expected"):
        parse_config(write_cfg(tmp_path, "no equals sign\n"))
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(write_cfg(tmp_path, "a = 1\na = 2\n"))


def test_flops_subcommand(capsys):
    assert main(["flops", "--batch", "12", "--layers", "36", "--hidden", "2048",
                 "--seqlen", "4096"]) == 0
    out = capsys.readouterr().out
    assert "flops=28991029248" in out
    assert "flops_g=28.99" in out


def test_flops_zero_batch(capsys):
    assert main(["flops", "--batch", "0", "--layers", "36", "--hidden", "2048",
                 "--seqlen", "4096"]) == 0
    assert "flops=0" in capsys.readouterr().out


def test_flops_fastocr_variant_degenerates_to_vanilla(capsys):
    main(["flops", "--batch", "8", "--layers", "36", "--hidden", "2048",
          "--seqlen", "4096"])
    vanilla = capsys.readouterr().out
    main(["flops", "--batch", "8", "--layers", "36", "--hidden", "2048",
          "--seqlen", "4096", "--policy", "fastocr", "--n-focal", "36",
          "--s-pruned", "7"])
    fastocr = capsys.readouterr().out
    get = lambda s: [l for l in s.splitlines() if l.startswith("flops=")][0]
    assert get(vanilla) == get(fastocr)


def test_flops_missing_flag_exit_1(capsys):
    assert main(["flops", "--batch", "8"]) == 1


def test_run_writes_valid_report(tmp_path, capsys):
    report_path = tmp_path / "out" / "report.json"
    cfg = write_cfg(tmp_path, TOY_RUN + f"output.report = {report_path}\n")
    assert main(["run", cfg]) == 0
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert report["meta"]["policy"] == "fastocr"
    assert report["meta"]["seeds"] == [1, 2]
    assert report["attention_metrics"]["mean_recall"] is not None
    assert report["focal_layers"]["per_seed"]["1"]
    assert "scope_note" in report["meta"]


def test_run_reports_byte_identical(tmp_path):
    p1 = tmp_path / "r1.json"
    p2 = tmp_path / "r2.json"
    cfg1 = write_cfg(tmp_path, TOY_RUN + f"output.report = {p1}\n", "a.cfg")
    cfg2 = write_cfg(tmp_path, TOY_RUN + f"output.report = {p2}\n", "b.cfg")
    assert main(["run", cfg1]) == 0
    assert main(["run", cfg2]) == 0
    r1 = p1.read_bytes().replace(str(p1).encode(), b"PATH")
    r2 = p2.read_bytes().replace(str(p2).encode(), b"PATH")
    assert r1 == r2


def test_run_minimal_defaults_complete_quickly(tmp_path, capsys):
    import time

    cfg = write_cfg(tmp_path, "# all defaults: toy workload, vanilla policy\n")
    t0 = time.perf_counter()
    assert main(["run", cfg]) == 0
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report = json.loads(capsys.readouterr().out)
    validate_report(report)
    assert report["meta"]["policy"] == "vanilla"
    assert len(report["sequence_metrics"]["sequences"]["0"]) == 50


def test_run_default_rho_on_shallow_model_errors(tmp_path, capsys):
    # reference rho=0.1 budgets zero focal layers at 8 layers; must fail loudly
    cfg = write_cfg(tmp_path, "policy.name = fastocr\nrun.steps = 12\n"
                              "workload.image_tokens = 8\nworkload.text_tokens = 2\n")
    assert main(["run", cfg]) == 1
    assert "focal budget rounds to zero" in capsys.readouterr().err


def test_run_invariant_violation_exit_2(tmp_path, capsys, monkeypatch):
    import fastocr.policy as policy_mod

    # force the kept-set size check to trip mid-run
    monkeypatch.setattr(policy_mod, "kept_token_count", lambda kappa, n: -1)
    cfg = write_cfg(tmp_path, "policy.name = fastocr\npolicy.rho = 0.25\n"
                              "policy.warmup = 1\nrun.steps = 3\n"
                              "workload.image_tokens = 8\nworkload.text_tokens = 2\n")
    assert main(["run", cfg]) == 2
    assert "invariant violation" in capsys.readouterr().err


def test_run_steps_zero_exit_1(tmp_path):
    cfg = write_cfg(tmp_path, "run.steps = 0\n")
    assert main(["run", cfg]) == 1


def test_adaptation_notes_in_reports(tmp_path):
    rep = tmp_path / "fastv.json"
    cfg = write_cfg(tmp_path, f"""
policy.name = fastv
policy.fastv_layer = 2
policy.fastv_ratio = 0.5
workload.image_tokens = 16
workload.text_tokens = 4
run.steps = 4
output.report = {rep}
""", "fastv.cfg")
    assert main(["run", cfg]) == 0
    notes = json.loads(rep.read_text())["meta"]["notes"]
    assert any("fastv adaptation" in n for n in notes)

    rep2 = tmp_path / "w0.json"
    cfg2 = write_cfg(tmp_path, f"""
policy.name = fastocr
policy.rho = 0.25
policy.warmup = 0
policy.force_focal = 1,4
workload.image_tokens = 16
workload.text_tokens = 4
run.steps = 4
output.report = {rep2}
""", "w0.cfg")
    assert main(["run", cfg2]) == 0
    notes = json.loads(rep2.read_text())["meta"]["notes"]
    assert any("warmup=0" in n for n in notes)


def test_run_bad_policy_exit_1(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "policy.name = nonsense\n")
    assert main(["run", cfg]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["workload.image_tokens = -3", "model.heads = 0",
                                  "model.hidden = 0"])
def test_run_bad_sizes_exit_1_with_one_line(tmp_path, capsys, line):
    cfg = write_cfg(tmp_path, f"policy.name = vanilla\nrun.steps = 2\n{line}\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


def test_run_missing_config_exit_1(tmp_path):
    assert main(["run", str(tmp_path / "missing.cfg")]) == 1


def test_run_emits_toy_trace(tmp_path):
    from fastocr.tracelab import read_trace

    trace_path = tmp_path / "trace.txt"
    cfg = write_cfg(tmp_path, TOY_RUN + f"output.trace = {trace_path}\n")
    assert main(["run", cfg]) == 0
    tf = read_trace(str(trace_path))
    assert tf.source == "toy-model"
    assert tf.num_image_tokens == 32
    assert len(tf.steps) == 10


def test_compare_identity_row(tmp_path, capsys):
    report_path = tmp_path / "cmp.json"
    cfg = write_cfg(tmp_path, f"""
model.layers = 8
workload.kind = toy
workload.image_tokens = 32
workload.text_tokens = 4
compare.policies = fastocr,fastv,h2o
policy.rho = 0.25
policy.kappa = 1.0
policy.warmup = 2
policy.force_focal = all
policy.fastv_layer = 2
policy.fastv_ratio = 0.5
policy.h2o_ratio = 0.2
run.steps = 8
run.seeds = 3,4
output.report = {report_path}
""")
    assert main(["compare", cfg]) == 0
    report = json.loads(report_path.read_text())
    validate_report(report)
    seq = report["sequence_metrics"]
    # identity configuration tracks vanilla exactly
    assert seq["fastocr"]["prefix_agreement_mean"] == 1.0
    assert seq["fastocr"]["token_match_rate_mean"] == 1.0
    assert report["flops"]["fastocr"]["speedup_vs_vanilla"] == pytest.approx(1.0)
    # eviction baselines at these budgets cannot do better than fastocr here
    assert report["flops"]["fastv"]["mean_per_step"] < report["flops"]["vanilla"][
        "mean_per_step"]
    table = capsys.readouterr().out
    assert "policy" in table and "fastv" in table


def test_profile_outputs(tmp_path):
    csv_path = tmp_path / "ratios.csv"
    freq_path = tmp_path / "freq.json"
    cfg = write_cfg(tmp_path, f"""
workload.kind = planted
planted.layers = 6
planted.image_tokens = 40
planted.text_tokens = 8
planted.focal_layers = 2,4
planted.steps = 8
planted.sigma = 3
planted.center = 10
policy.name = fastocr
policy.rho = 0.34
policy.kappa = 0.1
policy.warmup = 4
run.seeds = 1,2,3
output.ratios_csv = {csv_path}
output.frequency_json = {freq_path}
""")
    assert main(["profile", cfg]) == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "step,layer,ratio"
    assert len(lines) == 1 + 8 * 6  # steps x layers
    # planted focal-like rows are the bright ones
    bright = {}
    for line in lines[1:]:
        step, layer, ratio = line.split(",")
        bright.setdefault(int(layer), []).append(float(ratio))
    for layer in (2, 4):
        assert np.mean(bright[layer]) > max(
            np.mean(bright[l]) for l in range(6) if l not in (2, 4))
    freq = json.loads(freq_path.read_text())
    assert freq["runs"] == 3
    assert freq["counts"][2] == 3 and freq["counts"][4] == 3
    assert freq["frequency"][2] == 1.0


def test_replay_command(tmp_path, capsys):
    cfg = PlantedConfig(num_layers=6, num_image_tokens=40, num_text_tokens=8,
                        focal_like_layers=(2, 4), num_steps=12, seed=5,
                        window_center=10.0, window_sigma=3.0)
    trace_path = tmp_path / "trace.txt"
    write_trace(planted_trace_file(generate_trace(cfg)), str(trace_path))
    report_path = tmp_path / "replay.json"
    assert main(["replay", "--trace", str(trace_path), "--policy", "fastocr",
                 "--rho", "0.34", "--kappa", "0.1", "--warmup", "10",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    validate_report(report)
    assert report["focal_layers"]["per_seed"]["trace"] == [2, 4]


def test_replay_kappa_one_keeps_all(tmp_path):
    cfg = PlantedConfig(num_layers=4, num_image_tokens=20, num_text_tokens=4,
                        focal_like_layers=(2,), num_steps=6, seed=1,
                        window_center=5.0, window_sigma=2.0)
    trace_path = tmp_path / "t.txt"
    write_trace(planted_trace_file(generate_trace(cfg)), str(trace_path))
    report_path = tmp_path / "r.json"
    assert main(["replay", "--trace", str(trace_path), "--rho", "0.25",
                 "--kappa", "1.0", "--warmup", "2",
                 "--report", str(report_path)]) == 0
    report = json.loads(report_path.read_text())
    # with everything kept the mean recall is exactly one
    assert report["attention_metrics"]["mean_recall"] == 1.0


def test_replay_insufficient_warmup_exit_1(tmp_path, capsys):
    cfg = PlantedConfig(num_layers=4, num_image_tokens=20, num_text_tokens=4,
                        focal_like_layers=(2,), num_steps=3, seed=1)
    trace_path = tmp_path / "t.txt"
    write_trace(planted_trace_file(generate_trace(cfg)), str(trace_path))
    assert main(["replay", "--trace", str(trace_path), "--warmup", "10"]) == 1
    assert "insufficient warmup data" in capsys.readouterr().err


def test_replay_malformed_trace_exit_1(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a trace\n")
    assert main(["replay", "--trace", str(bad)]) == 1
