import math

import pytest
import yaml

from compactwave.cli import EXIT_BLOWUP, EXIT_CONFIG, EXIT_OK, main


def test_run_smoke(tmp_path, capsys):
    out = tmp_path / "run.txt"
    code = main([
        "run", "--problem", "smooth1d", "--scheme", "compact1d",
        "--N", "100", "--M", "100", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = out.read_text()
    assert "stable: True" in text
    assert "errors:" in text


def test_run_second_order_with_smooth_forcing(tmp_path):
    # the weighted 2nd-order scheme takes the compact forcing table too
    out = tmp_path / "run.txt"
    code = main([
        "run", "--problem", "smooth1d", "--scheme", "second-order", "--N", "40",
        "--out", str(out),
    ])
    assert code == EXIT_OK
    assert "stable: True" in out.read_text()


def test_run_characteristic(tmp_path):
    out = tmp_path / "run.txt"
    code = main([
        "run", "--problem", "E_1.5", "--scheme", "characteristic",
        "--N", "20", "--M", "10", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = out.read_text()
    assert "stable: True" in text


def test_run_characteristic_auto_steps_stop_at_horizon(tmp_path):
    # h_t = h/a: --M auto takes floor(N a T / X) = 17 levels at N = 40
    out = tmp_path / "run.txt"
    code = main([
        "run", "--problem", "E_2.5", "--scheme", "characteristic",
        "--N", "40", "--M", "auto", "--out", str(out),
    ])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert "# M: 17" in lines
    ch = float(lines[-1].split("Ch=")[1].split()[0])
    assert ch <= 1e-12


def test_run_degenerate_mesh_is_config_error(capsys):
    code = main(["run", "--problem", "smooth1d", "--scheme", "compact1d", "--N", "1"])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_unknown_scheme_is_config_error(capsys):
    code = main(["run", "--scheme", "nope", "--N", "16"])
    assert code == EXIT_CONFIG


def test_run_blowup_exit_code(tmp_path):
    out = tmp_path / "run.txt"
    code = main([
        "run", "--problem", "smooth1d", "--scheme", "compact1d",
        "--N", "800", "--cfl-factor", str(1.0 / math.sqrt(2.0)),
        "--out", str(out),
    ])
    assert code == EXIT_BLOWUP
    assert "stable: False" in out.read_text()


def test_table1_smoke_and_determinism(tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["table1", "--alpha", "1.5", "--N", "40,80,160", "--seed", "0"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    text = out1.read_text()
    assert text == out2.read_text()
    assert "compact1d" in text and "second-order" in text
    assert "err_40" in text


def test_table1_jobs_output_equals_serial(tmp_path):
    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.csv"
        args = ["table1", "--alpha", "1.5", "2.5", "--N", "40,80,160", "--jobs", str(jobs)]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        outs[jobs] = out.read_text()
    assert outs[1] == outs[2]
    assert outs[1].count("\nE_2.5,second-order,") == 3


def test_table2_blown_up_runs_report_inf_and_leave_the_fit(tmp_path):
    # at 0.3 of the sqrt(2) step rule the N = 1000 and 2000 runs pass 1e100
    out = tmp_path / "t2.csv"
    with pytest.warns(UserWarning, match="excluding"):
        code = main([
            "table2", "--phi", "phi0", "--N", "500,1000,2000", "--cfl-factor", "0.3",
            "--out", str(out),
        ])
    assert code == EXIT_BLOWUP
    lines = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0]
    for row in lines[1:]:
        cells = dict(zip(header, row))
        assert cells["err_1000"] == cells["err_2000"] == "inf"
        assert cells["gamma_pr"] == cells["c0"] == ""


def test_table1_blown_up_run_writes_report_and_exits_3(tmp_path, monkeypatch):
    # no table1 setting blows up, so one case reports the blow-up triple
    from compactwave import cli
    from compactwave.analysis import ErrorTriple

    real_case = cli._table1_case

    def case(alpha, n):
        triples = real_case(alpha, n)
        return triples if n < 400 else [triples[0], ErrorTriple(math.inf, math.inf, math.inf)]

    monkeypatch.setattr(cli, "_table1_case", case)
    out = tmp_path / "t1.csv"
    with pytest.warns(UserWarning, match="excluding non-finite"):
        code = main(["table1", "--alpha", "1.5", "--N", "100,200,400", "--out", str(out)])
    assert code == EXIT_BLOWUP
    rows = [ln.split(",") for ln in out.read_text().splitlines() if not ln.startswith("#")]
    cells = [dict(zip(rows[0], row)) for row in rows[1:]]
    assert len(cells) == 6
    assert all(c["err_400"] == "inf" for c in cells if c["scheme"] == "second-order")
    assert all(c["err_400"] != "inf" for c in cells if c["scheme"] == "compact1d")


@pytest.mark.parametrize("axis", [
    {"kind": "graded", "phi": "phi3"},
    {"X": 2.0},
    {"origin": 0.0},
])
def test_run_characteristic_rejects_axis_settings(tmp_path, capsys, axis):
    cfg = tmp_path / "char.yaml"
    cfg.write_text(yaml.safe_dump({"axis": axis}))
    code = main([
        "run", "--problem", "E_1.5", "--scheme", "characteristic", "--N", "40",
        "--config", str(cfg),
    ])
    assert code == EXIT_CONFIG
    assert "uniform axis" in capsys.readouterr().err


def test_table1_rejects_odd_n(capsys):
    code = main(["table1", "--alpha", "1.5", "--N", "41,81,161"])
    assert code == EXIT_CONFIG
    assert "even" in capsys.readouterr().err


def test_table2_smoke(tmp_path):
    out = tmp_path / "t2.csv"
    code = main(["table2", "--phi", "phi0", "--N", "50,100,200", "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "phi0" in text
    assert "h_ratio" in text


def test_table2_unknown_phi(capsys):
    assert main(["table2", "--phi", "phi9"]) == EXIT_CONFIG


def test_stability_marginal_case(tmp_path):
    out = tmp_path / "st.txt"
    code = main([
        "stability", "--problem", "smooth1d", "--scheme", "compact1d",
        "--N", "800", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = out.read_text()
    assert "value: 0.5019" in text
    assert "warning" in text


def test_stability_2d_sum_pair_constant(tmp_path):
    config = tmp_path / "conf.yaml"
    config.write_text(yaml.safe_dump({
        "scheme": "compact2d",
        "axes": [
            {"kind": "uniform", "N": 16, "X": 1.0, "origin": 0.0},
            {"kind": "uniform", "N": 12, "X": 0.8, "origin": 0.0},
        ],
        "speeds": [1.0, 1.2],
        "T": 1.0,
        "M": 400,
    }))
    out = tmp_path / "st.txt"
    code = main(["stability", "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert "C0: 1.3333" in text
    assert "passed: True" in text


def test_stability_certify(tmp_path):
    out = tmp_path / "st.txt"
    code = main([
        "stability", "--problem", "smooth1d", "--scheme", "compact1d",
        "--N", "16", "--M", "200", "--certify", "--seed", "3", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = out.read_text()
    assert "certificate_strong" in text and "satisfied=True" in text


def test_markdown_format(tmp_path):
    out = tmp_path / "t1.md"
    code = main(["table1", "--alpha", "1.5", "--N", "40,80,160",
                 "--format", "md", "--out", str(out)])
    assert code == EXIT_OK
    assert "| problem |" in out.read_text()


def test_selftest(capsys):
    assert main(["selftest"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS: splitting identity" in out
    assert "PASS: characteristic-mesh exactness" in out


def test_config_file_roundtrip(tmp_path):
    config = tmp_path / "conf.yaml"
    config.write_text(yaml.safe_dump({
        "problem": "E_2.5",
        "scheme": "compact1d",
        "N": 100,
        "M": 100,
    }))
    out = tmp_path / "run.txt"
    code = main(["run", "--config", str(config), "--out", str(out)])
    assert code == EXIT_OK
    assert "problem: E_2.5" in out.read_text()


def test_bad_config_file(tmp_path, capsys):
    config = tmp_path / "conf.yaml"
    config.write_text("problem: [unclosed")
    assert main(["run", "--config", str(config)]) == EXIT_CONFIG
