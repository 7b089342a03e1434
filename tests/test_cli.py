import argparse
import dataclasses
import math
import re
from pathlib import Path

import pytest
import yaml

from compactwave import analysis, problems, schemes
from compactwave.cli import (
    COMMAND_DEFAULTS,
    EXIT_BLOWUP,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_SINGULAR,
    _build_parser,
    main,
)
from compactwave.mesh import NODE_DISTRIBUTIONS, build_graded_axis, build_uniform_axis
from compactwave.operators import PiecewiseData


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


def test_run_with_a_forcing_atom_off_the_time_mesh_is_a_config_error(capsys):
    # E_1.5's forcing switches on with a time atom at t = 0.5, which M = 7
    # steps miss: the forcing table is built when the run starts, not at
    # assembly, and the error keeps its exit code
    assert main(["run", "--problem", "E_1.5", "--N", "100", "--M", "7"]) == EXIT_CONFIG
    assert "not located at a mesh node" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["--scheme", "compact1d", "--problem", "E_2.5", "--N", "201"],
            "the forcing's switch-on time t_* = 0.5 is not located at a mesh node"
            " of the time mesh with M = 201",
        ),
        (
            ["--problem", "E_0.5", "--N", "41", "--M", "82"],
            "the spatial atom at x = 0.0 is not located at a mesh node of the axis with N = 41",
        ),
    ],
    ids=["switch-on-time", "spatial-atom"],
)
def test_data_off_the_mesh_names_itself_and_the_mesh(capsys, argv, message):
    # E_2.5 switches on at t_* = 0.5, between two of the 201 steps; E_0.5's
    # velocity atom at x = 0 lies between two nodes of an odd N (its forcing
    # switch-on time is a node of M = 82)
    assert main(["run", *argv]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"


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
        "--N", "20", "--M", "8", "--out", str(out),
    ])
    assert code == EXIT_OK
    text = out.read_text()
    assert "stable: True" in text


def test_run_characteristic_constructs_no_scheme(monkeypatch, tmp_path):
    # the characteristic runner keeps its own recursion and builds no Scheme:
    # the benchmark (bench/run.py) flags a pass whose timed Scheme
    # constructions differ from its plan, and the plan of its
    # `characteristic` workload is 0 constructions
    built = []
    init = schemes.Scheme.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(schemes.Scheme, "__init__", counted)
    argv = ["run", "--problem", "E_2.5", "--N", "40", "--out", str(tmp_path / "run.txt")]
    assert main(argv + ["--scheme", "characteristic"]) == EXIT_OK
    assert built == []
    assert main(argv) == EXIT_OK  # the counter counts: compact1d builds one
    assert built == [1]


def test_run_characteristic_with_forcing_before_the_start_is_a_config_error(monkeypatch, capsys):
    # the cone integrals would count the forcing at negative times
    problem = problems.make_example(2.5)
    early = PiecewiseData(tuple(
        dataclasses.replace(term, time=dataclasses.replace(term.time, t_star=-0.01))
        for term in problem.f_data
    ))
    problem = dataclasses.replace(problem, f_data=early)
    monkeypatch.setattr(problems, "catalog", lambda name: problem)
    argv = ["run", "--problem", "E_2.5", "--scheme", "characteristic", "--N", "20"]
    assert main(argv) == EXIT_CONFIG
    assert "switched on at t >= 0" in capsys.readouterr().err


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


def test_run_characteristic_refuses_steps_past_the_horizon(capsys):
    # 25 steps of h/a end at t = 1.40 > T = 1; 17, the automatic M, is the most
    argv = ["run", "--problem", "E_2.5", "--scheme", "characteristic", "--N", "40", "--M"]
    assert main(argv + ["25"]) == EXIT_CONFIG
    assert "M = 25 steps of h/a end past the horizon" in capsys.readouterr().err
    assert main(argv + ["17"]) == EXIT_OK
    assert float(capsys.readouterr().out.split("Ch=")[1].split()[0]) <= 1e-12


def test_run_auto_steps_of_a_switch_on_problem_on_a_graded_axis(tmp_path):
    # the step rule floor(sqrt(2) a T / h_min) = 5059, rounded up to a
    # multiple of N so that the switch-on time stays on the time mesh
    cfg = tmp_path / "graded.yaml"
    cfg.write_text(yaml.safe_dump({
        "problem": "E_2.5", "scheme": "compact1d", "M": "auto",
        "N": 400, "phi": "phi3",
    }))
    out = tmp_path / "run.txt"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert "# M: 5200" in lines and "stable: True" in lines
    ch = float(lines[-1].split("Ch=")[1].split()[0])
    assert ch == pytest.approx(2.744e-05, rel=1e-3)


@pytest.mark.parametrize("factor, steps", [(None, 200), ("4", 400)])
def test_run_auto_steps_of_a_switch_on_problem_on_a_uniform_axis(tmp_path, factor, steps):
    # at the default factor the step rule stays below N, so M = N; a larger
    # factor takes the next multiple of N
    out = tmp_path / "run.txt"
    argv = ["run", "--problem", "E_2.5", "--N", "200", "--out", str(out)]
    if factor is not None:
        argv += ["--cfl-factor", factor]
    assert main(argv) == EXIT_OK
    assert f"# M: {steps}" in out.read_text().splitlines()


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
    args = ["table1", "--alpha", "1.5", "--N", "40,80,160"]
    assert main(args + ["--out", str(out1)]) == EXIT_OK
    assert main(args + ["--out", str(out2)]) == EXIT_OK
    text = out1.read_text()
    assert text == out2.read_text()
    assert "compact1d" in text and "second-order" in text
    assert "err_40" in text


@pytest.mark.parametrize("args, row", [
    (["table1", "--alpha", "1.5", "2.5", "--N", "40,80,160"], "\nE_2.5,second-order,"),
    (["table2", "--phi", "phi0", "phi3", "--N", "40,60,80"], "\nphi3,nonuniform-compact,"),
], ids=["table1", "table2"])
def test_study_jobs_output_equals_serial(tmp_path, args, row):
    # both tables run their cases on the study's one pool
    outs = {}
    for jobs in (1, 2):
        out = tmp_path / f"jobs{jobs}.csv"
        assert main(args + ["--jobs", str(jobs), "--out", str(out)]) == EXIT_OK
        outs[jobs] = out.read_text()
    assert outs[1] == outs[2]
    assert outs[1].count(row) == 3


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

    real_case = cli.analysis._study_case

    def case(name, layout, n, kinds, factor):
        triples, m = real_case(name, layout, n, kinds, factor)
        blown = triples if n < 400 else [triples[0], ErrorTriple(math.inf, math.inf, math.inf)]
        return blown, m

    monkeypatch.setattr(cli.analysis, "_study_case", case)
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
    {"phi": "phi3"},
    {"phi": "phi0"},  # the identity map, with the graded arithmetic
    {"phi": "phi6"},
])
def test_run_characteristic_rejects_axis_settings(tmp_path, capsys, axis):
    cfg = tmp_path / "char.yaml"
    cfg.write_text(yaml.safe_dump(axis))
    code = main([
        "run", "--problem", "E_1.5", "--scheme", "characteristic", "--N", "40",
        "--config", str(cfg),
    ])
    assert code == EXIT_CONFIG
    assert "uniform axis" in capsys.readouterr().err


GRADED_AXIS = {"phi": "phi3"}


@pytest.mark.parametrize("scheme", ["second-order", "compactnd"])
def test_run_takes_a_graded_axis_for_every_other_1d_kind(tmp_path, scheme):
    # compactnd in 1D is compact1d: its report differs in the scheme line only
    cfg = tmp_path / "graded.yaml"
    cfg.write_text(yaml.safe_dump(GRADED_AXIS))
    reports = {}
    for name in (scheme, "compact1d"):
        out = tmp_path / f"{name}.txt"
        code = main(["run", "--problem", "smooth1d", "--scheme", name, "--N", "40",
                     "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_OK
        reports[name] = out.read_text().replace(f"# scheme: {name}\n", "")
    assert "stable: True" in reports[scheme]
    assert (reports[scheme] == reports["compact1d"]) == (scheme == "compactnd")


@pytest.mark.parametrize("scheme", ["compact1d", "nonuniform-compact"])
def test_run_compact1d_on_a_graded_axis(tmp_path, scheme):
    cfg = tmp_path / "graded.yaml"
    cfg.write_text(yaml.safe_dump(GRADED_AXIS))
    out = tmp_path / "run.txt"
    code = main(["run", "--problem", "smooth1d", "--scheme", scheme, "--N", "40",
                 "--config", str(cfg), "--out", str(out)])
    assert code == EXIT_OK
    text = out.read_text()
    assert f"# scheme: {scheme}" in text
    assert "stable: True" in text


@pytest.mark.parametrize("phi", ["phi0", "phi3", None])
def test_run_reports_the_triple_of_run_errors_on_the_problems_axis(tmp_path, phi):
    # N and phi lay out the problem's own interval; the header echoes a phi
    problem = problems.catalog("smooth1d")
    lo, extent = problem.origin[0], problem.extents[0]
    axis = (build_uniform_axis(80, extent, lo) if phi is None
            else build_graded_axis(NODE_DISTRIBUTIONS[phi], 80, extent, lo))
    m = schemes.step_count(problem, axis, "compact1d")
    [(_, triple)] = analysis.run_errors(problem, ["compact1d"], axis, m)
    cfg = tmp_path / "run.yaml"
    cfg.write_text(yaml.safe_dump({"problem": "smooth1d", "N": 80, "phi": phi}))
    out = tmp_path / "run.txt"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header = [f"# M: {m}", "# N: 80", *([f"# phi: {phi}"] if phi else []),
              "# problem: smooth1d", "# scheme: compact1d"]
    assert out.read_text().splitlines() == header + [
        "stable: True",
        f"errors: L2h={triple.L2h:.6E} Ch={triple.Ch:.6E} Eh={triple.Eh:.6E}",
    ]


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


def test_stability_nonuniform_compact_is_the_compact1d_report(tmp_path, capsys):
    reports = {}
    for scheme in ("compact1d", "nonuniform-compact"):
        out = tmp_path / f"{scheme}.txt"
        code = main(["stability", "--problem", "smooth1d", "--scheme", scheme,
                     "--N", "16", "--M", "200", "--certify", "--seed", "3", "--out", str(out)])
        assert code == EXIT_OK
        reports[scheme] = out.read_text().replace(f"# scheme: {scheme}\n", "")
    assert reports["nonuniform-compact"] == reports["compact1d"]
    cfg = tmp_path / "graded.yaml"
    cfg.write_text(yaml.safe_dump(GRADED_AXIS))
    code = main(["stability", "--problem", "smooth1d", "--scheme", "nonuniform-compact",
                 "--N", "40", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "the sine basis requires uniform spatial meshes" in capsys.readouterr().err


@pytest.mark.parametrize("scheme,dims", [
    ("compact2d", 2), ("compactnd", 2), ("splitting", 2), ("compact3d", 3), ("splitting", 3),
])
def test_stability_refuses_a_graded_axis_in_nd(tmp_path, capsys, scheme, dims):
    # one graded axis among uniform ones: the report works in the sine basis
    cfg = tmp_path / "graded.yaml"
    axes = [{"N": 8, "phi": "phi3"}] + [{"N": 6}] * (dims - 1)
    cfg.write_text(yaml.safe_dump({"scheme": scheme, "axes": axes}))
    assert main(["stability", "--config", str(cfg)]) == EXIT_CONFIG
    assert "the sine basis requires uniform spatial meshes" in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "-2"])
def test_stability_needs_a_positive_step_count(capsys, steps):
    code = main(["stability", "--problem", "smooth1d", "--N", "16", "--M", steps])
    assert code == EXIT_CONFIG
    assert "need at least one time step" in capsys.readouterr().err


@pytest.mark.parametrize("command", [
    ["run", "--problem", "smooth1d", "--N", "16"],
    ["stability", "--problem", "smooth1d", "--N", "16"],
    ["table2", "--phi", "phi0", "--N", "50,100,200"],
])
def test_explicit_zero_cfl_factor_is_rejected(capsys, command):
    # an explicit 0 is read, not replaced by the default factor
    assert main(command + ["--cfl-factor", "0"]) == EXIT_CONFIG
    assert "cfl_factor '0' must be a positive, finite number" in capsys.readouterr().err


@pytest.mark.parametrize("argv, config, where", [
    (["run", "--problem", "smooth1d", "--N", "40", "--M", "60", "--cfl-factor", "0.3"], None,
     "with an explicit M"),
    (["run", "--problem", "smooth1d", "--N", "40"], {"M": 60, "cfl_factor": 0.3},
     "with an explicit M"),
    (["run", "--scheme", "characteristic", "--problem", "E_2.5", "--N", "40",
      "--cfl-factor", "0.3"], None, "with the characteristic scheme"),
    (["run", "--scheme", "characteristic", "--problem", "E_2.5", "--N", "40"],
     {"cfl_factor": 1.4142135623730951}, "with the characteristic scheme"),
    (["stability", "--problem", "smooth1d", "--N", "16", "--M", "200", "--cfl-factor", "0.3"],
     None, "with an explicit M"),
    (["stability", "--problem", "smooth1d", "--N", "16"], {"M": 200, "cfl_factor": 0.3},
     "with an explicit M"),
])
def test_a_cfl_factor_the_step_count_does_not_read_exits_2(tmp_path, capsys, argv, config,
                                                           where):
    # the factor only enters the step-count rule of M: auto
    if config is not None:
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(config))
        argv = argv + ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert f"unread setting 'cfl_factor' {where}" in capsys.readouterr().err


@pytest.mark.parametrize("command, config, argv", [
    ("table1", None, ["--alpha", "5.5", "--N", "40,80"]),
    ("table1", {"alpha": [5.5], "N": [40, 80]}, []),
    ("table2", None, ["--phi", "phi0", "--N", "50,100"]),
    ("table2", {"phi": ["phi0"], "N": [50, 100]}, []),
])
def test_full_studies_reject_a_given_resolution_list(tmp_path, capsys, monkeypatch, command,
                                                     config, argv):
    from compactwave import cli

    monkeypatch.setattr(cli.analysis, "_study_case", lambda *a: pytest.fail("a case ran"))
    if config is not None:
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump(config))
        argv = argv + ["--config", str(cfg)]
    assert main([command, "--full", *argv]) == EXIT_CONFIG
    assert "unread setting 'N' with --full" in capsys.readouterr().err


@pytest.mark.parametrize("argv, layouts, n_list", [
    (["table1", "--alpha", "5.5"], ["uniform"], list(range(200, 601, 100))),
    (["table2"], list(NODE_DISTRIBUTIONS), list(range(50, 1001, 50))),
])
def test_full_studies_run_the_full_scale_lists(tmp_path, monkeypatch, argv, layouts, n_list):
    from compactwave import cli
    from compactwave.analysis import ErrorTriple

    asked = []

    def record(name, layout, n, kinds, factor):
        asked.append((layout, n))
        return [ErrorTriple(1.0 / n, 1.0 / n, 1.0 / n)] * len(kinds), n

    monkeypatch.setattr(cli.analysis, "_study_case", record)
    assert main([*argv, "--full", "--out", str(tmp_path / "out.txt")]) == EXIT_OK
    assert sorted(asked) == [(layout, n) for layout in sorted(layouts) for n in n_list]


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("jobs", [0, -2])
@pytest.mark.parametrize("command", ["table1", "table2"])
def test_jobs_below_one_is_a_config_error(tmp_path, capsys, monkeypatch, command, jobs, source):
    from compactwave import cli

    monkeypatch.setattr(cli.analysis, "_study_case", lambda *a: pytest.fail("a case ran"))
    argv = [command, "--N", "40,80"]
    if source == "flag":
        argv += ["--jobs", str(jobs)]
    else:
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump({"jobs": jobs}))
        argv += ["--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert f"jobs must be at least 1, not {jobs}" in capsys.readouterr().err


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command,key,values,message",
    [
        ("table1", "alpha", [2.5, 2.5], "alpha 2.5 is given twice"),
        ("table1", "N", [8, 16, 16], "N 16 is given twice"),
        ("table2", "phi", ["phi0", "phi0"], "phi 'phi0' is given twice"),
        ("table2", "N", [40, 40], "N 40 is given twice"),
    ],
)
def test_a_repeated_study_value_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, key, values, message, source
):
    from compactwave import cli

    monkeypatch.setattr(cli.analysis, "_study_case", lambda *a: pytest.fail("a case ran"))
    if source == "flag":
        joined = [",".join(map(str, values))] if key == "N" else [str(v) for v in values]
        argv = [command, f"--{key}", *joined]
    else:
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump({key: values}))
        argv = [command, "--config", str(cfg)]
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "table1", "table2"])
def test_config_format_is_checked_before_any_run(tmp_path, capsys, monkeypatch, command):
    from compactwave import cli

    monkeypatch.setattr(cli.analysis, "_study_case", lambda *a: pytest.fail("a case ran"))
    monkeypatch.setattr(cli.schemes, "Scheme", lambda *a, **k: pytest.fail("a scheme ran"))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"format": "html"}))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert "unknown format 'html'; choose from csv, md" in capsys.readouterr().err


def test_stability_2d_sum_pair_constant(tmp_path):
    config = tmp_path / "conf.yaml"
    config.write_text(yaml.safe_dump({
        "scheme": "compact2d",
        "axes": [
            {"N": 16, "X": 1.0, "origin": 0.0},
            {"N": 12, "X": 0.8, "origin": 0.0},
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


@pytest.mark.parametrize("config", [
    {"scheme": "compact1d", "axes": [{"N": 6, "X": 1.0}]},
    {"scheme": "compact2d", "axes": [{"N": 4, "X": 1.0}, {"N": 5, "X": 0.7}], "speeds": [1.0, 1.3]},
    {"scheme": "splitting", "axes": [{"N": 4, "X": 1.0}] * 3, "speeds": [1.0, 0.6, 1.2]},
])
def test_stability_certify_builds_the_pair_spectra_twice(tmp_path, monkeypatch, config):
    # once for the step-condition report, once for the certified scheme
    from compactwave import schemes, solvers, stability

    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return solvers.pair_spectra(*args, **kwargs)

    for module in (schemes, stability):
        monkeypatch.setattr(module, "pair_spectra", counted)
    cfg = tmp_path / "cert.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "st.txt"
    assert main(["stability", "--config", str(cfg), "--certify", "--out", str(out)]) == EXIT_OK
    assert "certificate_weak" in out.read_text()
    assert len(calls) == 2


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


@pytest.mark.parametrize("options, problem, named", [
    ({"rhs_mode": "smooth"}, "E_2.5", ["'scheme_options'"]),
    ({"sigm": 0.3}, "smooth1d", ["'scheme_options'"]),
    ({"sigma": 0.3, "u1n_mode": "qx", "fn0_mode": "averaged"}, "smooth1d",
     ["'scheme_options'"]),
    (3, "smooth1d", ["'scheme_options'"]),
])
def test_run_rejects_unknown_scheme_options(tmp_path, capsys, options, problem, named):
    # the kind fixes sigma and the discrete data follow the problem: there
    # are no scheme options, so the key is unknown to run and stability
    cfg = tmp_path / "opts.yaml"
    cfg.write_text(yaml.safe_dump({"scheme_options": options}))
    for argv in (["run", "--scheme", "compact1d"], ["run", "--scheme", "second-order"],
                 ["stability"]):
        code = main(argv + ["--problem", problem, "--N", "40", "--config", str(cfg)])
        assert code == EXIT_CONFIG, argv
        err = capsys.readouterr().err
        assert all(key in err for key in named), argv


@pytest.mark.parametrize("scheme, axes", [("compact2d", 3), ("compact1d", 2)])
def test_stability_rejects_a_dimension_the_kind_does_not_run(tmp_path, capsys, scheme, axes):
    cfg = tmp_path / "dim.yaml"
    cfg.write_text(yaml.safe_dump(
        {"scheme": scheme, "axes": [{"N": 4}] * axes, "speeds": [1] * axes}
    ))
    assert main(["stability", "--config", str(cfg)]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert f"does not support dimension {axes}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("steps", ["0", "-3"])
def test_run_characteristic_needs_a_positive_step_count(capsys, steps):
    code = main(["run", "--scheme", "characteristic", "--problem", "E_2.5",
                 "--N", "40", "--M", steps])
    assert code == EXIT_CONFIG
    assert "need at least one time step" in capsys.readouterr().err


def test_readme_config_example_runs(tmp_path, capsys):
    # the YAML config example of the README is a config that runs
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```yaml\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    cfg = tmp_path / "readme.yaml"
    cfg.write_text(blocks[0])
    assert main(["run", "--config", str(cfg)]) == EXIT_OK
    assert "stable: True" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# every setting is read or rejected

REMOVED_FLAGS = {
    "run": ["--jobs", "--seed"],
    "table1": ["--problem", "--scheme", "--M", "--cfl-factor", "--seed"],
    "table2": ["--problem", "--scheme", "--M", "--seed"],
    "stability": ["--format", "--jobs"],
    "selftest": ["--config", "--problem", "--scheme", "--N", "--M", "--cfl-factor",
                 "--format", "--out", "--jobs"],
}
FLAG_VALUES = {
    "--config": "c.yaml", "--problem": "E_1.5", "--scheme": "splitting", "--N": "40",
    "--M": "7", "--cfl-factor": "0.1", "--format": "md", "--out": "x.txt", "--jobs": "2",
    "--seed": "3",
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in REMOVED_FLAGS.items() for flag in flags
])
def test_a_flag_the_command_does_not_read_exits_2(tmp_path, monkeypatch, capsys, command, flag):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, flag, FLAG_VALUES[flag]])
    assert exc.value.code == EXIT_CONFIG
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
    assert not (tmp_path / "x.txt").exists()


def test_run_takes_one_resolution(capsys):
    assert main(["run", "--N", "100,200"]) == EXIT_CONFIG
    assert "N must be a whole number, not '100,200'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "table1", "table2", "stability"])
def test_unknown_config_key_is_named(tmp_path, capsys, command):
    cfg = tmp_path / "typo.yaml"
    cfg.write_text(yaml.safe_dump({"schem": "splitting", "cfl_facter": 0.3}))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown config key 'cfl_facter', 'schem'" in err  # safe_dump sorts the keys
    assert f"; {command} reads " in err


@pytest.mark.parametrize("config", [
    {"alpha": [1.5], "N": [40, 80, 160]},
    {"phi": ["phi0"], "N": [40, 80, 160]},
])
def test_studies_read_the_resolutions_of_the_config(tmp_path, config):
    command = "table1" if "alpha" in config else "table2"
    cfg = tmp_path / "study.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "study.csv"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    header = next(ln for ln in out.read_text().splitlines() if not ln.startswith("#"))
    assert "err_40,err_80,err_160" in header and "err_200" not in header


@pytest.mark.parametrize("config, argv, named", [
    # one axis: the problem gives the speeds and the horizon
    ({"N": 16, "speeds": [0.8], "T": 3.0}, [], "'speeds', 'T'"),
    ({"axes": [{"N": 16}], "T": 3.0}, [], "'T'"),
    # two axes: no problem; the axes replace N and phi
    ({"axes": [{"N": 4}, {"N": 5}]}, ["--problem", "E_2.5"], "'problem'"),
    ({"axes": [{"N": 4}, {"N": 5}]}, ["--N", "40"], "'N'"),
    ({"axes": [{"N": 4}, {"N": 5}], "N": 40}, [], "'N'"),
    ({"axes": [{"N": 4}, {"N": 5}], "phi": "phi3"}, [], "'phi'"),
])
def test_stability_rejects_settings_its_dimension_does_not_read(tmp_path, capsys, config,
                                                                argv, named):
    cfg = tmp_path / "st.yaml"
    cfg.write_text(yaml.safe_dump(config))
    assert main(["stability", "--config", str(cfg), *argv]) == EXIT_CONFIG
    assert f"unread setting {named}" in capsys.readouterr().err


@pytest.mark.parametrize("axis, named", [
    # a phi the characteristic scheme does not read; a key no command reads
    ({"N": 40, "phi": "phi3", "scheme": "characteristic"}, "unread setting 'phi'"),
    ({"N": 40, "phi": "phi3", "n": 40}, "unknown config key 'n'"),
], ids=["axis0-'phi'", "axis1-'n'"])
def test_run_rejects_unknown_axis_keys(tmp_path, capsys, axis, named):
    cfg = tmp_path / "axis.yaml"
    cfg.write_text(yaml.safe_dump({"problem": "E_1.5", **axis}))
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert capsys.readouterr().err.startswith(f"error: {named}")


def test_readme_lists_the_flags_and_config_keys_of_every_subcommand():
    # the README's per-subcommand table against the parser and COMMAND_DEFAULTS
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| subcommand | flags | config keys |\n")[1].split("\n\n")[0]
    rows = dict(re.findall(r"^\| `(\w+)` \| (.*) \|$", table, flags=re.MULTILINE))
    sub = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert set(rows) == set(sub.choices)
    for name, parser in sub.choices.items():
        flags_cell, keys_cell = rows[name].split(" | ")
        flags = {opt for action in parser._actions for opt in action.option_strings}
        assert set(re.findall(r"--[\w-]+", flags_cell)) == flags - {"-h", "--help"}, name
        assert set(re.findall(r"`(\w+)`", keys_cell)) == set(COMMAND_DEFAULTS.get(name, ())), name


@pytest.mark.parametrize("speeds, message", [
    ([1.0], "speeds [1.0] must give one speed per axis, 2 in all"),
    ([1.0, 1.0, 1.0], "speeds [1.0, 1.0, 1.0] must give one speed per axis, 2 in all"),
    (1.0, "speeds must be a non-empty list, not 1.0"),
    ([1.0, "x"], "speed 'x' must be a positive, finite number"),
    ([1.0, 0], "speed 0 must be a positive, finite number"),
    ([-1.0, 1.0], "speed -1.0 must be a positive, finite number"),
    ([1.0, math.inf], "speed inf must be a positive, finite number"),
    ([True, 1.0], "speed True must be a positive, finite number"),
])
@pytest.mark.parametrize("certify", [[], ["--certify"]])
def test_stability_needs_one_positive_finite_speed_per_axis(tmp_path, capsys, speeds, message,
                                                            certify):
    cfg = tmp_path / "st.yaml"
    cfg.write_text(yaml.safe_dump({"scheme": "compactnd", "axes": [{"N": 4}, {"N": 4}],
                                   "speeds": speeds}))
    out = tmp_path / "st.txt"
    assert main(["stability", "--config", str(cfg), *certify, "--out", str(out)]) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, named", [
    ("run", {"problem": "E_1.5", "N": 40.5}, "40.5"),
    ("run", {"problem": "E_1.5", "N": True}, "True"),
    ("run", {"problem": "E_1.5", "N": 40.5, "phi": "phi3"}, "40.5"),
    ("run", {"problem": "E_1.5", "N": 40, "M": 40.5}, "40.5"),
    ("table1", {"alpha": [1.5], "N": [20, 40.5, 80]}, "40.5"),
    ("table1", {"alpha": [1.5], "N": "20,40.5"}, "'40.5'"),
    ("table2", {"phi": ["phi0"], "N": [50, True]}, "True"),
    ("stability", {"N": 40.5}, "40.5"),
    ("stability", {"axes": [{"N": 4}, {"N": 4.5}]}, "4.5"),
    ("table1", {"alpha": [1.5], "N": [20, 40], "jobs": 1.5}, "1.5"),
    ("table2", {"phi": ["phi0"], "N": [50, 100], "jobs": True}, "True"),
])
def test_a_fractional_or_boolean_count_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                         command, config, named):
    from compactwave import cli

    monkeypatch.setattr(cli.analysis, "_study_case", lambda *a: pytest.fail("a case ran"))
    monkeypatch.setattr(cli.analysis, "run_errors", lambda *a: pytest.fail("a run ran"))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(config))
    assert main([command, "--config", str(cfg)]) == EXIT_CONFIG
    assert f"must be a whole number, not {named}" in capsys.readouterr().err


@pytest.mark.parametrize("n", [40, "40", 40.0])
def test_a_whole_resolution_runs_as_a_number_or_its_digits(tmp_path, n):
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump({"problem": "E_1.5", "N": n}))
    out = tmp_path / "run.txt"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
    assert "# N: 40\n" in out.read_text()


@pytest.mark.parametrize("command, config, argv, named", [
    # an infinite T or factor reaches no step count
    ("stability", {"scheme": "compactnd", "axes": [{"N": 4}, {"N": 4}], "T": math.inf}, [],
     "T inf must be a positive, finite number"),
    ("run", {}, ["--problem", "E_1.5", "--N", "20", "--cfl-factor", "inf"],
     "cfl_factor 'inf' must be a positive, finite number"),
    ("table2", {}, ["--phi", "phi0", "--N", "8,16", "--cfl-factor", "inf"],
     "cfl_factor 'inf' must be a positive, finite number"),
    # a value of the wrong shape
    ("run", {"phi": [1, 2]}, [], "unknown phi [1, 2]; choose from phi0"),
    ("run", {"phi": 7}, [], "unknown phi 7; choose from phi0"),
    ("stability", {"axes": {"N": 4}}, [], "axes must be a non-empty list, not {'N': 4}"),
    ("stability", {"axes": [4, 4]}, [], "axes[0] must be a mapping, not 4"),
    ("table1", {"alpha": 1.5}, [], "alpha must be a non-empty list, not 1.5"),
    ("stability", {"cfl_factor": [1]}, [], "cfl_factor [1] must be a positive, finite number"),
    ("stability", {"scheme": "compactnd", "axes": []}, [], "axes must be a non-empty list, not []"),
    ("stability", {"scheme": "compactnd", "axes": [{"N": 4}, {"N": 4}], "T": -1}, [],
     "T -1 must be a positive, finite number"),
    ("run", {}, ["--cfl-factor", "nan"], "cfl_factor 'nan' must be a positive, finite number"),
    ("stability", {"scheme": "compactnd", "axes": [{"N": 4}, {"N": 4}], "T": [1]}, [],
     "T [1] must be a positive, finite number"),
    ("run", {"problem": {"kind": "example", "alpha": [1]}}, [],
     "problem.alpha [1] must be a positive, finite number"),
    ("stability", {}, ["--certify", "--seed", "-1"], "seed must be at least 0, not -1"),
    # the flag --N and the key N are read alike: as the digits of a whole number
    ("run", {"problem": "E_1.5"}, ["--N", "40.0"], "N must be a whole number, not '40.0'"),
    ("run", {"problem": "E_1.5", "N": "40.0"}, [], "N must be a whole number, not '40.0'"),
    ("stability", {}, ["--N", "40.0"], "N must be a whole number, not '40.0'"),
    ("run", {"problem": {"kind": "example"}}, [], "problem of kind example needs an alpha"),
    # a config file is one mapping of keys
    ("run", [{"problem": "E_1.5"}], [], "config file must hold a mapping"),
    # one axis is N and phi on the problem's interval, not an axis mapping;
    # an axes entry is graded by its phi, not by a kind
    ("run", {"problem": "smooth1d", "N": 80, "axis": {"X": 2.0}}, [],
     "unknown config key 'axis'"),
    ("stability", {"axis": {"N": 16}}, [], "unknown config key 'axis'"),
    ("stability", {"axes": [{"N": 16, "kind": "graded", "phi": "phi3"}]}, [],
     "unread axes[0] key 'kind'"),
    ("stability", {"scheme": "compactnd", "axes": [{"N": 4}, {"N": 4, "kind": "uniform"}]}, [],
     "unread axes[1] key 'kind'"),
])
def test_a_value_the_key_cannot_take_exits_2_naming_it(tmp_path, capsys, monkeypatch, command,
                                                       config, argv, named):
    from compactwave import cli

    monkeypatch.setattr(cli.analysis, "_study_case", lambda *a: pytest.fail("a case ran"))
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "out.txt"
    assert main([command, "--config", str(cfg), *argv, "--out", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("text, named", [
    # a YAML syntax error: yaml.YAMLError, caught where yaml loads
    ("scheme: [compact1d\n", "cannot read config"),
    (None, "cannot read config"),
    ("- scheme: compact1d\n- N: 40\n", "config file must hold a mapping"),
])
def test_a_config_file_that_cannot_be_read_exits_2(tmp_path, capsys, text, named):
    cfg = tmp_path / "c.yaml"
    if text is not None:  # else the path names no file
        cfg.write_text(text)
    assert main(["stability", "--config", str(cfg)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err and "Traceback" not in err


def test_a_singular_system_exits_4(capsys, monkeypatch):
    from compactwave import solvers

    def singular(self, rhs, boundary=None):
        raise solvers.SingularSystemError("zero pivot in row 3 of the tridiagonal factor")

    monkeypatch.setattr(solvers.StackHandle, "solve", singular)
    assert main(["run", "--problem", "smooth1d", "--N", "16", "--M", "16"]) == EXIT_SINGULAR
    assert capsys.readouterr().err.startswith("singular system: zero pivot in row 3")


def test_selftest_rejects_a_negative_seed(capsys):
    assert main(["selftest", "--seed", "-1"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "seed must be at least 0, not -1" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command, config, argv, key", [
    ("table2", {"phi": ["phi0"], "N": [8, 16]}, [], "cfl_factor"),
    ("table2", {"phi": ["phi0"], "N": [8, 16]}, [], "jobs"),
    ("run", {"problem": "E_1.5"}, [], "N"),
    ("run", {"problem": "E_1.5"}, ["--N", "16"], "M"),
    ("run", {"problem": "E_1.5"}, ["--N", "16"], "phi"),
    ("stability", {"problem": "E_1.5"}, ["--N", "16", "--certify", "--seed", "5"], "scheme"),
])
def test_a_null_config_value_is_not_given(tmp_path, command, config, argv, key):
    outputs = []
    for extra in ({}, {key: None}):
        cfg = tmp_path / "c.yaml"
        cfg.write_text(yaml.safe_dump({**config, **extra}))
        out = tmp_path / "out.txt"
        assert main([command, "--config", str(cfg), *argv, "--out", str(out)]) == EXIT_OK
        outputs.append(out.read_text())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("source", ["flag", "config"])
def test_a_scalar_phi_is_a_list_of_one(tmp_path, source):
    config = {"N": [8, 16], "phi": "phi3"} if source == "config" else {"N": [8, 16]}
    cfg = tmp_path / "c.yaml"
    cfg.write_text(yaml.safe_dump(config))
    out = tmp_path / "t2.csv"
    argv = ["--phi", "phi3"] if source == "flag" else []
    assert main(["table2", "--config", str(cfg), *argv, "--out", str(out)]) == EXIT_OK
    assert "# phis: ['phi3']" in out.read_text()
