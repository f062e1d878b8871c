import dataclasses
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from recdev import cli
from recdev.cli import (
    ExperimentConfig,
    config_echo,
    config_from_dict,
    load_config,
    parse_range,
    region_points,
    validate,
)


def _write_cfg(tmp_path, name="cfg.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


# --- config document handling ---------------------------------------------


def test_config_from_dict_strips_density_prefix():
    cfg = config_from_dict(
        {"kernel": "epanechnikov", "density": "gaussian", "density_mean": [1.0],
         "density_sigma": [2.0], "bandwidth_a": 0.25}
    )
    assert cfg.kernel == "epanechnikov"
    assert cfg.density_params == {"mean": [1.0], "sigma": [2.0]}
    assert cfg.bandwidth_a == 0.25


def test_config_from_dict_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config field 'bandwith_a'"):
        config_from_dict({"bandwith_a": 0.3})


def test_load_config_round_trip(tmp_path):
    path = _write_cfg(tmp_path, bandwidth_c=0.5, n_list=[10, 20], density_mean=[0.5])
    cfg = load_config(path)
    assert cfg.bandwidth_c == 0.5
    assert cfg.n_list == [10, 20]
    assert cfg.density_params == {"mean": [0.5]}


def test_load_config_reports_json_position(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"kernel": "gaussian",\n "n_list": [1, }')
    with pytest.raises(ValueError, match="line 2"):
        load_config(str(path))


def test_load_config_rejects_non_object(tmp_path):
    path = tmp_path / "arr.json"
    path.write_text("[1, 2]")
    with pytest.raises(ValueError, match="single JSON object"):
        load_config(str(path))


def test_config_echo_excludes_out_and_reprefixes_params():
    cfg = config_from_dict({"density_sigma": [2.0], "density_mean": [1.0], "out": "/tmp/x"})
    echo = config_echo(cfg)
    assert "out" not in echo
    assert "density_params" not in echo
    assert echo["density_mean"] == [1.0]
    assert echo["density_sigma"] == [2.0]
    keys = [k for k in echo if k.startswith("density_")]
    assert keys == sorted(keys)


# --- grids -----------------------------------------------------------------


def test_parse_range_includes_endpoint():
    assert_allclose(parse_range("0:1:0.25"), [0.0, 0.25, 0.5, 0.75, 1.0])
    ts = parse_range("0:3:0.1")
    assert len(ts) == 31
    assert ts[-1] == pytest.approx(3.0)
    assert_allclose(parse_range("-1:1:0.5"), [-1.0, -0.5, 0.0, 0.5, 1.0])


def test_parse_range_rejects_bad_specs():
    for text in ("0:1", "0:1:0", "1:0:0.1", "a:b:c"):
        with pytest.raises(ValueError):
            parse_range(text)


def test_region_points_shapes():
    assert region_points(ExperimentConfig()) is None
    grid = region_points(ExperimentConfig(region="-1:1:0.5"))
    assert grid.shape == (5, 1)
    grid2 = region_points(ExperimentConfig(dimension=2, region="0:1:0.5"))
    assert grid2.shape == (9, 2)
    assert grid2[0].tolist() == [0.0, 0.0]
    explicit = region_points(ExperimentConfig(region=[[0.0], [1.5]]))
    assert explicit.shape == (2, 1)
    flat = region_points(ExperimentConfig(region=[0.0, 1.0, 2.0]))
    assert flat.shape == (3, 1)
    with pytest.raises(ValueError):
        region_points(ExperimentConfig(dimension=2, region=[[0.0], [1.0]]))
    with pytest.raises(ValueError, match="at least one point"):
        region_points(ExperimentConfig(region=[]))


def test_run_kind_inference():
    assert ExperimentConfig().run_kind() == "ldp"
    assert ExperimentConfig(scaling_kind="power", scaling_b=0.1).run_kind() == "mdp"
    assert ExperimentConfig(alpha=[1]).run_kind() == "mdp"
    assert ExperimentConfig(region="0:1:0.5").run_kind() == "uniform_bounded"
    assert ExperimentConfig(region="0:1:0.5", xi=2.0).run_kind() == "uniform_unbounded"
    assert ExperimentConfig(mode="mdp", scaling_kind="power", scaling_b=0.1).run_kind() == "mdp"
    # an explicit mode is checked against the run, never switches it
    assert ExperimentConfig(mode="ldp", region="0:1:0.5").run_kind() == "uniform_bounded"


# --- hypothesis validation ---------------------------------------------------


def test_validate_flags_bandwidth_exponent_with_derivative():
    cfg = ExperimentConfig(alpha=[1], bandwidth_a=0.5, scaling_kind="power", scaling_b=0.1)
    msgs = validate(cfg, "simulate")
    assert "(H3): a < 1/(d+2|alpha|)=1/3; got a=0.5" in msgs


def test_validate_flags_log_bandwidth_in_ldp_mode():
    cfg = ExperimentConfig(bandwidth_kind="power_log")
    msgs = validate(cfg, "simulate")
    assert "(H2): LDP density case requires h_n=cn^{-a}" in msgs


def test_validate_flags_scaling_exponent():
    cfg = ExperimentConfig(bandwidth_a=0.5, scaling_kind="power", scaling_b=0.3)
    msgs = validate(cfg, "cgf")
    assert "(H6): b must be < (1-a(d+2|alpha|))/2 = 0.25; got b=0.3" in msgs


def test_validate_flags_bias_exponent_interplay():
    cfg = ExperimentConfig(bandwidth_a=0.1, scaling_kind="power", scaling_b=0.3)
    msgs = validate(cfg, "simulate")
    assert any(m.startswith("(H7)ii): b must be < a*q = 0.2") for m in msgs)


def test_validate_accepts_compatible_choices():
    cfg = ExperimentConfig(bandwidth_a=0.25, scaling_kind="power", scaling_b=0.3, q=2)
    assert validate(cfg, "simulate") == []


def test_validate_is_pure():
    cfg = ExperimentConfig(bandwidth_a=0.5, alpha=[1])
    before = dataclasses.asdict(cfg)
    first = validate(cfg, "rate")
    second = validate(cfg, "rate")
    assert first == second
    assert dataclasses.asdict(cfg) == before


def test_validate_structural_errors():
    assert any("kernel" in m for m in validate(ExperimentConfig(kernel="box"), "rate"))
    assert any("dimension" in m for m in validate(ExperimentConfig(dimension=0), "rate"))
    assert any("alpha" in m for m in validate(ExperimentConfig(alpha=[1, 0]), "rate"))
    msgs = validate(ExperimentConfig(kernel="epanechnikov", alpha=[1]), "rate")
    assert any("derivatives up to order 0" in m for m in msgs)
    msgs = validate(ExperimentConfig(n_list=[100, 50]), "simulate")
    assert any("n_list" in m for m in msgs)
    msgs = validate(ExperimentConfig(mode="uniform_bounded"), "simulate")
    assert any("region" in m for m in msgs)
    msgs = validate(ExperimentConfig(region="0:1:0.5", xi=None, mode="uniform_unbounded"), "simulate")
    assert any("(H8)i)" in m for m in msgs)
    msgs = validate(ExperimentConfig(q=3), "bias")
    assert any("(H7)i)" in m for m in msgs)
    for q in (2.5, "2"):  # H7ii reads q too
        msgs = validate(ExperimentConfig(q=q, scaling_kind="power", scaling_b=0.1), "simulate")
        assert msgs == [f"q must be an integer >= 2; got {q!r}"]
    msgs = validate(ExperimentConfig(mode="mdp"), "simulate")
    assert any("conflicts" in m for m in msgs)
    # a mode only names the run the fields select; it never drops one
    msgs = validate(ExperimentConfig(mode="ldp", region="0:1:0.5"), "simulate")
    assert any("mode 'ldp' conflicts" in m and "select 'uniform_bounded'" in m for m in msgs)
    msgs = validate(ExperimentConfig(mode="uniform_bounded", region="0:1:0.5", xi=2.0), "simulate")
    assert any("select 'uniform_unbounded'" in m for m in msgs)
    msgs = validate(
        ExperimentConfig(region="0:1:0.5", scaling_kind="power", scaling_b=0.34,
                         bandwidth_a=0.4),
        "simulate",
    )
    assert any("(H10)" in m for m in msgs)


def test_validate_h6_and_h10_share_the_bound():
    cfg = ExperimentConfig(scaling_kind="power", scaling_b=0.4, bandwidth_a=0.3)
    msgs = validate(cfg, "cgf")
    assert msgs == ["(H6): b must be < (1-a(d+2|alpha|))/2 = 0.35; got b=0.4"]
    msgs = validate(dataclasses.replace(cfg, region="0:1:0.5"), "simulate")
    assert msgs == [
        "(H10): b must be < (1-a(d+2|alpha|))/2 = 0.35 for the uniform case; got b=0.4"
    ]


# --- flag preprocessing ------------------------------------------------------


def test_merge_dash_values():
    merged = cli._merge_dash_values(["rate", "--t-grid", "-1:3:0.1", "--out", "x"])
    assert merged == ["rate", "--t-grid=-1:3:0.1", "--out", "x"]
    merged = cli._merge_dash_values(["simulate", "--point", "-0.5"])
    assert merged == ["simulate", "--point=-0.5"]
    untouched = ["estimate", "--config", "cfg.json", "--n", "10,20"]
    assert cli._merge_dash_values(untouched) == untouched


# --- end-to-end subcommands --------------------------------------------------


def test_estimate_writes_grid_table(tmp_path, capsys):
    path = _write_cfg(tmp_path, bandwidth_c=0.7, n_list=[400], region="-1:1:0.5")
    rc = cli.main(["estimate", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 0
    csv = (tmp_path / "o" / "estimate.csv").read_text().splitlines()
    assert csv[0] == "x0,estimate,target,abs_error"
    assert len(csv) == 6
    summary = json.loads((tmp_path / "o" / "estimate.json").read_text())
    assert summary["grid_size"] == 5
    assert summary["sup_abs_error"] < 0.2
    assert "wrote" in capsys.readouterr().out


def test_rate_table_marks_infinite_entries(tmp_path):
    rc = cli.main(
        ["rate", "--t-grid", "-0.5:2:0.5", "--a", "0.3", "--out", str(tmp_path)]
    )
    assert rc == 0
    lines = (tmp_path / "rate.csv").read_text().splitlines()
    assert lines[0] == "t,rate"
    cells = dict(line.split(",") for line in lines[1:])
    assert cells["-0.5"] == "inf"
    assert cells["0.0"] == "inf"  # gaussian kernel: infinite zero-crossing rate
    summary = json.loads((tmp_path / "rate.json").read_text())
    assert summary["finite_entries"] == 4
    assert summary["overrides"] == {"bandwidth_a": 0.3, "t_grid": "-0.5:2:0.5"}


def test_rate_counters_sum_over_t(tmp_path):
    # one table solved at once counts what its rows solved one by one count
    def rate(grid, out):
        assert cli.main(["rate", "--t-grid", grid, "--a", "0.25", "--out", str(out)]) == 0
        return (out / "rate.csv").read_text().splitlines()[1:], json.loads(
            (out / "rate.json").read_text()
        )["counters"]

    rows, counters = rate("0:2:0.5", tmp_path / "all")
    total = {"bracket_doublings": 0, "newton_steps": 0, "psi_evaluations_per_level": {}}
    for i, t in enumerate((0.0, 0.5, 1.0, 1.5, 2.0)):
        row, c = rate(f"{t}:{t}:1", tmp_path / str(i))
        assert row == [rows[i]]
        total["bracket_doublings"] += c["bracket_doublings"]
        total["newton_steps"] += c["newton_steps"]
        for level, count in c["psi_evaluations_per_level"].items():
            levels = total["psi_evaluations_per_level"]
            levels[level] = levels.get(level, 0) + count
    assert counters == total
    assert counters["newton_steps"] > 0


def test_cgf_exit_zero_when_gaps_shrink(tmp_path, capsys):
    path = _write_cfg(
        tmp_path, bandwidth_c=0.3, u_values=[0.5, 1.0], n_list=[100, 1000]
    )
    rc = cli.main(["cgf", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "verdict abs_error_decreasing: PASS" in capsys.readouterr().out
    csv = (tmp_path / "o" / "cgf.csv").read_text().splitlines()
    assert csv[0] == "n,u,finite_n,limit,abs_error"
    assert len(csv) == 5
    summary = json.loads((tmp_path / "o" / "cgf.json").read_text())
    assert summary["regime"] == "ldp"
    assert [p["n"] for p in summary["per_n"]] == [100, 1000]


def test_cgf_at_large_u_exits_zero(tmp_path):
    # psi(40) is about 6e8 here, so its two levels can only agree relatively
    rc = cli.main(
        ["cgf", "--c", "0.3", "--a", "0.3", "--u", "10,40", "--n", "100,1000",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 0


def test_simulate_failing_verdict_exits_one(tmp_path, capsys):
    path = _write_cfg(
        tmp_path, bandwidth_c=0.35, scaling_kind="power", scaling_b=0.1,
        delta=0.2, n_list=[30, 60], replications=400, seed=1,
    )
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 1
    out = capsys.readouterr().out
    assert "verdict final_within_30pct: FAIL" in out
    summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
    assert summary["kind"] == "pointwise_mdp"
    assert summary["policy"] == {"final_gap_fraction": 0.3, "sandwich_slack_fraction": 0.3}
    assert summary["config"]["seed"] == 1
    assert "out" not in summary["config"]


def _simulate_bytes_at(tmp_path, monkeypatch, threads) -> list:
    """simulate.csv and simulate.json of one seeded run at RECDEV_THREADS (None: unset)."""
    path = _write_cfg(
        tmp_path, bandwidth_c=0.35, scaling_kind="power", scaling_b=0.1,
        delta=0.25, n_list=[40, 160], replications=300, seed=5,
    )
    if threads is None:
        monkeypatch.delenv("RECDEV_THREADS", raising=False)
    else:
        monkeypatch.setenv("RECDEV_THREADS", threads)
    out = tmp_path / f"threads_{threads}"
    assert cli.main(["simulate", "--config", path, "--out", str(out)]) in (0, 1)
    return [(out / name).read_bytes() for name in ("simulate.csv", "simulate.json")]


def test_simulate_outputs_are_byte_deterministic(tmp_path, monkeypatch):
    base = _simulate_bytes_at(tmp_path, monkeypatch, "1")
    assert _simulate_bytes_at(tmp_path, monkeypatch, "4") == base


def test_simulate_outputs_at_the_default_thread_count_match_one_thread(tmp_path, monkeypatch):
    base = _simulate_bytes_at(tmp_path, monkeypatch, "1")
    assert _simulate_bytes_at(tmp_path, monkeypatch, None) == base


@pytest.mark.parametrize("raw", ["abc", "0", "-3"])
def test_simulate_exits_two_on_a_bad_thread_count(tmp_path, monkeypatch, capsys, raw):
    path = _write_cfg(tmp_path, scaling_kind="power", scaling_b=0.1, replications=50, seed=5)
    monkeypatch.setenv("RECDEV_THREADS", raw)
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) == 2
    assert f"RECDEV_THREADS must be an integer >= 1; got {raw!r}" in capsys.readouterr().err


def test_simulate_uniform_region_summary(tmp_path):
    path = _write_cfg(
        tmp_path, bandwidth_c=0.3, scaling_kind="power", scaling_b=0.1,
        delta=0.25, n_list=[50, 200], replications=300, seed=2,
        region="-0.5:0.5:0.5", xi=2.0,
    )
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert rc in (0, 1)
    summary = json.loads((tmp_path / "o" / "simulate.json").read_text())
    assert summary["kind"] == "uniform_unbounded"
    lo, up = summary["sandwich"]
    assert lo == pytest.approx(-summary["rate"])
    assert up == pytest.approx(lo * 2.0 / 3.0)
    assert [v["name"] for v in summary["verdicts"]] == ["sandwich_upper", "sandwich_lower"]


def test_bias_subcommand_with_region(tmp_path):
    path = _write_cfg(
        tmp_path, bandwidth_c=0.7, n_list=[2000, 20000], region="-1:1:1.0"
    )
    rc = cli.main(["bias", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 0
    csv = (tmp_path / "o" / "bias.csv").read_text().splitlines()
    assert csv[0] == "n,normalizer,bias,ratio,sup_normalized"
    summary = json.loads((tmp_path / "o" / "bias.json").read_text())
    assert summary["policy"] == {"ratio_change_tolerance": 0.10}
    assert summary["bound"] > 0


def test_chernoff_subcommand(tmp_path, capsys):
    path = _write_cfg(
        tmp_path, bandwidth_c=0.35, scaling_kind="power", scaling_b=0.1,
        delta=0.3, n_list=[50, 200], replications=500, seed=3,
    )
    rc = cli.main(["chernoff", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 0
    assert "verdict chernoff_domination: PASS" in capsys.readouterr().out
    csv = (tmp_path / "o" / "chernoff.csv").read_text().splitlines()
    assert csv[0] == "n,speed,count,p_hat,censored,normalized_log,chernoff_bound"
    summary = json.loads((tmp_path / "o" / "chernoff.json").read_text())
    assert summary["policy"] == {"monte_carlo_sigmas": 3}
    assert all("chernoff_bound" in e for e in summary["per_n"])


def test_invalid_config_exits_two(tmp_path, capsys):
    path = _write_cfg(tmp_path, bandwidth_a=0.5, alpha=[1])
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "config error: (H3): a < 1/(d+2|alpha|)=1/3; got a=0.5" in err
    assert not (tmp_path / "o" / "simulate.csv").exists()


_N_LIST_SUBCOMMANDS = ("estimate", "cgf", "simulate", "bias", "chernoff")
_STRUCTURAL_FAULTS = [
    ("rate", dict(kernel="box")),
    ("rate", dict(dimension=0)),
    ("rate", dict(dimension=1.5)),
    ("estimate", dict(bandwidth_kind="exponential")),
    ("estimate", dict(bandwidth_c=0.0)),
    ("estimate", dict(bandwidth_c=-1.0)),
    ("estimate", dict(bandwidth_a=-0.1)),
    ("estimate", dict(bandwidth_a=1.0)),
    ("cgf", dict(scaling_kind="log")),
    ("cgf", dict(scaling_kind="power", scaling_b=0.0)),
    ("cgf", dict(scaling_kind="power", scaling_b=0.5)),
    ("rate", dict(alpha=[0, 0])),
    ("rate", dict(alpha=[-1])),
    ("rate", dict(alpha=[1.5])),
    ("rate", dict(kernel="epanechnikov", alpha=[1])),
    ("estimate", dict(density="cauchy")),
    ("estimate", dict(density_sigma=[-1.0])),
    ("estimate", dict(density="gaussian_mixture")),
    ("estimate", dict(dimension=2, point=[0.0, 0.0])),
    ("simulate", dict(dimension=2, point=[0.0, 0.0])),
    ("estimate", dict(point=[0.0, 0.0])),
    ("simulate", dict(mode="fast")),
    ("simulate", dict(mode="mdp", region="0:1:0.5", scaling_kind="power", scaling_b=0.1)),
    ("simulate", dict(mode="uniform_bounded", region="0:1:0.5", xi=2.0)),
    *[(sub, dict(n_list=ns)) for sub in _N_LIST_SUBCOMMANDS
      for ns in ([], [100, 50], [10.0, 20])],
    ("simulate", dict(delta=0.0)),
    ("chernoff", dict(delta=-0.1)),
    ("simulate", dict(replications=0)),
    ("chernoff", dict(replications=2.5)),
    ("cgf", dict(u_values=[])),
    ("rate", dict(t_grid="0:1")),
    ("rate", dict(t_grid="1:0:0.1")),
    ("bias", dict(q=1.5)),
    ("bias", dict(m_q=0.0)),
    ("simulate", dict(xi=0.0, region="0:1:0.5")),
    ("simulate", dict(xi=-1.0)),
    ("simulate", dict(xi=2.0, scaling_kind="power", scaling_b=0.1)),  # xi without a region
    ("simulate", dict(region=[[0.0, 1.0]])),
    ("estimate", dict(seed=-1)),
    ("simulate", dict(seed=-1)),
    ("chernoff", dict(seed=2**64)),
    # non-finite numbers, refused where each is owned
    ("rate", dict(t_grid="0:inf:1")),
    ("simulate", dict(delta=math.nan)),
    ("simulate", dict(delta=math.inf)),
    ("simulate", dict(xi=math.nan, region="0:1:0.5")),
    ("cgf", dict(u_values=[math.nan])),
    ("estimate", dict(point=[math.nan])),
    ("estimate", dict(bandwidth_c=math.inf)),
    ("estimate", dict(density_mean=[math.nan])),
    ("estimate", dict(density_sigma=[math.inf])),
    ("estimate", dict(density="gaussian_mixture", density_weights=[math.nan, 0.5],
                      density_means=[[0.0], [1.0]], density_sigmas=[[1.0], [1.0]])),
    ("estimate", dict(density="gaussian_mixture", density_weights=[0.5, 0.5],
                      density_means=[[0.0], [math.inf]], density_sigmas=[[1.0], [1.0]])),
    ("estimate", dict(density="gaussian_mixture", density_weights=[0.5, 0.5],
                      density_means=[[0.0], [1.0]], density_sigmas=[[1.0], [math.nan]])),
    ("estimate", dict(density="uniform_box", density_low=[-math.inf], density_high=[1.0])),
    ("estimate", dict(density="uniform_box", density_low=[0.0], density_high=[math.nan])),
    ("estimate", dict(region=[[math.nan]])),
    ("estimate", dict(region=[])),
    ("bias", dict(region=[])),
    ("simulate", dict(region=[[0.0], [math.inf]])),
    # density parameters the family does not name
    ("estimate", dict(density_maen=[3.0])),
    ("estimate", dict(density="uniform_box", density_mean=[0.0])),
]


@pytest.mark.parametrize(
    "sub,fields", _STRUCTURAL_FAULTS,
    ids=[f"{sub}-{'-'.join(f'{k}={v}' for k, v in fields.items())}"
         for sub, fields in _STRUCTURAL_FAULTS],
)
def test_each_structural_fault_exits_two(tmp_path, capsys, sub, fields):
    path = _write_cfg(tmp_path, **{"replications": 50, **fields})
    rc = cli.main([sub, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert capsys.readouterr().err
    assert not (tmp_path / "o" / f"{sub}.csv").exists()


# A field a subcommand does not read neither refuses it nor changes its CSV.
_UNREAD_BASE = {
    "bias": dict(bandwidth_c=0.7, n_list=[1000, 4000], region="-1:1:1.0"),
    "rate": dict(bandwidth_a=0.25, t_grid="0:2:0.5"),
    "cgf": dict(bandwidth_c=0.3, n_list=[100, 1000], u_values=[0.5, 1.0]),
    "chernoff": dict(bandwidth_c=0.35, scaling_kind="power", scaling_b=0.1,
                     delta=0.3, n_list=[50, 200], replications=300, seed=3),
}
_UNREAD_FIELDS = [
    ("bias", dict(delta=0.0)),
    ("bias", dict(replications=0)),
    ("bias", dict(seed=-1)),
    ("bias", dict(xi=-1.0)),
    ("rate", dict(region="0:1")),
    ("cgf", dict(region="0:1")),
    ("chernoff", dict(region=[[math.nan]])),
    ("chernoff", dict(region=[[True]])),
    ("chernoff", dict(xi=-1.0)),
]


@pytest.mark.parametrize(
    "sub,fields", _UNREAD_FIELDS,
    ids=[f"{sub}-{'-'.join(f'{k}={v}' for k, v in fields.items())}"
         for sub, fields in _UNREAD_FIELDS],
)
def test_unread_field_neither_refuses_nor_changes_output(tmp_path, sub, fields):
    base = _UNREAD_BASE[sub]
    plain = _write_cfg(tmp_path, "plain.json", **base)
    extra = _write_cfg(tmp_path, "extra.json", **{**base, **fields})
    assert cli.main([sub, "--config", plain, "--out", str(tmp_path / "a")]) == 0
    assert cli.main([sub, "--config", extra, "--out", str(tmp_path / "b")]) == 0
    csv = f"{sub}.csv"
    assert (tmp_path / "a" / csv).read_bytes() == (tmp_path / "b" / csv).read_bytes()


# A field of the wrong type, or a number beyond the float range, is a config
# error (exit 2) before any run: not a traceback (exit 1) or a run (exit 0).
_TYPED_FAULTS = [
    ("bias", '{"m_q": "x"}', "m_q must be a finite number > 0 when given; got 'x'"),
    ("bias", '{"m_q": 1e400}', "m_q must be a finite number > 0 when given; got inf"),
    ("bias", '{"m_q": 1' + 400 * "0" + '}', "m_q must be a finite number > 0 when given"),
    ("bias", '{"m_q": true}', "m_q must be a finite number > 0 when given; got True"),
    ("cgf", '{"u_values": {"a": 1}}', "config error: "),
    ("cgf", '{"u_values": ["a"]}', "u_values must be a list of numbers; got ['a']"),
    ("simulate", '{"delta": true, "scaling_kind": "power", "scaling_b": 0.1}',
     "delta must be finite and > 0; got True"),
    ("simulate", '{"delta": 1' + 400 * "0" + ', "scaling_kind": "power", "scaling_b": 0.1}',
     "delta must be finite and > 0; got 1000"),
    ("simulate", '{"delta": "0.2", "scaling_kind": "power", "scaling_b": 0.1}',
     "delta must be finite and > 0; got '0.2'"),
    ("simulate", '{"xi": true, "region": "-1:1:0.5"}', "xi must be finite and > 0; got True"),
    ("simulate", '{"replications": true, "scaling_kind": "power", "scaling_b": 0.1}',
     "replications must be an integer >= 1; got True"),
    # a boolean or a string where a real number belongs, in a scalar, an array or alpha
    ("estimate", '{"bandwidth_c": true}', "bandwidth constant c must be finite and > 0, got True"),
    ("estimate", '{"bandwidth_c": "x"}', "bandwidth constant c must be finite and > 0, got 'x'"),
    ("estimate", '{"bandwidth_a": false}', "bandwidth exponent a must satisfy 0 <= a < 1, got False"),
    ("estimate", '{"bandwidth_a": "0.2"}', "bandwidth exponent a must satisfy 0 <= a < 1, got '0.2'"),
    ("cgf", '{"scaling_kind": "power", "scaling_b": "0.1"}',
     "scaling exponent b must satisfy 0 < b < 1/2, got '0.1'"),
    ("estimate", '{"point": [true]}', "point must be a list of numbers; got [True]"),
    ("estimate", '{"point": ["a"]}', "point must be a list of numbers; got ['a']"),
    ("estimate", '{"density_mean": [true]}', "mean must be a list of numbers; got [True]"),
    ("estimate", '{"density_mean": ["a"]}', "mean must be a list of numbers; got ['a']"),
    ("estimate", '{"density": "uniform_box", "density_high": [true]}',
     "high must be a list of numbers; got [True]"),
    ("estimate", '{"region": [[true]]}', "region must be a list of numbers; got [[True]]"),
    ("cgf", '{"u_values": [true, 0.5]}', "u_values must be a list of numbers; got [True, 0.5]"),
    ("estimate", '{"alpha": 1}', "alpha must be a list of integers; got 1"),
]


@pytest.mark.parametrize("sub,doc,message", _TYPED_FAULTS,
                         ids=[f"{sub}-{doc[:40]}" for sub, doc, _ in _TYPED_FAULTS])
def test_config_of_the_wrong_type_exits_two(tmp_path, capsys, sub, doc, message):
    path = tmp_path / "cfg.json"
    path.write_text(doc)
    rc = cli.main([sub, "--config", str(path), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error: ") and message in err
    assert not (tmp_path / "o" / f"{sub}.csv").exists()


def test_h3_refuses_a_bandwidth_that_does_not_shrink(tmp_path, capsys):
    # a = 0 is a valid schedule (constant h) but breaks every rate; a < 0 is the schedule's own error
    rc = cli.main(["rate", "--a", "0", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err == "config error: (H3): a must be positive so the bandwidth shrinks; got a=0\n"
    assert not (tmp_path / "o" / "rate.csv").exists()


@pytest.mark.parametrize("sub", ["cgf", "chernoff"])
def test_h2_follows_the_regime_not_the_region(tmp_path, capsys, sub):
    # the ldp rate reads h_n = cn^{-a} whether or not a region is present
    path = _write_cfg(tmp_path, bandwidth_kind="power_log", region="0:1:0.5")
    rc = cli.main([sub, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "config error: (H2): LDP density case requires h_n=cn^{-a}" in capsys.readouterr().err
    assert not (tmp_path / "o" / f"{sub}.csv").exists()


def test_broken_json_exits_two(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope}")
    rc = cli.main(["rate", "--config", str(path)])
    assert rc == 2
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sub,fields,message",
    [
        # a derivative sup is only computed for 1-d densities; 2-d needs m_q
        ("bias", dict(dimension=2, kernel="epanechnikov", bandwidth_a=0.2,
                      density_mean=[0.0, 0.0], density_sigma=[1.0, 1.0],
                      point=[0.0, 0.0], n_list=[20, 40]),
         "derivative sup is implemented for d = 1 only"),
        # the Chernoff curve needs f(x) > 0, and the point lies outside the box
        ("chernoff", dict(density="uniform_box", density_low=[0.0], density_high=[1.0],
                          point=[2.0], n_list=[20, 40], replications=50),
         "needs f(x) > 0"),
        # the uniform rate needs sup_U f > 0, and the region lies outside the box
        ("simulate", dict(density="uniform_box", density_low=[0.0], density_high=[1.0],
                          region="2:3:0.5", n_list=[20, 40], replications=50),
         "sup_density must be positive"),
    ],
)
def test_usage_error_at_run_time_exits_two(tmp_path, capsys, sub, fields, message):
    path = _write_cfg(tmp_path, **fields)
    rc = cli.main([sub, "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "ValueError" in err and message in err
    assert not (tmp_path / "o" / f"{sub}.csv").exists()


def test_bias_order_beyond_the_float_factorial_exits_two(tmp_path, capsys):
    # q! overflows a float from q = 171 on; the even q = 172 passes (H7)i)
    rc = cli.main(["bias", "--q", "172", "--n", "100,200", "--out", str(tmp_path / "o")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "ValueError" in err and "q=172" in err
    assert not (tmp_path / "o" / "bias.csv").exists()


def test_underpowered_run_exits_three(tmp_path, capsys):
    path = _write_cfg(
        tmp_path, bandwidth_c=0.35, scaling_kind="power", scaling_b=0.1,
        delta=80.0, n_list=[20, 40], replications=50,
    )
    rc = cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "UnderpoweredExperimentError" in err
    assert "simulate:" in err


def test_seed_and_flag_overrides_are_echoed(tmp_path):
    path = _write_cfg(tmp_path, bandwidth_c=0.7, n_list=[200])
    rc = cli.main(
        ["estimate", "--config", path, "--seed", "9", "--c", "0.5",
         "--out", str(tmp_path / "o")]
    )
    assert rc == 0
    summary = json.loads((tmp_path / "o" / "estimate.json").read_text())
    assert summary["overrides"] == {"bandwidth_c": 0.5, "seed": 9}
    assert summary["config"]["bandwidth_c"] == 0.5
    assert summary["config"]["seed"] == 9


def test_simulate_builds_each_object_once(tmp_path, monkeypatch):
    # validation builds the kernel, spec and experiment; the run reuses them
    from recdev.cgf import CgfSpec
    from recdev.deviations import DeviationExperiment
    from recdev.kernels import KernelModel

    built = []
    for cls in (KernelModel, CgfSpec, DeviationExperiment):
        def counted(self, _init=cls.__post_init__, _name=cls.__name__):
            built.append(_name)
            _init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    path = _write_cfg(
        tmp_path, bandwidth_c=0.35, scaling_kind="power", scaling_b=0.1,
        delta=0.2, n_list=[50, 200], replications=200,
    )
    assert cli.main(["simulate", "--config", path, "--out", str(tmp_path / "o")]) in (0, 1)
    assert sorted(built) == ["CgfSpec", "DeviationExperiment", "KernelModel"]
