"""Study orchestration: config parsing, the four studies, reports, and CLI.

Everything here stays at desk scale; each study fixture runs once per module
and the tests pick apart its rows and check records.  The staged failure
cases (beyond-horizon, reference blow-up) use bump amplitudes tuned so the
relevant guard trips within a step or two instead of an expensive run.
"""

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from boxflow.cli import main as cli_main
from boxflow import experiments
from boxflow.errors import BlowUpError, ConfigurationError, StepSizeError
from boxflow.experiments import (
    _box_grids,
    _build_vorticity,
    _format_cell,
    _gap_norms,
    _initial_velocity,
    _tail_masses,
    emit_report,
    load_config,
    measure_constants,
    parse_config,
    run_snapshot_audit,
    run_study,
)
from boxflow import spectral_core
from boxflow.solver import SolverConfig, existence_time, nse_march
from boxflow.extension import extend_field
from boxflow.norms import l2_norm, sobolev_norm, tail_mass
from boxflow.spectral_core import BoxGrid, Field, set_default_workers

from conftest import traced_peak


def inversion_data(**overrides):
    data = {
        "kind": "inversion",
        "alphas": [1, 2],
        "base_n": 16,
        "initial_data": {"family": "bump", "support_radius": 0.5},
    }
    data.update(overrides)
    return data


def solution_data(**overrides):
    data = {
        "kind": "solution",
        "alphas": [1, 2],
        "base_n": 16,
        "initial_data": {"family": "bump", "support_radius": 0.5},
        "solver": {"dt": 2e-3, "t_end": 0.02, "snapshot_every": 5},
    }
    data.update(overrides)
    return data


def tail_data(**overrides):
    data = {
        "kind": "tail",
        "alphas": [4],
        "base_n": 64,
        "initial_data": {"family": "bump", "support_radius": 1.0},
        "solver": {"dt": 2e-3, "t_end": 0.01, "snapshot_every": 5},
        "tail": {"inner_radius": 1.5, "radii": [2.0, 2.5, 3.0]},
    }
    data.update(overrides)
    return data


def transfer_data(**overrides):
    data = {
        "kind": "transfer",
        "alphas": [1],
        "base_n": 16,
        "beta": 2,
        "initial_data": {
            "family": "bump",
            "support_radius": 0.5,
            "amplitude": 10.0,
        },
        "solver": {"dt": 2e-3},
        "transfer": {"t_star_factor": 1.0},
    }
    data.update(overrides)
    return data


# Zero initial data: a bump of amplitude 0.
ZERO_DATA = {"family": "bump", "support_radius": 0.5, "amplitude": 0.0}


def bump_data(**initial):
    data = {"family": "bump", "support_radius": 0.5}
    return inversion_data(initial_data={**data, **initial})


def trefoil_data(**initial):
    data = {"family": "trefoil", "major_radius": 0.3, "tube_radius": 0.05,
            "strength": 1.0}
    return inversion_data(initial_data={**data, **initial})


# A config small enough that CLI round-trips finish in well under a second.
# (base_n below 16 under-resolves the bump profile and trips the support
# leak guard, so this is as small as a non-degenerate study gets.)
def tiny_inversion_data(**overrides):
    data = {
        "kind": "inversion",
        "alphas": [1],
        "base_n": 16,
        "initial_data": {"family": "bump", "support_radius": 0.5},
    }
    data.update(overrides)
    return data


# -------------------------------------------------------------- parsing


@pytest.mark.parametrize(
    "data",
    [inversion_data(), solution_data(), tail_data(), transfer_data()],
    ids=["inversion", "solution", "tail", "transfer"],
)
def test_config_round_trips_through_to_dict(data):
    cfg = parse_config(data)
    assert parse_config(cfg.to_dict()) == cfg


def test_parsed_config_fills_defaults():
    cfg = parse_config(inversion_data())
    assert cfg.beta == 4.0  # 2 * max(alphas)
    assert cfg.h == pytest.approx(2.0 / 16)
    assert cfg.ns == (16, 32)
    assert cfg.beta_n == 64
    echo = cfg.to_dict()
    assert sorted(echo) == ["alphas", "base_n", "beta", "initial_data", "kind"]
    assert echo["initial_data"] == {
        "family": "bump",
        "support_radius": 0.5,
        "amplitude": 1.0,
        "direction": [0.0, 0.0, 1.0],
        "support_tol": 1e-2,
    }


@pytest.mark.parametrize(
    "mutate, match",
    [
        (lambda d: d.update(bogus=1), "unknown key"),
        (lambda d: d["initial_data"].update(bogus=1), "unknown key"),
        # the error norms, the halving bound and the support margin are fixed
        (lambda d: d.update(norms=["L2", "H1"]), r"unknown key\(s\) \['norms'\] in config"),
        (lambda d: d.update(checks={"ratio_bound": 0.5}),
         r"unknown key\(s\) \['checks'\] in config"),
        # zero data is a bump with amplitude 0
        (lambda d: d.update(initial_data={"family": "zero"}),
         r"'family' must be one of \['bump', 'trefoil'\], got 'zero'"),
    ],
    ids=["top-level", "initial-data", "norms", "checks", "zero-family"],
)
def test_unknown_keys_rejected(mutate, match):
    data = inversion_data()
    mutate(data)
    with pytest.raises(ConfigurationError, match=match):
        parse_config(data)


def test_unknown_solver_and_tail_keys_rejected():
    data = solution_data()
    data["solver"]["bogus"] = 1
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config(data)
    data = tail_data()
    data["tail"]["bogus"] = 1
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config(data)


@pytest.mark.parametrize(
    "data, match",
    [
        ({"alphas": [1], "base_n": 8}, "'kind'"),
        (inversion_data(kind="nonsense"), "'kind'"),
        (inversion_data(alphas=[]), "alphas"),
        (inversion_data(alphas=[2, 1]), "ascending"),
        (inversion_data(alphas=[1, -2]), "positive"),
        (inversion_data(base_n=7), "even integer"),
        (inversion_data(base_n=6), "even integer"),
        (inversion_data(alphas=[1, 1.3]), "share the lattice"),
        (inversion_data(beta=3.0), "beta"),
        (inversion_data(alphas=[0.5, 1]), "alpha >= 1"),
    ],
    ids=[
        "missing-kind",
        "bad-kind",
        "empty-alphas",
        "descending",
        "negative-alpha",
        "odd-base-n",
        "small-base-n",
        "non-nesting",
        "beta-too-small",
        "alpha-below-one",
    ],
)
def test_invalid_configs_rejected(data, match):
    with pytest.raises(ConfigurationError, match=match):
        parse_config(data)


def test_support_radius_must_fit_with_margin():
    # Default margin is 2h = 0.25, so support must stay within 0.75 on Q_1.
    data = inversion_data()
    data["initial_data"]["support_radius"] = 0.9
    with pytest.raises(ConfigurationError, match="support"):
        parse_config(data)
    data["initial_data"]["support_radius"] = 0.75
    parse_config(data)


def test_bump_direction_validated():
    data = inversion_data()
    data["initial_data"]["direction"] = [0, 0]
    with pytest.raises(ConfigurationError, match="3-vector"):
        parse_config(data)
    data["initial_data"]["direction"] = [0, 0, 0]
    with pytest.raises(ConfigurationError, match="nonzero"):
        parse_config(data)


def test_solver_section_gating():
    with pytest.raises(ConfigurationError, match="no 'solver'"):
        parse_config(inversion_data(solver={"dt": 1e-3, "t_end": 0.1}))
    data = solution_data()
    del data["solver"]
    with pytest.raises(ConfigurationError, match="need a 'solver'"):
        parse_config(data)


def test_kind_specific_sections_gated():
    with pytest.raises(ConfigurationError, match="'tail' section"):
        parse_config(inversion_data(tail={"inner_radius": 1, "radii": [2]}))
    with pytest.raises(ConfigurationError, match="'transfer' section"):
        parse_config(tail_data(transfer={"t_star_factor": 1.0}))


def test_transfer_solver_takes_no_t_end():
    data = transfer_data()
    data["solver"]["t_end"] = 0.1
    with pytest.raises(ConfigurationError, match="t_end"):
        parse_config(data)


def test_transfer_solver_takes_no_snapshot_every():
    # the transfer study stores no snapshots; it reads the per-step audits
    data = transfer_data()
    data["solver"]["snapshot_every"] = 5
    with pytest.raises(ConfigurationError, match="no 'snapshot_every' key"):
        parse_config(data)


def test_tail_radius_boundary_is_the_closed_limit():
    # R = alpha - 1 exactly is accepted; anything above is rejected.
    parse_config(tail_data())  # largest R = 3.0 on Q_4
    data = tail_data()
    data["tail"]["radii"] = [2.0, 3.1]
    with pytest.raises(ConfigurationError, match="exceeds alpha - 1"):
        parse_config(data)


def test_tail_radius_ordering():
    data = tail_data()
    data["tail"]["radii"] = [2.5, 2.0]
    with pytest.raises(ConfigurationError, match="ascending"):
        parse_config(data)
    data = tail_data()
    data["tail"]["inner_radius"] = 2.0
    with pytest.raises(ConfigurationError, match="inner radius"):
        parse_config(data)
    # Inner radius must sit outside the data support.
    data = tail_data()
    data["tail"]["inner_radius"] = 0.8
    with pytest.raises(ConfigurationError, match="support"):
        parse_config(data)


def test_trefoil_support_radius_reaches_the_outer_knot():
    # the knot reaches 1.5 * major_radius, so the data reaches
    # 1.5 * 0.6 + 3 * 0.12 = 1.26, beyond the inner radius 1.0
    data = tail_data(
        initial_data={"family": "trefoil", "major_radius": 0.6,
                      "tube_radius": 0.12, "strength": 1.0},
        tail={"inner_radius": 1.0, "radii": [2.0, 2.5, 3.0]},
    )
    with pytest.raises(ConfigurationError,
                       match="must exceed the data support radius 1.26"):
        parse_config(data)


@pytest.mark.parametrize(
    "data",
    [
        bump_data(),
        # resolved well enough for the mean check at loosened div/support tols
        inversion_data(alphas=[2], base_n=48, initial_data={
            "family": "trefoil", "major_radius": 0.5, "tube_radius": 0.3,
            "strength": 1.0, "div_tol": 1e-4, "support_tol": 1e-4}),
    ],
    ids=["bump", "trefoil"],
)
def test_config_support_radius_is_that_of_the_built_data(data):
    cfg = parse_config(data)
    for _, grid in _box_grids(cfg):
        assert _build_vorticity(cfg, grid).support_radius == cfg.support_radius


# One wrong value per case: a bool where a number goes, a float where an
# integer goes, a string where a list goes, or a non-finite number.
@pytest.mark.parametrize(
    "make, key",
    [
        (lambda: inversion_data(alphas="1,2"), "alphas"),
        (lambda: inversion_data(alphas=[1, math.nan]), "alphas"),
        (lambda: inversion_data(base_n=16.0), "base_n"),
        (lambda: inversion_data(base_n=True), "base_n"),
        (lambda: inversion_data(beta=True), "beta"),
        (lambda: inversion_data(beta=math.inf), "beta"),
        (lambda: inversion_data(out_dir=1.0), "out_dir"),
        (lambda: solution_data(allow_beyond_guaranteed=1), "allow_beyond_guaranteed"),
        (lambda: inversion_data(initial_data={"family": "bump", "support_radius": True}),
         "support_radius"),
        (lambda: inversion_data(initial_data={"family": "bump", "support_radius": 0.5,
                                              "amplitude": math.nan}), "amplitude"),
        (lambda: inversion_data(initial_data={"family": "bump", "support_radius": 0.5,
                                              "direction": "z"}), "direction"),
        (lambda: trefoil_data(resolution=512.0), "resolution"),
        (lambda: bump_data(support_radius=math.inf), "support_radius"),
        (lambda: solution_data(solver={"dt": True, "t_end": 0.02}), "dt"),
        (lambda: solution_data(solver={"dt": 2e-3, "t_end": math.inf}), "t_end"),
        (lambda: solution_data(solver={"dt": 2e-3, "t_end": 0.02, "snapshot_every": 5.0}),
         "snapshot_every"),
        (lambda: tail_data(tail={"inner_radius": True, "radii": [2.0]}), "inner_radius"),
        (lambda: tail_data(tail={"inner_radius": 1.5, "radii": "2.0"}), "radii"),
        (lambda: transfer_data(transfer={"t_star_factor": True}), "t_star_factor"),
        (lambda: transfer_data(transfer={"t_star_factor": math.nan}), "t_star_factor"),
        # initial data out of range: rejected here, not when the study runs
        *(
            pytest.param(make, key, id=f"{key}={value}")
            for make, key, value in [
                (lambda: bump_data(support_radius=0), "support_radius", 0),
                (lambda: bump_data(support_radius=-0.5), "support_radius", -0.5),
                (lambda: bump_data(support_tol=-1), "support_tol", -1),
                (lambda: trefoil_data(resolution=0), "resolution", 0),
                (lambda: trefoil_data(resolution=-5), "resolution", -5),
                (lambda: trefoil_data(major_radius=-0.6), "major_radius", -0.6),
                (lambda: trefoil_data(tube_radius=0), "tube_radius", 0),
                (lambda: trefoil_data(div_tol=-1), "div_tol", -1),
                (lambda: trefoil_data(support_tol=-1e-6), "support_tol", -1e-6),
            ]
        ),
    ],
)
def test_wrong_types_and_non_finite_values_rejected(make, key):
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        parse_config(make())


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("initial_data", "direction", [math.nan, 0, 1]),
        ("initial_data", "direction", [True, 0, 0]),
        ("tail", "radii", [2.0, math.nan]),
    ],
)
def test_list_entries_must_be_finite_numbers(section, key, value):
    data = tail_data()
    data[section][key] = value
    with pytest.raises(ConfigurationError, match=f"'{key}'"):
        parse_config(data)


def test_non_finite_alpha_is_a_config_error(tmp_path):
    with pytest.raises(ConfigurationError, match="'alphas'"):
        parse_config(inversion_data(alphas=[1, math.inf]))
    path = tmp_path / "study.json"
    path.write_text(json.dumps(inversion_data(alphas=[1, math.inf])))
    assert "Infinity" in path.read_text()
    assert cli_main(["inversion", "--config", str(path), "--out", str(tmp_path / "o")]) == 2


@st.composite
def valid_configs(draw):
    """Random valid raw configs of every kind; each optional key is either
    given or left to its default."""

    def maybe(section, key, value):
        if draw(st.booleans()):
            section[key] = value

    kind = draw(st.sampled_from(["inversion", "solution", "tail", "transfer"]))
    a0 = 4.0 if kind == "tail" else draw(st.sampled_from([1.0, 2.0]))
    ms = [1, *sorted(draw(st.sets(st.integers(2, 4), max_size=2)))]
    data = {
        "kind": kind,
        "alphas": [a0 * m for m in ms],
        "base_n": draw(st.sampled_from([16, 20, 32])),
    }
    maybe(data, "beta", a0 * draw(st.integers(2 * ms[-1], 2 * ms[-1] + 3)))
    unit = st.floats(0.01, 1.0)
    family = draw(st.sampled_from(["bump", "trefoil"]))
    initial = {"family": family}
    if family == "bump":
        initial["support_radius"] = draw(st.floats(0.1, 0.5))
        maybe(initial, "amplitude", draw(st.floats(-10.0, 10.0)))
        axis = draw(st.integers(0, 2))
        direction = draw(st.lists(st.integers(-3, 3), min_size=3, max_size=3))
        direction[axis] = draw(st.sampled_from([-3, -2, -1, 1, 2, 3]))
        maybe(initial, "direction", direction)
        maybe(initial, "support_tol", draw(unit))
    else:
        initial.update(major_radius=draw(st.floats(0.1, 0.3)),
                       tube_radius=draw(st.floats(0.01, 0.05)), strength=draw(unit))
        maybe(initial, "resolution", draw(st.integers(16, 1024)))
        maybe(initial, "div_tol", draw(unit))
        maybe(initial, "support_tol", draw(unit))
    data["initial_data"] = initial
    if kind != "inversion":
        solver = {"dt": draw(st.floats(1e-5, 1e-2))}
        if kind != "transfer":
            solver["t_end"] = draw(unit)
            maybe(solver, "snapshot_every", draw(st.integers(1, 50)))
        data["solver"] = solver
    if kind == "tail":
        data["tail"] = {"inner_radius": 2.25,
                        "radii": sorted(draw(st.sets(st.sampled_from([2.5, 2.75, 3.0]),
                                                     min_size=1)))}
    if kind == "transfer":
        transfer = {}
        maybe(transfer, "t_star_factor", draw(st.floats(0.1, 5.0)))
        maybe(data, "transfer", transfer)
    if kind == "solution":
        maybe(data, "allow_beyond_guaranteed", draw(st.booleans()))
    maybe(data, "out_dir", draw(st.text(min_size=1, max_size=8)))
    return data


@given(valid_configs())
def test_random_configs_round_trip_through_to_dict(data):
    cfg = parse_config(data)
    assert parse_config(cfg.to_dict()) == cfg
    assert parse_config(json.loads(json.dumps(cfg.to_dict()))) == cfg


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigurationError, match="not valid JSON"):
        load_config(bad)


def test_cli_key_given_twice_is_config_error(tmp_path, capsys):
    path = tmp_path / "study.json"
    path.write_text(
        '{"kind": "inversion", "alphas": [1, 2], "alphas": [1], "base_n": 16,'
        ' "initial_data": {"family": "bump", "support_radius": 0.4,'
        ' "support_radius": 0.5}}'
    )
    out = tmp_path / "o"
    assert cli_main(["inversion", "--config", str(path), "--out", str(out)]) == 2
    # the innermost object is read first
    assert "key 'support_radius' is given twice" in capsys.readouterr().err
    assert not out.exists()


def test_readme_config_example_parses_and_round_trips():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    blocks = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
    assert len(blocks) == 1
    cfg = parse_config(json.loads(blocks[0]))
    assert parse_config(cfg.to_dict()) == cfg


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(inversion_data()))
    assert load_config(path) == parse_config(inversion_data())


# -------------------------------------------------------------- inversion


@pytest.fixture(scope="module")
def inversion_result():
    cfg = parse_config(inversion_data())
    return cfg, run_study(cfg)


def test_inversion_table_shape(inversion_result):
    cfg, res = inversion_result
    assert res.kind == "inversion"
    assert res.columns == ("alpha", "err_L2", "err_H1", "grad_norm", "omega_norm")
    assert [row["alpha"] for row in res.rows] == [1.0, 2.0]
    for row in res.rows:
        for col in res.columns:
            assert math.isfinite(row[col])
            assert row[col] > 0


def test_inversion_errors_halve(inversion_result):
    _, res = inversion_result
    assert res.passed
    a, b = res.rows
    assert b["err_H1"] < a["err_H1"]
    assert b["err_H1"] / a["err_H1"] <= 0.5
    names = {c.name for c in res.checks}
    assert "err_H1_ratio_alpha_1_to_2" in names
    assert "curl_identity_per_row" in names


def test_inversion_rows_satisfy_curl_identity(inversion_result):
    _, res = inversion_result
    for row in res.rows:
        rel = abs(row["grad_norm"] - row["omega_norm"]) / row["omega_norm"]
        assert rel <= 1e-10


def test_inversion_constants_are_order_one(inversion_result):
    _, res = inversion_result
    for key in ("c_agmon", "c_sobolev6", "c_pressure"):
        assert 0.01 < res.constants[key] < 10.0


def test_inversion_holds_each_reference_array_only_while_it_is_read():
    # the traced peak in units of one 3-vector sample array on the N^3
    # reference lattice (1.98): summing the gap one component at a time
    # holds the reference's samples, made over its spectrum (1.03), the H^1
    # weight, the box's velocity and one gap component with its |c|^2
    # (0.82), and a slab's temporaries.  The inversion writes uhat over
    # omega and stays below that (1.70).  uhat made beside omega, the
    # samples beside the spectrum and the reference grid's |k|^2 kept beside
    # the weight gave 2.48; the potential e ghat beside its curl, and the
    # build grid's tables beside the samples, 2.79; the whole gap spectrum
    # 3.08, and a reference held as both samples and spectrum next to a
    # whole extended vector 5.5
    cfg = parse_config(inversion_data(beta=4))
    unit = 3 * cfg.beta_n**3 * 8
    peak = traced_peak(lambda: run_study(cfg))
    assert cfg.beta_n == 64
    assert peak <= 2.05 * unit


def test_measurements_keep_no_samples_on_their_input():
    # a study keeps its reference and box states as spectra; what it
    # measures on them must not leave their samples cached there
    cfg = parse_config(solution_data(beta=4))
    grid = next(g for _, g in _box_grids(cfg))
    u = _initial_velocity(cfg, grid)
    ref = _initial_velocity(cfg, BoxGrid(cfg.beta, cfg.beta_n))
    radii = [0.25, 0.5]
    want = [tail_mass(Field.from_spectral(grid, u.spectral), r) for r in radii]
    assert _tail_masses(u, radii) == want
    measure_constants([u, ref])
    _gap_norms(u, ref, [1.0])
    assert u._physical is None and ref._physical is None


def test_gap_norms_are_the_norms_of_the_whole_gap():
    # the gap is made and summed one component at a time; its norms are
    # those of the gap held whole, bit for bit
    cfg = parse_config(solution_data(beta=4))
    grid = next(g for _, g in _box_grids(cfg))
    u = _initial_velocity(cfg, grid)
    ref = _initial_velocity(cfg, BoxGrid(cfg.beta, cfg.beta_n))
    gap = extend_field(u, ref.grid).physical - ref.physical
    gap = Field.from_physical(ref.grid, gap)
    ksq = ref.grid.ksq
    got = _gap_norms(u, ref, [1.0, 1.0 + ksq, (1.0 + ksq) ** 1.5])
    want = [l2_norm(gap), sobolev_norm(gap, 1.0), sobolev_norm(gap, 1.5)]
    assert min(want) > 0.0
    assert got == want


def test_gap_norms_of_zero_data_are_zero():
    cfg = parse_config(solution_data(beta=4, initial_data=ZERO_DATA))
    grid = next(g for _, g in _box_grids(cfg))
    u = _initial_velocity(cfg, grid)
    ref = _initial_velocity(cfg, BoxGrid(cfg.beta, cfg.beta_n))
    ksq = ref.grid.ksq
    got = _gap_norms(u, ref, [1.0, 1.0 + ksq, (1.0 + ksq) ** 1.5])
    assert got == [0.0] * 3


def test_inversion_transforms_the_first_box_once(monkeypatch):
    # the constants and the gap to the reference read one set of samples,
    # so the gap adds no inverse transform on the first box's lattice
    cfg = parse_config(inversion_data())
    grid = next(g for _, g in _box_grids(cfg))
    calls = []
    inverse = spectral_core._irfftn
    monkeypatch.setattr(
        spectral_core, "_irfftn", lambda a, n: calls.append(n) or inverse(a, n)
    )
    measure_constants([_initial_velocity(cfg, grid)])
    alone = calls.count(grid.N)
    calls.clear()
    run_study(cfg)
    assert calls.count(grid.N) == alone > 0


def test_inversion_zero_data_gives_zero_errors():
    cfg = parse_config(inversion_data(initial_data=ZERO_DATA))
    res = run_study(cfg)
    for row in res.rows:
        assert row["err_L2"] == 0.0
        assert row["err_H1"] == 0.0
        assert row["omega_norm"] == 0.0
    assert res.passed  # degenerate comparisons pass vacuously


# -------------------------------------------------------------- solution


@pytest.fixture(scope="module")
def solution_result():
    cfg = parse_config(solution_data())
    return cfg, run_study(cfg)


def test_solution_errors_decrease_with_alpha(solution_result):
    _, res = solution_result
    assert res.passed
    assert not res.extras["aborted"]
    a, b = res.rows
    assert b["err_L2T_H1"] < a["err_L2T_H1"]
    assert b["err_L4T_H1.5"] < a["err_L4T_H1.5"]
    for row in res.rows:
        assert row["blown_up"] == 0
        assert math.isfinite(row["err_L4T_H1.5"])


def test_solution_time_table(solution_result):
    cfg, res = solution_result
    assert res.time_columns == ("alpha", "t", "err_L2", "err_H1")
    for alpha in cfg.alphas:
        times = [r["t"] for r in res.time_rows if r["alpha"] == alpha]
        assert times[0] == 0.0
        assert times[-1] == pytest.approx(0.02)
        assert times == sorted(times)


def test_solution_tail_columns_small_and_ordered(solution_result):
    _, res = solution_result
    for row in res.rows:
        # Mass beyond 0.75*alpha_min is a subset of mass beyond 0.5*alpha_min.
        assert 0 <= row["tail_sup_R2"] <= row["tail_sup_R1"]
        assert row["tail_sup_R1"] < 1e-2


def test_solution_t0_rows_match_the_inversion_study(solution_result):
    # at t = 0 the solution study compares the same extended data against
    # the same reference as the inversion study does
    cfg, res = solution_result
    data = solution_data(kind="inversion")
    del data["solver"]
    inversion = run_study(parse_config(data))
    t0_rows = [r for r in res.time_rows if r["t"] == 0.0]
    assert [r["alpha"] for r in t0_rows] == [r["alpha"] for r in inversion.rows]
    assert len(t0_rows) == len(cfg.alphas)
    for got, want in zip(t0_rows, inversion.rows):
        for column in ("err_L2", "err_H1"):
            assert want[column] > 0.0
            assert got[column] == pytest.approx(want[column], rel=1e-12, abs=0.0)


def test_solution_horizon_is_reproducible_from_its_report(solution_result):
    # the reported constants are the maximum over the reference trajectory;
    # the horizon uses the t = 0 probe, which the report records separately
    cfg, res = solution_result
    c = res.extras["c_agmon_horizon"]
    grids = [grid for _, grid in _box_grids(cfg)] + [BoxGrid(cfg.beta, cfg.beta_n)]
    horizons = [
        existence_time(_initial_velocity(cfg, grid), c).t_guaranteed
        for grid in grids
    ]
    assert math.isfinite(res.extras["t_guaranteed_min"])
    assert min(horizons) == res.extras["t_guaranteed_min"]


def test_solution_study_stores_no_trajectory():
    # the reference and the box march in lockstep, so the traced peak, in
    # units of one reference state, is that of one solve (7.9); a stored
    # reference trajectory of 7 snapshots took it to 12.7
    cfg = parse_config(
        solution_data(
            alphas=[1],
            beta=2,
            solver={"dt": 2e-3, "t_end": 0.012, "snapshot_every": 1},
        )
    )
    unit = 3 * cfg.beta_n**2 * (cfg.beta_n // 2 + 1) * 16
    peak = traced_peak(lambda: run_study(cfg))
    assert cfg.beta_n == 32
    assert peak <= 9.0 * unit


def test_solution_study_transforms_each_reference_snapshot_once(monkeypatch):
    # the ratios and every box's gap read one set of reference samples, so
    # a box adds no inverse transform on the reference lattice (a box that
    # transformed the reference itself would add three per snapshot)
    calls = []
    inverse = spectral_core._irfftn
    monkeypatch.setattr(
        spectral_core, "_irfftn", lambda a, n: calls.append(n) or inverse(a, n)
    )
    counts = []
    for alphas in ([1], [1, 2]):
        cfg = parse_config(solution_data(alphas=alphas, beta=4))
        calls.clear()
        run_study(cfg)
        counts.append(calls.count(cfg.beta_n))
    assert counts[0] == counts[1] > 0


def test_transfer_study_reads_only_audit_records():
    # every run keeps running maxima over its audit records and drops each
    # state it is handed, so the traced peak, in units of one reference
    # state, is that of one march (5.75); holding each state until the next
    # step took it to 6.19, collecting each run's t = 0 and final states to
    # 6.76
    cfg = parse_config(transfer_data())
    unit = 3 * cfg.beta_n**2 * (cfg.beta_n // 2 + 1) * 16
    peak = traced_peak(lambda: run_study(cfg))
    assert cfg.beta_n == 32
    assert peak <= 6.0 * unit


def test_a_failed_box_ends_only_its_own_row():
    # 0.5 h / max|u| of the truncated data is 0.01060 on Q_1, 0.01106 on
    # Q_2 and 0.01083 on the Q_4 reference: dt = 0.0107 fails Q_1 alone,
    # at its first step, while Q_2 keeps marching next to the reference
    data = solution_data(
        beta=4,
        initial_data={"family": "bump", "support_radius": 0.5,
                      "amplitude": 10.0, "direction": [0, 0, 1]},
        solver={"dt": 0.0107, "t_end": 0.0214, "snapshot_every": 1},
    )
    res = run_study(parse_config(data))
    checks = {c.name: c for c in res.checks}
    failed = checks["no_blowup_alpha_1"]
    assert not failed.passed and math.isnan(failed.measured)
    assert "advective CFL violated" in failed.note
    assert "no_blowup_alpha_2" not in checks
    assert "no_blowup_reference" not in checks
    one, two = res.rows
    assert one["blown_up"] == 1 and math.isnan(one["err_L2T_H1"])
    assert two["alpha"] == 2.0 and two["blown_up"] == 0
    assert all(math.isfinite(two[c]) for c in res.columns)
    assert [r["t"] for r in res.time_rows] == [0.0, 0.0107, 0.0214]
    assert {r["alpha"] for r in res.time_rows} == {2.0}
    assert not res.extras["aborted"]


def test_a_failed_march_keeps_no_arrays():
    # the guard stores the failure without its traceback, whose frames would
    # keep the run's spectra and step kernel (0.76 units of one state here)
    cfg = parse_config(transfer_data())
    u0 = experiments._initial_velocity(cfg, BoxGrid(cfg.beta, cfg.beta_n))
    unit = 3 * cfg.beta_n**2 * (cfg.beta_n // 2 + 1) * 16
    failed, steps, held = {}, [], []
    u0.grid.ksq  # the grid's own table, built outside the window

    def march():
        run = nse_march(u0, SolverConfig(dt=1.0, t_end=2.0))
        steps.extend(experiments._until_failure("run", run, failed))
        held.append(tracemalloc.get_traced_memory()[0])

    traced_peak(march)
    assert len(steps) == 1 and isinstance(failed["run"], StepSizeError)
    assert held[0] <= 0.1 * unit


def test_solution_beyond_horizon_needs_flag():
    data = solution_data(
        alphas=[1],
        initial_data={"family": "bump", "support_radius": 0.5, "amplitude": 100.0},
        solver={"dt": 5e-4, "t_end": 1e-3},
    )
    cfg = parse_config(data)
    with pytest.raises(ConfigurationError, match="guaranteed"):
        run_study(cfg)
    data["allow_beyond_guaranteed"] = True
    cfg = parse_config(data)
    with pytest.warns(UserWarning, match="beyond the guaranteed horizon") as caught:
        res = run_study(cfg)
    assert res.extras["t_end"] > res.extras["t_guaranteed_min"]
    assert [w.filename for w in caught] == [__file__]  # names the caller


def test_solution_reference_blowup_is_a_recorded_abort():
    data = solution_data(
        alphas=[1],
        initial_data={"family": "bump", "support_radius": 0.5, "amplitude": 4e4},
        solver={"dt": 1e-6, "t_end": 3e-6},
        allow_beyond_guaranteed=True,
    )
    cfg = parse_config(data)
    with pytest.warns(UserWarning):
        res = run_study(cfg)
    assert res.extras["aborted"]
    assert res.rows == []
    check = {c.name: c for c in res.checks}["no_blowup_reference"]
    assert not check.passed
    assert not res.passed


# -------------------------------------------------------------- tail


@pytest.fixture(scope="module")
def tail_result():
    cfg = parse_config(tail_data())
    return cfg, run_study(cfg)


def test_tail_margins_nonnegative(tail_result):
    cfg, res = tail_result
    assert res.passed
    assert res.columns == ("alpha", "t", "R", "lhs", "rhs", "margin")
    for row in res.rows:
        assert row["margin"] >= 0.0
        assert row["rhs"] == pytest.approx(row["lhs"] + row["margin"])
    # Every snapshot time and every radius shows up.
    times = sorted({row["t"] for row in res.rows})
    assert times[0] == 0.0 and times[-1] == pytest.approx(0.01)
    assert sorted({row["R"] for row in res.rows}) == list(cfg.tail_radii)


def test_tail_gamma_positive(tail_result):
    _, res = tail_result
    gamma = res.extras["gamma"]["4"]
    assert 0 < gamma < 1


def test_tail_margin_grows_with_radius_at_small_amplitude():
    # The far-field velocity decays faster than 1/(R - r), so once the
    # quadratic tail term dominates the cubic Gamma term the bound's slack
    # widens with R.  Small amplitude puts the run in that regime.
    data = tail_data(
        initial_data={
            "family": "bump",
            "support_radius": 1.0,
            "amplitude": 0.02,
        }
    )
    res = run_study(parse_config(data))
    assert res.passed
    for t in {row["t"] for row in res.rows}:
        margins = [r["margin"] for r in sorted(
            (r for r in res.rows if r["t"] == t), key=lambda r: r["R"]
        )]
        assert margins == sorted(margins)
        assert margins[0] < margins[-1]


def test_tail_zero_data_is_vacuously_tight():
    cfg = parse_config(tail_data(initial_data=ZERO_DATA))
    res = run_study(cfg)
    assert res.passed
    assert res.extras["gamma"]["4"] == 0.0
    for row in res.rows:
        assert row["lhs"] == 0.0
        assert row["rhs"] == 0.0
        assert row["margin"] == 0.0


def test_a_failed_tail_box_leaves_the_larger_boxes_running(monkeypatch):
    march = experiments.nse_march

    def blows_up_on_q3(u0, scfg):
        steps = march(u0, scfg)
        yield next(steps)
        if u0.grid.alpha == 3.0:
            raise BlowUpError("staged blow-up after t=0.0", last_valid_time=0.0)
        yield from steps

    monkeypatch.setattr(experiments, "nse_march", blows_up_on_q3)
    data = tail_data(
        alphas=[3, 4],
        base_n=24,
        solver={"dt": 4e-3, "t_end": 0.012, "snapshot_every": 2},
        tail={"inner_radius": 1.5, "radii": [1.75, 2.0]},
    )
    res = run_study(parse_config(data))
    checks = {c.name: c for c in res.checks}
    assert not checks["no_blowup_alpha_3"].passed
    assert checks["no_blowup_alpha_3"].measured == 0.0
    assert checks["tail_bound_margin_nonnegative"].passed
    assert list(res.extras["gamma"]) == ["4"]
    assert {r["alpha"] for r in res.rows} == {4.0}
    assert sorted({r["t"] for r in res.rows}) == pytest.approx([0.0, 0.008, 0.012])


# -------------------------------------------------------------- transfer


@pytest.fixture(scope="module")
def transfer_result():
    cfg = parse_config(transfer_data())
    return cfg, run_study(cfg)


def test_transfer_finds_alpha_star(transfer_result):
    cfg, res = transfer_result
    assert res.passed
    assert res.extras["alpha_star"] == 1.0
    assert res.extras["t_star"] == pytest.approx(res.extras["t_guaranteed"])
    assert res.extras["m_bound"] > 0
    names = {c.name: c for c in res.checks}
    assert names["reference_within_bound"].passed
    assert names["alpha_star_found"].passed


def test_transfer_rows_within_double_bound(transfer_result):
    cfg, res = transfer_result
    sweep = [r for r in res.rows if not r["is_reference"]]
    assert [r["alpha"] for r in sweep] == [1.0]
    for row in sweep:
        assert row["within_2m"] == 1
        assert row["blown_up"] == 0
        assert row["sup_h1_sq"] <= 2.0 * res.extras["m_bound"]
    ref = res.rows[-1]
    assert ref["is_reference"] == 1
    assert ref["alpha"] == cfg.beta
    assert ref["sup_h1_sq"] <= res.extras["m_bound"] * (1 + 1e-9)


def test_a_failed_transfer_box_gets_a_blown_up_row():
    # dt = 0.0107 breaks the CFL bound on Q_1 alone, at its first step (see
    # test_a_failed_box_ends_only_its_own_row): its row is blown up with NaN
    # sups and no check of its own, and alpha* comes from Q_2
    data = transfer_data(
        alphas=[1, 2],
        beta=4,
        initial_data={"family": "bump", "support_radius": 0.5,
                      "amplitude": 10.0, "direction": [0, 0, 1]},
        solver={"dt": 0.0107},
        transfer={"t_star_factor": 1.0},
    )
    res = run_study(parse_config(data))
    one, two, ref = res.rows
    assert (one["alpha"], one["blown_up"], one["within_2m"]) == (1.0, 1, 0)
    assert math.isnan(one["sup_enstrophy"]) and math.isnan(one["sup_h1_sq"])
    assert (two["alpha"], two["blown_up"], two["within_2m"]) == (2.0, 0, 1)
    assert math.isfinite(two["sup_h1_sq"])
    assert (ref["is_reference"], ref["blown_up"], ref["within_2m"]) == (1, 0, 1)
    assert res.extras["alpha_star"] == 2.0
    names = [c.name for c in res.checks]
    assert names == ["reference_within_bound", "alpha_star_found"]
    assert res.passed


def test_transfer_rejects_zero_data():
    data = transfer_data(initial_data=ZERO_DATA)
    with pytest.raises(ConfigurationError, match="nonzero"):
        run_study(parse_config(data))


# -------------------------------------------------------------- audit


def test_snapshot_audit_zero_data_is_vacuous():
    cfg = parse_config(tiny_inversion_data(initial_data=ZERO_DATA))
    res = run_snapshot_audit(cfg)
    assert res.passed
    assert res.rows[0]["degenerate"] == 1


def test_snapshot_audit_reports_ratios():
    cfg = parse_config(inversion_data())
    res = run_snapshot_audit(cfg)
    assert res.passed
    for row in res.rows:
        assert row["degenerate"] == 0
        assert 0 < row["agmon_ratio"] < 10
        assert 0 < row["l6_ratio"] < 10
        assert row["curl_rel_diff"] <= 1e-10


@pytest.mark.parametrize("amplitude", [1.0, 0.0], ids=["bump", "zero"])
def test_snapshot_audit_constants_equal_measure_constants(amplitude):
    cfg = parse_config(bump_data(amplitude=amplitude))
    fields = [_initial_velocity(cfg, grid) for _, grid in _box_grids(cfg)]
    np.testing.assert_equal(run_snapshot_audit(cfg).constants, measure_constants(fields))


# -------------------------------------------------------------- reports


def test_emit_report_writes_tables_and_metadata(tmp_path):
    cfg = parse_config(tiny_inversion_data())
    res = run_study(cfg)
    paths = emit_report(res, tmp_path / "out")
    names = {p.name for p in paths}
    assert names == {"inversion.csv", "checks.csv", "metadata.json"}
    table = (tmp_path / "out" / "inversion.csv").read_text().splitlines()
    assert table[0] == "alpha,err_L2,err_H1,grad_norm,omega_norm"
    assert len(table) == 2
    meta = json.loads((tmp_path / "out" / "metadata.json").read_text())
    assert meta["study"] == "inversion"
    assert meta["passed"] is True
    # The echoed config parses back to the exact same study.
    assert parse_config(meta["config"]) == cfg


def test_emit_report_includes_time_table_for_solution(tmp_path):
    cfg = parse_config(
        solution_data(alphas=[1], solver={"dt": 5e-3, "t_end": 0.01})
    )
    res = run_study(cfg)
    paths = emit_report(res, tmp_path)
    assert {p.name for p in paths} == {
        "solution.csv",
        "solution_times.csv",
        "checks.csv",
        "metadata.json",
    }


def test_reports_are_byte_deterministic(tmp_path):
    cfg = parse_config(tiny_inversion_data())
    emit_report(run_study(cfg), tmp_path / "a")
    emit_report(run_study(cfg), tmp_path / "b")
    for name in ("inversion.csv", "checks.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_report_files_are_written_atomically(tmp_path, monkeypatch):
    res = run_study(parse_config(tiny_inversion_data()))
    out = tmp_path / "out"
    paths = emit_report(res, out)
    # no temporary file is left behind
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in paths)
    # the table bytes are those of a csv.writer streaming into the file
    plain = io.StringIO()
    writer = csv.writer(plain, lineterminator="\n")
    writer.writerow(res.columns)
    for row in res.rows:
        writer.writerow([_format_cell(row[c]) for c in res.columns])
    assert (out / "inversion.csv").read_bytes() == plain.getvalue().encode()
    # a write that fails before its rename keeps the previous file
    before = {p.name: p.read_bytes() for p in paths}

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    res.rows[0]["grad_norm"] = -1.0
    with pytest.raises(OSError, match="disk full"):
        emit_report(res, out)
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


@pytest.fixture
def restore_workers():
    before = spectral_core._workers
    yield
    set_default_workers(before)


def test_fft_worker_count_leaves_report_bytes_unchanged(tmp_path, restore_workers):
    # every runner; the benchmark runs the transfer study at two
    studies = {
        "inversion": (run_study, tiny_inversion_data()),
        "audit": (run_snapshot_audit, tiny_inversion_data()),
        "solution": (run_study, solution_data(solver={"dt": 5e-3, "t_end": 0.01})),
        "tail": (run_study, tail_data()),
        "transfer": (run_study, transfer_data()),
    }
    for kind, (run, data) in studies.items():
        cfg = parse_config(data)
        for workers in (1, 2):
            set_default_workers(workers)
            assert spectral_core._workers == workers
            emit_report(run(cfg), tmp_path / kind / f"w{workers}")
        tables = sorted((tmp_path / kind / "w1").glob("*.csv"))
        assert len(tables) >= 2
        for path in tables:
            assert path.read_bytes() == (
                tmp_path / kind / "w2" / path.name
            ).read_bytes()


def test_worker_count_below_one_is_rejected(restore_workers):
    set_default_workers(2)
    for bad in (0, -1):
        with pytest.raises(ConfigurationError, match="worker count"):
            set_default_workers(bad)
    assert spectral_core._workers == 2


def test_worker_count_that_is_not_an_int_is_rejected(restore_workers):
    # no rounding, no bool or string, and nan and inf raise the same error
    set_default_workers(2)
    for bad in (2.5, 1.0, True, "2", float("nan"), float("inf")):
        with pytest.raises(ConfigurationError, match="worker count"):
            set_default_workers(bad)
    assert spectral_core._workers == 2


# -------------------------------------------------------------- CLI


def write_config(tmp_path, data, name="study.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def test_cli_inversion_passes(tmp_path, capsys):
    path = write_config(tmp_path, tiny_inversion_data())
    code = cli_main(["inversion", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 0
    out = capsys.readouterr().out
    assert "PASS curl_identity_per_row" in out
    assert "report:" in out
    assert (tmp_path / "out" / "inversion.csv").exists()


def test_cli_out_dir_from_config(tmp_path):
    data = tiny_inversion_data(out_dir=str(tmp_path / "from_config"))
    path = write_config(tmp_path, data)
    assert cli_main(["inversion", "--config", str(path)]) == 0
    assert (tmp_path / "from_config" / "inversion.csv").exists()


def test_cli_missing_out_dir_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, tiny_inversion_data())
    assert cli_main(["inversion", "--config", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_kind_mismatch_is_config_error(tmp_path):
    path = write_config(tmp_path, tiny_inversion_data())
    code = cli_main(["solution", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2


def test_cli_unknown_key_is_config_error(tmp_path):
    path = write_config(tmp_path, tiny_inversion_data(bogus=1))
    code = cli_main(["inversion", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 2


@pytest.mark.parametrize(
    "text, match",
    [
        (b'{"kind": "inversion\xff"}', "cannot read config file"),
        (b"[" * 100000, "is not valid JSON"),
    ],
    ids=["not-utf8", "nested-too-deeply"],
)
def test_cli_undecodable_config_is_config_error(tmp_path, capsys, text, match):
    path = tmp_path / "study.json"
    path.write_bytes(text)
    out = tmp_path / "o"
    assert cli_main(["inversion", "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:")
    assert match in err
    assert not out.exists()


def test_cli_threads_below_one_is_config_error(tmp_path, capsys, restore_workers):
    path = write_config(tmp_path, tiny_inversion_data())
    out = tmp_path / "o"
    args = ["inversion", "--config", str(path), "--out", str(out), "--threads", "0"]
    assert cli_main(args) == 2
    assert "worker count must be >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_cli_zero_trefoil_resolution_is_config_error(tmp_path, capsys):
    path = write_config(tmp_path, trefoil_data(resolution=0))
    out = tmp_path / "o"
    assert cli_main(["inversion", "--config", str(path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")
    assert not out.exists()


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_cli_failed_study_exits_one(tmp_path, capsys):
    data = solution_data(
        alphas=[1],
        initial_data={"family": "bump", "support_radius": 0.5, "amplitude": 4e4},
        solver={"dt": 1e-6, "t_end": 3e-6},
        allow_beyond_guaranteed=True,
    )
    path = write_config(tmp_path, data)
    code = cli_main(["solution", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAIL no_blowup_reference" in capsys.readouterr().out


# A step far above the advective CFL ceiling fails on the first box the
# study marches (the reference box where there is one).
@pytest.mark.filterwarnings("ignore::UserWarning")
@pytest.mark.parametrize(
    "data, check",
    [
        (solution_data(alphas=[1],
                       initial_data={"family": "bump", "support_radius": 0.5,
                                     "amplitude": 10.0},
                       solver={"dt": 2e-2, "t_end": 4e-2},
                       allow_beyond_guaranteed=True), "no_blowup_reference"),
        (tail_data(base_n=32,
                   initial_data={"family": "bump", "support_radius": 1.0,
                                 "amplitude": 10.0},
                   solver={"dt": 5e-2, "t_end": 0.1}), "no_blowup_alpha_4"),
        (transfer_data(alphas=[1, 2], beta=4, solver={"dt": 2e-2},
                       transfer={"t_star_factor": 3.0}), "reference_completes"),
    ],
    ids=["solution", "tail", "transfer"],
)
def test_cfl_violation_is_a_failed_check_with_a_report(tmp_path, capsys, data, check):
    path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert cli_main([data["kind"], "--config", str(path), "--out", str(out)]) == 1
    assert f"FAIL {check}" in capsys.readouterr().out
    assert (out / f"{data['kind']}.csv").exists()
    assert json.loads((out / "metadata.json").read_text())["passed"] is False
    lines = (out / "checks.csv").read_text().splitlines()
    record = next(line for line in lines if line.startswith(check + ","))
    assert record.startswith(f"{check},0,nan,")
    assert "advective CFL violated" in record


def test_tail_margin_check_fails_when_no_snapshot_is_measured():
    # the only box fails CFL, so there is no margin to report
    data = tail_data(base_n=32,
                     initial_data={"family": "bump", "support_radius": 1.0,
                                   "amplitude": 10.0},
                     solver={"dt": 5e-2, "t_end": 0.1})
    res = run_study(parse_config(data))
    assert res.rows == []
    record = next(
        c for c in res.checks if c.name == "tail_bound_margin_nonnegative"
    )
    assert not record.passed
    assert math.isnan(record.measured)
    assert record.note == "no snapshot measured"


@pytest.mark.parametrize("command", ["inversion", "audit"])
def test_cli_invalid_vorticity_is_config_error(tmp_path, capsys, command):
    # a trefoil too coarse for the strict divergence tolerance
    data = inversion_data(
        alphas=[2],
        base_n=32,
        initial_data={"family": "trefoil", "major_radius": 0.6,
                      "tube_radius": 0.12, "strength": 1.0, "resolution": 256},
    )
    path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert cli_main([command, "--config", str(path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: trefoil initial data")
    assert "not divergence-free" in err
    box = "alpha=2 box" if command == "audit" else "alpha=4 box"  # Q_beta first
    assert box in err
    assert not out.exists()


def test_cli_audit_accepts_any_kind(tmp_path):
    path = write_config(tmp_path, tiny_inversion_data(initial_data=ZERO_DATA))
    code = cli_main(["audit", "--config", str(path), "--out", str(tmp_path / "o")])
    assert code == 0
    assert (tmp_path / "o" / "audit.csv").exists()


def test_cli_audit_runs_trefoil_that_fits_the_config_margin(tmp_path):
    # support 1.5*0.3 + 3*0.16 = 0.93 is within min alpha - 2h = 0.9375, so
    # the config's margin is the only one the data must keep
    data = inversion_data(
        alphas=[1],
        base_n=64,
        initial_data={"family": "trefoil", "major_radius": 0.3,
                      "tube_radius": 0.16, "strength": 1.0,
                      "div_tol": 1e-4, "support_tol": 1e-4},
    )
    path = write_config(tmp_path, data)
    out = tmp_path / "o"
    assert cli_main(["audit", "--config", str(path), "--out", str(out)]) == 0
    assert (out / "audit.csv").exists()


def test_cli_transfer_on_two_threads_exits_promptly(tmp_path):
    # the pool's idle threads must not hold the interpreter at exit
    path = write_config(tmp_path, transfer_data())
    proc = subprocess.run(
        [sys.executable, "-m", "boxflow.cli", "transfer", "--config", str(path),
         "--out", str(tmp_path / "out"), "--threads", "2"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "report:" in proc.stdout


def test_cli_module_entry_point(tmp_path):
    path = write_config(tmp_path, tiny_inversion_data())
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "boxflow.cli",
            "inversion",
            "--config",
            str(path),
            "--out",
            str(tmp_path / "out"),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "report:" in proc.stdout
