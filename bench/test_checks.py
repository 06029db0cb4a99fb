"""Tests of the benchmark's report checkers.

Run from the root of a checkout: python3 -m pytest -q bench/test_checks.py

Every checker must accept the reports the program gives today on the
benchmark's own inputs, except the psi fault experiments, and must reject
a report with one corrupted field.
"""

import copy
import json
import os
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from coordproj import cli  # noqa: E402


def run_cli(argv, out_dir, name):
    out = os.path.join(out_dir, name + ".json")
    assert cli.main(list(argv) + ["--deterministic", "--output", out]) == 0
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def reports(tmp_path_factory):
    """Every experiment of every workload at seed 1, run once: name -> (experiment, report)."""
    out = {}
    for workload in workloads.WORKLOADS:
        work = str(tmp_path_factory.mktemp(workload))
        for e in workloads.build(workload, 1, work):
            out[e.name] = (e, run_cli(e.argv, work, e.name))
    return out


def rejects(experiment, report):
    with pytest.raises(checks.CheckFailed):
        experiment.check(report, experiment.data)


def test_accepts_todays_reports(reports):
    for experiment, report in reports.values():
        if experiment.known_fault is None:
            experiment.check(report, experiment.data)


def test_known_faults_are_only_psi_spikes(reports):
    faulty = sorted(name for name, (e, _) in reports.items() if e.known_fault)
    assert faulty == ["psi-fault-1024", "psi-fault-2"]


def test_psi_accepts_well_scaled_spikes_and_rejects_1e6_off(tmp_path):
    data = np.zeros((3, 64))
    data[:, 5] = [1.0, 3.5, -0.25]
    argv = ["psi", "--input", workloads.write_csv(str(tmp_path / "s.csv"), data)]
    report = run_cli(argv, str(tmp_path), "psi")
    checks.check_psi(report, data)
    bad = copy.deepcopy(report)
    bad["results"]["rows"][1]["psi"] *= 1.0 + 1e-6
    with pytest.raises(checks.CheckFailed):
        checks.check_psi(bad, data)


@pytest.mark.parametrize("peak,value", [(1e-300, 5.0e-298), (5e307, float("inf"))])
def test_psi_rejects_the_spike_values_seen_today(peak, value):
    data = np.array([[peak, 0.0]])
    report = {"results": {"p": 2.0, "rows": [{"psi": value}]}}
    with pytest.raises(checks.CheckFailed):
        checks.check_psi(report, data)


def test_psi_closed_form_matches_the_documented_value():
    assert checks.spike_psi(1e-300, 2) == pytest.approx(8.19e-301, rel=1e-3)


def test_jl_rejects_success_that_contradicts_the_deviation(reports):
    for name in ("jl-basis128-0", "jl-unit1024-1"):
        e, report = reports[name]
        bad = copy.deepcopy(report)
        bad["results"]["success"] = not bad["results"]["success"]
        rejects(e, bad)


def test_jl_rejects_a_ratio_off_by_1e6(reports):
    e, report = reports["jl-basis128-0"]
    bad = copy.deepcopy(report)
    bad["results"]["ratios"][0] *= 1.0 + 1e-6
    bad["results"]["max_deviation"] = max(abs(r - 1.0) for r in bad["results"]["ratios"])
    rejects(e, bad)


def test_project_rejects_a_chernoff_bound_below_the_exact_tail(reports):
    e, report = reports["project-0"]
    bad = copy.deepcopy(report)
    tail = bad["results"]["rows"][0]["tail"]
    tail["chernoff_bound"] = 0.5 * tail["exact_prob"]
    rejects(e, bad)


def test_project_rejects_an_empirical_tail_far_from_the_binomial(reports):
    e, report = reports["project-0"]
    bad = copy.deepcopy(report)
    bad["results"]["rows"][0]["tail"]["empirical_prob"] += 0.01
    rejects(e, bad)


def test_complexity_rejects_a_shifted_rademacher_mean(reports):
    e, report = reports["complexity-0"]
    bad = copy.deepcopy(report)
    rad = bad["results"]["rademacher"]
    rad["mean"] += 6.0 * rad["std_error"]
    rejects(e, bad)


def test_typecmp_rejects_m_emp_off_one(reports):
    e, report = reports["typecmp-0"]
    bad = copy.deepcopy(report)
    bad["results"]["rows"][0]["m_emp"] = 1.0 + 1e-9
    rejects(e, bad)


def test_typecmp_rejects_a_shifted_gaussian_mean(reports):
    e, report = reports["typecmp-0"]
    bad = copy.deepcopy(report)
    bad["results"]["gaussian_mean"] += 6.0 * bad["results"]["gaussian_std_error"]
    rejects(e, bad)


def _flip_first_sign(pattern):
    return ("-" if pattern[0] == "+" else "+") + pattern[1:]


def test_shatter_rejects_one_witness_pattern_flipped(reports):
    e, report = reports["shatter-0"]
    bad = copy.deepcopy(report)
    entry = bad["results"]["witness"]["assignment"][0]
    entry["pattern"] = _flip_first_sign(entry["pattern"])
    rejects(e, bad)


def test_shatter_rejects_a_wrong_dimension(reports):
    e, report = reports["shatter-1"]
    bad = copy.deepcopy(report)
    bad["results"]["dimension"] -= 1
    rejects(e, bad)


def test_entropy_rejects_a_wrong_covering_number(reports):
    e, report = reports["entropy-0"]
    bad = copy.deepcopy(report)
    bad["results"]["rows"][1]["covering"] += 1
    rejects(e, bad)


def test_entropy_rejects_a_vc_that_increases(reports):
    e, report = reports["entropy-0"]
    bad = copy.deepcopy(report)
    bad["results"]["rows"][-1]["vc"] += 1
    rejects(e, bad)


def test_audit_rejects_vc_curve_made_to_increase(reports):
    e, report = reports["audit-0"]
    bad = copy.deepcopy(report)
    bad["results"]["vc_curve"][-1] += 1
    rejects(e, bad)


def test_audit_rejects_a_shifted_integral(reports):
    e, report = reports["audit-1"]
    bad = copy.deepcopy(report)
    bad["results"]["integral"] *= 1.0 + 1e-9
    rejects(e, bad)


def test_hull_rejects_epsilon_star_shifted(reports):
    for name in ("hull-4", "hull-8"):
        e, report = reports[name]
        bad = copy.deepcopy(report)
        bad["results"]["epsilon_star"] += 1e-4
        rejects(e, bad)


def test_hull_rejects_one_witness_pattern_flipped(reports):
    e, report = reports["hull-4"]
    bad = copy.deepcopy(report)
    entry = bad["results"]["hull_witness"]["assignment"][0]
    entry["pattern"] = _flip_first_sign(entry["pattern"])
    rejects(e, bad)


def test_hull_rejects_disagreement(reports):
    e, report = reports["hull-8"]
    bad = copy.deepcopy(report)
    bad["results"]["agreement"] = False
    rejects(e, bad)
