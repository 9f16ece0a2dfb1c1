"""Tests of the benchmark itself: python3 -m pytest perfbench"""

import os
import random
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import harness  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from triderive import (DegreeCapError, DomainError,  # noqa: E402
                       InternalError)


def test_generators_are_deterministic_per_seed():
    def draw(seed):
        rng = random.Random(seed)
        return (workloads.rand_gn(rng, 3, "A", 8, 6, 2),
                workloads.rand_translations(rng, 4, 4, 2),
                workloads.rand_lie(rng, 4, 5, 3))

    assert draw("a") == draw("a")
    assert draw("a") != draw("b")


@pytest.mark.parametrize("name", ["lie-algebra", "automorphism-exp-log"])
def test_round_zero_prints_the_same_per_seed(name):
    first = harness.run_pass(name, 5, rounds=1)
    again = harness.run_pass(name, 5, rounds=1)
    other = harness.run_pass(name, 6, rounds=1)
    assert first.texts and first.digest == again.digest
    assert first.digest != other.digest


def test_self_times_sum_to_no_more_than_wall_time():
    rec = layers.Recorder()
    with layers.installed(rec):
        traced = harness.run_pass("group-decompose", 1, rounds=1,
                                  recorder=rec)
    assert rec.calls["autgroup.decompose"] == traced.attempted
    assert 0 < sum(rec.self_s.values()) <= sum(traced.samples)


def test_wrapping_replaces_every_imported_reference():
    originals = {}
    for _, modname, attr, _ in layers.TARGETS:
        if "." not in attr:
            originals[attr] = getattr(sys.modules[modname], attr)
    rec = layers.Recorder()
    with layers.installed(rec):
        for mod in layers.holder_modules():
            for key, value in vars(mod).items():
                assert all(value is not fn for fn in originals.values()), \
                    f"{mod.__name__}.{key} escaped the wrapping"
        rec.active = True
        workloads.bracket(workloads.LieElem.d(2, 1),
                          workloads.LieElem.basis(2, (1,), 2))
        rec.active = False
    assert rec.calls == {"lie.bracket": 1}
    assert workloads.bracket is originals["bracket"]


def test_failures_are_counted_without_aborting(monkeypatch):
    def build(seed, r, cli):
        return [
            workloads.Op("holds", lambda: 1, lambda x: ("1", workloads.OK)),
            workloads.Op("broken-identity", lambda: 2,
                         lambda x: ("2", workloads.WRONG)),
            workloads.Op("refused", _refuse, lambda x: ("", workloads.OK)),
        ]

    monkeypatch.setitem(workloads.WORKLOADS, "injected",
                        workloads.Workload(build, 3, 1, 2))
    p = harness.run_pass("injected", 0, rounds=2)
    assert (p.attempted, p.failed, p.wrong) == (6, 4, 2)
    assert set(p.failures) == {"broken-identity", "refused"}
    assert p.norm_wall > 0 and len(p.samples) == 2


def _refuse():
    raise DomainError("refused on purpose")


# Known defects that the workloads steer around (DESIGN.md, "Known
# defects").  Strict, so that a fix fails here and the workloads can take
# the inputs back.

@pytest.mark.xfail(raises=InternalError, strict=True)
def test_exp_ad_of_a_long_finite_series():
    u = workloads.parse("lie", "-d1 + 1/3*x1^5*d2 - 3/2*x1*x2^4*d3", n=4)
    v = workloads.parse("lie", "-4/3*d1 + 3*d3", n=4)
    assert not workloads.ad_vanishes(u, v, workloads.EXP_AD_TERMS)
    assert workloads.ad_vanishes(u, v, 30)
    workloads.exp_ad_apply(u, v)


@pytest.mark.xfail(raises=DegreeCapError, strict=True)
def test_action_of_the_rank4_map_over_the_degree_cap():
    sigma = workloads.parse("triaut", "[0,x1^2,x1*x2^2,x3^2;2,1,3,1]")
    g = workloads.decompose(workloads.AutoAction.from_triaut(sigma))
    d1 = workloads.LieElem.d(4, 1)
    assert workloads.act(g, d1) == workloads.conjugate_derivation(sigma, d1)


def test_traced_run_checks_itself(monkeypatch):
    spec = workloads.WORKLOADS["lie-algebra"]
    monkeypatch.setitem(workloads.WORKLOADS, "lie-algebra",
                        spec._replace(trace_rounds=20))
    line = harness.trace("lie-algebra", 3)
    metrics = line["metrics"]
    assert line["correct"] is True
    assert metrics["poly.mul.calls"]["value"] == 0
    assert metrics["lie.bracket.calls"]["value"] > 0
    assert metrics["bench.trace_overhead"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lie-algebra",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert not done.stdout.strip()

