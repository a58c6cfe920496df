"""The correctness gate counts a wrong result as a failed operation.

The wrong results are injected into the benchmark's own call path (a tracer
that alters what the program returned), never into the program.
"""

import dataclasses
import json
import shutil
from pathlib import Path

import pytest

import checks
import workloads
from checks import Gate, check_mc
from tracing import NullTracer
from worker import Context, Results, run_cycles

ROOT = Path(__file__).resolve().parents[2]


class Tamper(NullTracer):
    """Calls the program, then passes its result through ``alter``."""

    def __init__(self, alter):
        self.alter = alter

    def call(self, layer, name, fn, *args, **kwargs):
        return self.alter(name, fn(*args, **kwargs))


@pytest.fixture
def workdir():
    path = Path(__file__).resolve().parents[1] / "out" / "test-gate"
    path.mkdir(parents=True, exist_ok=True)
    yield str(path.relative_to(ROOT))
    shutil.rmtree(path, ignore_errors=True)


def _run(name, op_name, alter, workdir, cycles=1):
    ops = workloads.build(name, 7, Context(ROOT, workdir, NullTracer()))
    ops = [op for op in ops if op.name == op_name][:1]
    results = Results()
    run_cycles(ops, Context(ROOT, workdir, Tamper(alter)), results, cycles)
    return results


def test_correct_dp_passes(workdir):
    results = _run("dp-ladder", "dp-100x100", lambda name, out: out, workdir, cycles=2)
    assert (results.attempted, results.failed) == (2, 0)


@pytest.mark.parametrize(
    "offset, message",
    [
        pytest.param(0.02, "is not within", id="off-by-2-percent-of-r"),
        pytest.param(-1e-9, "below the continuum minimum", id="below-continuum-minimum"),
    ],
)
def test_wrong_dp_value_is_a_failure(workdir, offset, message):
    def alter(name, out):
        value, profile = out
        r, H = profile.breakpoints[-1]
        return checks.restricted_min(r, H) + offset * r, profile

    results = _run("dp-ladder", "dp-100x100", alter, workdir)
    assert (results.attempted, results.failed) == (1, 1)
    assert results.layer_failures["oracle"] >= 1
    assert any(message in m for m in results.messages)


def test_argmin_profile_must_match_the_value(workdir):
    def alter(name, out):
        value, profile = out
        return value * (1.0 + 1e-9), profile

    results = _run("dp-ladder", "dp-200x200", alter, workdir)
    assert results.failed == 1
    assert any("argmin profile drag" in m for m in results.messages)


def test_output_that_changes_between_cycles_is_a_failure(workdir):
    calls = []

    def alter(name, out):
        calls.append(name)
        if len(calls) == 2:
            return dataclasses.replace(out, reintersections=out.reintersections[:-1])
        return out

    results = _run("oracle-mix", "collision_sawtooth", alter, workdir, cycles=2)
    assert (results.attempted, results.failed) == (2, 1)
    assert any("differs from the first cycle" in m for m in results.messages)


def test_certificate_failure_on_a_family_member(workdir):
    def alter(name, out):
        if name == "extremal.check_certificate":
            return dataclasses.replace(out, passed=False)
        return out

    results = _run("oracle-mix", "family", alter, workdir)
    assert results.failed == 1
    assert results.layer_failures["extremal"] == 100


def test_mc_estimate_beyond_four_standard_errors():
    gate = Gate()
    check_mc(gate, estimate=0.8 + 4.1e-3, std_error=1e-3, expected=0.8)
    assert not gate.ok
    gate = Gate()
    check_mc(gate, estimate=0.8 + 3.9e-3, std_error=1e-3, expected=0.8)
    assert gate.ok


def test_exception_in_a_layer_is_a_failure(workdir):
    def alter(name, out):
        raise ValueError("injected")

    results = _run("oracle-mix", "perturb-0.4", alter, workdir)
    assert results.failed == 1
    assert results.messages == ["perturb-0.4: ValueError: injected"]


class CannedCli(Context):
    """Answers every CLI command with the same exit code and stdout."""

    def __init__(self, root, workdir, stdout):
        super().__init__(root, workdir, NullTracer())
        self.stdout = stdout

    def cli(self, argv, kind, out_path=None):
        return 0, self.stdout, b""


@pytest.mark.parametrize(
    "op_name, payload, error",
    [
        pytest.param(
            "solve-InfiniteFamily-0.4",
            {"status": "InfiniteFamily", "resistance": 1.0, "profiles": [{}, {}]},
            "KeyError",
            id="profile-without-breakpoints",
        ),
        pytest.param(
            "verify-unrestricted",
            {"pass": True, "checks": [{}, {}]},
            "ValueError",
            id="two-checks-instead-of-one",
        ),
    ],
)
def test_malformed_cli_payload_is_a_failure(workdir, op_name, payload, error):
    ops = workloads.build("cli-session", 7, Context(ROOT, workdir, NullTracer()))
    ops = [op for op in ops if op.name == op_name]
    assert len(ops) == 1
    results = Results()
    run_cycles(ops, CannedCli(ROOT, workdir, json.dumps(payload).encode()), results, 1)
    assert (results.attempted, results.failed) == (1, 1)
    assert set(results.layer_failures) == {"cli"}
    assert any(m.startswith(f"{op_name}: {error}") for m in results.messages)
