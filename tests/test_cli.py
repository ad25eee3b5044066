"""End-to-end runs of the command-line front end, in process."""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from conftest import decoded_numeral

import birot4
from birot4 import numeric
from birot4.cases import CASE_IDS
from birot4.certificate import MembershipCertificate, numeral
from birot4.cli import _certify_payload, build_parser, main
from birot4.constraints import NORMALIZED_VARS
from birot4.fixtures import CASE7_SYSTEM_TEXT, CERTIFICATE_TARGET_TEXT
from birot4.groebner import (
    IdealPresentation,
    basis_and_certificate,
    buchberger,
    certify_membership,
    staged_buchberger,
)
from birot4.poly import LEX, Polynomial, format_polynomial, parse_polynomial, variables

README = Path(__file__).resolve().parent.parent / "README.md"

# Payload digest of `birot4 certify`: the ideal, its reduced lex basis, the
# p*t^4 certificate and the two verdicts.  The search counters live in the
# manifest (`search`), not in the payload, so a change of the basis search
# alone must not move this pin.  A change of the certificate or of the payload
# format must update it and say so in CHANGES.md.
CERTIFY_PAYLOAD_DIGEST = (
    "sha256:544c87a468563b56c80e28b2ec15dc376046a83bfeae400558bb2f247511e83b")
# The reduced lex basis is fixed by the ideal and the order, so no route change
# may move BASIS_DIGEST.  The certificate document is fixed by the certificate
# finder and the document format (@3: integer cofactors over one denominator,
# as monomial texts and base64 numerals).
# The finder gives the low-degree Macaulay certificate (rows mu*E_i up to
# degree 10, eliminated modulo the first prime of a fixed list, lifted by
# Dixon iteration).  A change of that finder's row order, primes or solution
# rule, or of the format, moves CERTIFICATE_DIGEST and must say so in
# CHANGES.md; a change of the basis search alone must not.  The certificate
# itself is pinned apart from its format in tests/test_certificate.py.
CERTIFICATE_DIGEST = (
    "sha256:d46688a69e343663ba3d5a1af2c709f94fee68f7bbd765043fd48f37f1942600")
BASIS_DIGEST = "390b07d859747985"  # sha256("\n".join(basis))[:16], as perfbench gates it
# Payload digest of `birot4 check-cases` over all seven cases.  The reports are
# the proof's text: a refactor of the checking core must leave this pin alone,
# and a change of any step, witness or case artifact must update it and say so
# in CHANGES.md.  Re-checking the stored certify artifact gives the same payload
# as computing the certificate afresh.
CHECK_CASES_PAYLOAD_DIGEST = (
    "sha256:a4c5936907cce438181d51c9fafe941bcffd362c0744316e6189b6d430f5037a")
# Payload digest of `birot4 simulate --sweep` on its default grid.  The sweep
# table prints every float of every row, so a change of the integrator's
# arithmetic or of a point's stopping rule moves this pin; such a change must
# update it and say so in CHANGES.md.
SIMULATE_SWEEP_PAYLOAD_DIGEST = (
    "sha256:782ac657786a63c374da960ee0b1ced10607413db7ed0f5aa9e0ceb7b0b2f71c")
# Payload digests of `birot4 simulate --preset P` at the default window and
# step.  Each trajectory row prints twelve digits of every sample, so the same
# rule as for the sweep pin holds.
SIMULATE_PRESET_PAYLOAD_DIGESTS = {
    "catenoid": "sha256:b5ab35504e3f615e6a58270876e2d913c869ef01d66e12968113ed142821af0c",
    "cylinder": "sha256:a6464ca056df4ec184e2ef9d7fb3e4949dd085a04a0f239208f7ca325b296031",
}
# Payload digests of `birot4 derive --case C` at the default order: the series,
# the extracted system and the fixture diff of each case.  A change of the
# series solver, the extraction or the diff entries moves these pins; such a
# change must update them and say so in CHANGES.md.
DERIVE_PAYLOAD_DIGESTS = {
    "V": "sha256:c807560fbb6c70f53f34f1953b2839d00998016f8864c45ce79d8ba04cc29a57",
    "VI": "sha256:16e5798610ce73e3667a453072d741a1ffe1604c95318963eeeb973be8e55cc3",
    "VII": "sha256:20dcd22290697902322cdcf03f429806ad4bf05f0069f09dc8e9546f07a0b6e3",
}


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _load(path):
    return json.loads(path.read_text())


def _check_manifest(document, subcommand):
    manifest = document["manifest"]
    assert manifest["format"] == "birot4/run-manifest@1"
    assert manifest["subcommand"] == subcommand
    assert "seeds" not in manifest
    assert manifest["elapsed_seconds"] >= 0.0
    digest = hashlib.sha256(_canonical(document["payload"]).encode()).hexdigest()
    assert manifest["payload_digest"] == f"sha256:{digest}"


def test_derive_full_case(tmp_path, capsys):
    out = tmp_path / "derive.json"
    assert main(["derive", "--case", "VII", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "matches all" in text and "payload digest sha256:" in text
    document = _load(out)
    _check_manifest(document, "derive")
    payload = document["payload"]
    assert payload["format"] == "birot4/derivation@1"
    assert payload["case"] == "VII"
    assert payload["order"] == 10
    assert payload["all_match"] is True
    assert all(d["match"] for d in payload["fixture_diff"])
    assert set(payload["series"]) == {"x", "y", "r", "c"}
    assert payload["series"]["r"]["0"] == "r0"
    assert payload["system"]["format"] == "birot4/constraint-system@1"
    labels = [e["label"] for e in payload["system"]["equations"]]
    assert labels == ["E0", "E2", "E3", "E4", "E5", "E6"]


def test_derive_other_cases(tmp_path):
    assert main(["derive", "--case", "VI", "--order", "8",
                 "--output", str(tmp_path / "vi.json")]) == 0
    assert main(["derive", "--case", "V", "--order", "9",
                 "--output", str(tmp_path / "v.json")]) == 0
    vi = _load(tmp_path / "vi.json")["payload"]
    assert vi["case"] == "VI" and vi["order"] == 8 and vi["all_match"]
    v = _load(tmp_path / "v.json")["payload"]
    labels = [e["label"] for e in v["system"]["equations"]]
    assert labels == ["E1", "E2", "E3", "E4", "E5", "E6"]


def test_derive_is_deterministic(tmp_path):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    assert main(["derive", "--case", "VII", "--output", str(first)]) == 0
    assert main(["derive", "--case", "VII", "--output", str(second)]) == 0
    a, b = _load(first), _load(second)
    assert a["manifest"]["payload_digest"] == b["manifest"]["payload_digest"]
    assert a["payload"] == b["payload"]


def test_derive_rejects_shallow_orders(capsys):
    assert main(["derive", "--case", "VII", "--order", "7"]) == 2
    assert "at least 8" in capsys.readouterr().err


def test_derive_rejects_unknown_case():
    with pytest.raises(SystemExit):
        main(["derive", "--case", "IV"])


def test_check_cases_subset(tmp_path, capsys):
    out = tmp_path / "cases.json"
    assert main(["check-cases", "I", "II", "III", "IV", "--output", str(out)]) == 0
    text = capsys.readouterr().out
    assert "4/4 cases verified" in text
    document = _load(out)
    _check_manifest(document, "check-cases")
    payload = document["payload"]
    assert payload["format"] == "birot4/case-run@1"
    assert payload["selection"] == ["I", "II", "III", "IV"]
    assert payload["extraction_match"] is True
    assert payload["all_verified"] is True
    assert [r["case"] for r in payload["reports"]] == ["I", "II", "III", "IV"]
    assert all(r["verdict"] == "contradiction-verified" for r in payload["reports"])


def _perturb_case7_text(monkeypatch, label):
    import birot4.cli

    perturbed = dict(birot4.cli.CASE7_SYSTEM_TEXT)
    perturbed[label] += " + 1"
    monkeypatch.setattr(birot4.cli, "CASE7_SYSTEM_TEXT", perturbed)


def test_check_cases_detects_perturbation(tmp_path, monkeypatch, capsys):
    for label in ("E2", "E0"):
        with monkeypatch.context() as patch:
            _perturb_case7_text(patch, label)
            out = tmp_path / f"perturbed-{label}.json"
            assert main(["check-cases", "I", "--output", str(out)]) == 1
        assert "FAILED" in capsys.readouterr().err
        payload = _load(out)["payload"]
        assert payload["extraction_match"] is False
        assert payload["mismatched_equations"] == [label]
        assert payload["reports"] == []
        assert payload["all_verified"] is False


def test_derive_exits_1_when_it_diverges(tmp_path, monkeypatch, capsys):
    _perturb_case7_text(monkeypatch, "E3")
    out = tmp_path / "diverged.json"
    assert main(["derive", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "[FAIL] equation E3 matches the embedded text" in captured.out
    assert "derivation diverges from the embedded reference texts" in captured.err
    payload = _load(out)["payload"]
    assert payload["all_match"] is False
    failed = [d for d in payload["fixture_diff"] if not d["match"]]
    assert [d["check"] for d in failed] == ["equation E3 matches the embedded text"]
    extracted = parse_polynomial(CASE7_SYSTEM_TEXT["E3"], NORMALIZED_VARS)
    assert failed[0]["got"] == str(extracted)
    assert failed[0]["expected"] == str(extracted + 1)


def test_simulate_exits_1_on_a_numeric_error(capsys):
    assert main(["simulate", "--preset", "catenoid", "--window", "0.005",
                 "--step", "0.001"]) == 1
    assert "trajectory too short" in capsys.readouterr().err


def test_check_cases_rejects_unknown_ids(capsys):
    for argv in (["IX"], ["all", "IX"]):
        assert main(["check-cases", *argv]) == 2
        assert "unknown case selection ['IX']" in capsys.readouterr().err
    # a repeated id would run its case twice and count it twice
    assert main(["check-cases", "I", "II", "I"]) == 2
    assert "repeated case selection ['I']" in capsys.readouterr().err


def test_simulate_catenoid_preset(tmp_path):
    out = tmp_path / "catenoid.json"
    assert main(["simulate", "--preset", "catenoid", "--output", str(out)]) == 0
    document = _load(out)
    _check_manifest(document, "simulate")
    assert document["manifest"]["payload_digest"] == SIMULATE_PRESET_PAYLOAD_DIGESTS["catenoid"]
    # the parser leaves these unset; the manifest records the values used
    parameters = document["manifest"]["parameters"]
    assert parameters["window"] == numeric.DEFAULT_WINDOW
    assert parameters["step"] == numeric.DEFAULT_STEP
    assert parameters["threshold"] == numeric.DEFAULT_THRESHOLD
    payload = document["payload"]
    assert payload["format"] == "birot4/simulation@1"
    assert payload["mode"] == "preset"
    assert payload["preset"] == "catenoid"
    assert payload["samples"] == 2001
    assert payload["truncated"] is False
    residuals = payload["residuals"]
    assert residuals["arc_defect"] < 1e-8
    assert residuals["biharmonic"] < 1e-6
    assert residuals["surface_laplacian_gap"] < 2e-3
    assert payload["within_thresholds"] is True
    assert len(payload["trajectory"]) == payload["samples"] + 1


def test_simulate_cylinder_preset(tmp_path):
    out = tmp_path / "cylinder.json"
    assert main(["simulate", "--preset", "cylinder", "--output", str(out)]) == 0
    document = _load(out)
    _check_manifest(document, "simulate")
    assert document["manifest"]["payload_digest"] == SIMULATE_PRESET_PAYLOAD_DIGESTS["cylinder"]
    payload = document["payload"]
    # the frozen curvature constant misses c'' = c by exactly one
    assert abs(payload["residuals"]["biharmonic"] - 1.0) < 1e-6
    assert payload["within_thresholds"] is False


def test_simulate_sweep(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    assert main(["simulate", "--sweep", "--window", "0.5", "--step", "0.002",
                 "--output", str(out)]) == 0
    assert "stayed within the threshold" in capsys.readouterr().out
    payload = _load(out)["payload"]
    assert payload["mode"] == "sweep"
    assert payload["rows"] == 32
    assert len(payload["table"]) == 33
    assert 1 <= payload["clean_rows"] < 32


def test_simulate_usage_errors(capsys):
    assert main(["simulate"]) == 2
    assert "choose --preset or --sweep" in capsys.readouterr().err
    # both flags: the sweep would run and the preset be dropped without a word
    assert main(["simulate", "--preset", "cylinder", "--sweep"]) == 2
    assert "choose --preset or --sweep" in capsys.readouterr().err
    assert main(["simulate", "--preset", "catenoid", "--step", "0"]) == 2
    assert main(["simulate", "--preset", "catenoid", "--window", "-1"]) == 2


def _argv_id(argv: list[str]) -> str:
    return "_".join(arg.lstrip("-") for arg in argv)


class _Integrated(Exception):
    """Raised in place of integrating, so that a test allocates no samples."""


@pytest.fixture
def no_integration(monkeypatch):
    def refuse(*args):
        raise _Integrated

    monkeypatch.setattr(numeric, "_integrate", refuse)


@pytest.mark.parametrize("mode", [["--preset", "catenoid"], ["--sweep"]], ids=_argv_id)
@pytest.mark.parametrize("bad", [["--window", "1e300", "--step", "1e-300"],
                                 ["--window", "1e5"]], ids=_argv_id)
def test_simulate_bounds_its_sample_count(tmp_path, capsys, no_integration, mode, bad):
    out = tmp_path / "simulate.json"
    assert main(["simulate", *mode, *bad, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(numeric.MAX_SAMPLES) in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("mode, window", [(["--preset", "catenoid"], numeric.MAX_SAMPLES - 1),
                                          (["--sweep"], numeric.MAX_SAMPLES // 32 - 1)],
                         ids=["preset", "sweep"])
def test_simulate_admits_runs_at_the_sample_bound(no_integration, mode, window):
    with pytest.raises(_Integrated):
        main(["simulate", *mode, "--window", str(window), "--step", "1"])


def test_simulate_builds_no_per_sample_records(tmp_path, monkeypatch):
    """The preset's one initial state is the only ProfileState on the way to
    the payload; the samples stay one array."""
    built = 0
    init = numeric.ProfileState.__init__

    def counting_init(self, *args, **kwargs):
        nonlocal built
        built += 1
        init(self, *args, **kwargs)

    monkeypatch.setattr(numeric.ProfileState, "__init__", counting_init)
    assert main(["simulate", "--preset", "catenoid",
                 "--output", str(tmp_path / "catenoid.json")]) == 0
    assert built == 1


@pytest.mark.parametrize("mode", [["--preset", "catenoid"], ["--sweep"]], ids=_argv_id)
@pytest.mark.parametrize("bad", [["--window", "inf"], ["--window", "nan"],
                                 ["--step", "nan"], ["--step", "inf"],
                                 ["--threshold", "nan"], ["--threshold", "inf"]],
                         ids=_argv_id)
def test_simulate_rejects_non_finite_values(tmp_path, capsys, mode, bad):
    out = tmp_path / "simulate.json"
    assert main(["simulate", *mode, *bad, "--output", str(out)]) == 2
    assert "must be" in capsys.readouterr().err
    assert not out.exists()


def _keys(document) -> set[str]:
    """Every dictionary key at any depth of a JSON document."""
    if isinstance(document, dict):
        return set(document).union(*map(_keys, document.values()))
    if isinstance(document, list):
        return set().union(*map(_keys, document))
    return set()


def test_certify_artifact(certify_artifact, certify_artifact_path, system_vii, capsys):
    _check_manifest(certify_artifact, "certify")
    payload = certify_artifact["payload"]
    assert payload["format"] == "birot4/certification@2"
    assert payload["mode"] == "compute"
    assert payload["target"] == "p*t^4"
    assert certify_artifact["manifest"]["parameters"]["target"] == "p*t^4"
    assert payload["identity_holds"] is True
    assert payload["remainder_zero"] is True
    assert payload["basis"]["format"] == "birot4/groebner-basis@2"
    assert payload["basis"]["order"] == "lex"
    assert not {"provenance", "stats"} & _keys(payload)
    # the counters of the staged search are in the manifest: grevlex, then lex
    search = certify_artifact["manifest"]["search"]
    assert (search["pairs_considered"], search["pairs_reduced"]) == (2481, 75)
    assert (search["stage1"]["pairs_considered"], search["stage1"]["pairs_reduced"]) == (1953, 58)
    assert (search["stage2"]["pairs_considered"], search["stage2"]["pairs_reduced"]) == (528, 17)
    presentation = IdealPresentation(NORMALIZED_VARS, LEX, tuple(system_vii.polynomials()))
    assert search == staged_buchberger(presentation).stats
    assert payload["certificate"]["format"] == "birot4/membership-certificate@3"
    assert payload["certificate"]["is_member"] is True
    assert certify_artifact["manifest"]["payload_digest"] == CERTIFY_PAYLOAD_DIGEST
    certificate = hashlib.sha256(_canonical(payload["certificate"]).encode()).hexdigest()
    assert f"sha256:{certificate}" == CERTIFICATE_DIGEST
    basis = hashlib.sha256("\n".join(payload["basis"]["basis"]).encode()).hexdigest()
    assert basis[:16] == BASIS_DIGEST
    # the stored artifact re-verifies through the verify-only path
    assert main(["certify", "--verify-only", str(certify_artifact_path)]) == 0
    assert "re-verified" in capsys.readouterr().out


def test_certify_payload_is_the_same_for_every_search_route():
    """The direct lex search and the staged route (unit pivot x, grevlex, then
    lex) find one reduced basis with different counters; the payload states
    the basis and the certificate, so both routes give one payload."""
    xyz = variables("x", "y", "z")
    x, y, z = (Polynomial.variable(xyz, name) for name in xyz.names)
    generators = (x - y * z - 1, y * y - z * z - 1, x * z * z - y)
    presentation = IdealPresentation(xyz, LEX, generators)
    target = x * y * generators[2] + z * generators[1]
    payloads = []
    bases = [buchberger(presentation), staged_buchberger(presentation)]
    for basis in bases:
        certificate = certify_membership(presentation, target, basis=basis)
        payloads.append(_certify_payload(target, basis, certificate))
    assert bases[0].stats != bases[1].stats
    assert payloads[0] == payloads[1]
    assert payloads[0]["identity_holds"] and payloads[0]["remainder_zero"]


def test_certify_names_a_nonzero_remainder(tmp_path, capsys):
    out = tmp_path / "certify.json"
    assert main(["certify", "--target", "t", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "remainder zero: False" in captured.out
    assert captured.err.count("\n") == 1
    assert "first failing step: membership FAILED: nonzero remainder" in captured.err
    payload = _load(out)["payload"]
    assert payload["identity_holds"] is True and payload["remainder_zero"] is False
    assert payload["note"] in captured.err


def test_certify_names_a_failed_re_verification(tmp_path, monkeypatch, capsys):
    """A certificate that the search accepted but the final check rejects fails
    the run, and stderr names the re-verification step."""
    def search_then_break_verify(*args, **kwargs):
        found = basis_and_certificate(*args, **kwargs)
        monkeypatch.setattr(MembershipCertificate, "verify", lambda self: False)
        return found

    monkeypatch.setattr("birot4.groebner.basis_and_certificate", search_then_break_verify)
    out = tmp_path / "certify.json"
    assert main(["certify", "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert "identity re-verification: FAILED" in captured.out
    assert captured.err.count("\n") == 1
    assert "first failing step: certificate re-verification FAILED" in captured.err
    payload = _load(out)["payload"]
    assert payload["identity_holds"] is False and payload["remainder_zero"] is True


# -- the certificate search's forked worker ------------------------------

needs_two_cpus = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                                    reason="the worker is forked only with two or more CPUs")


def _count_forks(monkeypatch) -> list[int]:
    """Patch os.fork to record each fork's result in the parent."""
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _one_cpu_without_fork(monkeypatch):
    def no_fork():
        raise AssertionError("forked with one CPU")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(os, "fork", no_fork)


def test_certify_reaps_its_worker(monkeypatch, capsys):
    forks = _count_forks(monkeypatch)
    assert main(["certify"]) == 0
    assert CERTIFY_PAYLOAD_DIGEST in capsys.readouterr().out
    assert len(forks) == (len(os.sched_getaffinity(0)) > 1)
    _assert_no_child()


def test_certify_with_one_cpu_does_not_fork(monkeypatch, capsys):
    _one_cpu_without_fork(monkeypatch)
    assert main(["certify"]) == 0
    assert CERTIFY_PAYLOAD_DIGEST in capsys.readouterr().out


def test_certify_non_member_gives_the_in_process_payload(tmp_path, monkeypatch):
    """The worker bets on membership; for ``t`` the bet is lost, the worker is
    killed, and the search runs here with the true remainder."""
    forks = _count_forks(monkeypatch)
    assert main(["certify", "--target", "t", "--output", str(tmp_path / "forked.json")]) == 1
    assert len(forks) == (len(os.sched_getaffinity(0)) > 1)
    _assert_no_child()
    _one_cpu_without_fork(monkeypatch)
    assert main(["certify", "--target", "t", "--output", str(tmp_path / "here.json")]) == 1
    assert _load(tmp_path / "forked.json")["payload"] == _load(tmp_path / "here.json")["payload"]


def _sending(text: str):
    """A stand-in for the worker's ``_send_certificate`` that writes text."""
    def send(out, *args):
        with os.fdopen(out, "w") as pipe:
            pipe.write(text)
    return send


@needs_two_cpus
def test_certify_falls_back_when_the_worker_sends_nothing(monkeypatch, capsys, certify_artifact):
    """Nothing, text that is not JSON, JSON that is not an object, an @3
    document with a bad field, or the certificate in another variable order:
    each sends certify to the in-process search, with the same payload."""
    document = certify_artifact["payload"]["certificate"]
    sent = ["", "p*t^4", "[]", json.dumps({**document, "denominator": "0"}),
            json.dumps({**document, "variables": document["variables"][::-1]})]
    forks = _count_forks(monkeypatch)
    for text in sent:
        monkeypatch.setattr("birot4.groebner._send_certificate", _sending(text))
        assert main(["certify"]) == 0, text
        assert CERTIFY_PAYLOAD_DIGEST in capsys.readouterr().out, text
    assert len(forks) == len(sent)
    _assert_no_child()


def _process_stat(pid: int) -> list[str] | None:
    """The fields of /proc/PID/stat after the command name, or None when gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()
    except (FileNotFoundError, ProcessLookupError):
        return None


def _children(pid: int) -> list[tuple[int, str]]:
    """(pid, start time) of each live child of pid."""
    found = []
    for entry in os.listdir("/proc"):
        if entry.isdigit():
            fields = _process_stat(int(entry))
            if fields and fields[1] == str(pid) and fields[0] != "Z":
                found.append((int(entry), fields[19]))
    return found


def _running(pid: int, start: str) -> bool:
    """Whether the process pid, started at start, is alive and not a zombie."""
    fields = _process_stat(pid)
    return bool(fields) and fields[0] != "Z" and fields[19] == start


@needs_two_cpus
def test_the_worker_dies_with_a_killed_certify(tmp_path):
    """SIGTERM to the certify process alone, while a worker searches for a
    certificate of a non-member (which never ends), leaves no worker behind."""
    src = str(Path(birot4.__file__).resolve().parent.parent)
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.Popen([sys.executable, "-m", "birot4.cli", "certify", "--target", "t"],
                            env=env, cwd=tmp_path, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL)
    workers = []
    try:
        while not workers and proc.poll() is None:
            workers = _children(proc.pid)
        assert workers, "certify ended before its worker was seen"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == -signal.SIGTERM
        time.sleep(2)
        assert [pid for pid, start in workers if _running(pid, start)] == []
    finally:
        proc.kill()
        proc.wait()
        for pid, start in workers:  # a surviving worker climbs degrees without end
            if _running(pid, start):
                os.kill(pid, signal.SIGKILL)


def test_certify_artifacts_in_the_first_format_still_load(tmp_path, certify_artifact, capsys):
    """Only the certificate of a stored artifact is read, and its format is
    unchanged, so an artifact with the old payload format and basis counters
    still re-checks."""
    old = json.loads(json.dumps(certify_artifact))
    old["payload"]["format"] = "birot4/certification@1"
    old["payload"]["basis"]["format"] = "birot4/groebner-basis@1"
    old["payload"]["basis"]["stats"] = certify_artifact["manifest"]["search"]
    path = tmp_path / "old.json"
    path.write_text(json.dumps(old))
    assert main(["certify", "--verify-only", str(path)]) == 0
    assert "re-verified" in capsys.readouterr().out
    assert main(["check-cases", "VII", "--certificate", str(path)]) == 0
    assert "1/1 cases verified" in capsys.readouterr().out


def test_manifest_version_is_the_package_version(certify_artifact):
    pyproject = README.with_name("pyproject.toml").read_text()
    assert certify_artifact["manifest"]["version"] == birot4.__version__
    assert f'\nversion = "{birot4.__version__}"\n' in pyproject


@pytest.mark.parametrize("target", ["p*q", "", "p**2"],
                         ids=["unknown-variable", "empty", "double-star"])
def test_certify_rejects_an_unparsable_target(tmp_path, capsys, target):
    out = tmp_path / "certify.json"
    assert main(["certify", "--target", target, "--output", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --target") and err.count("\n") == 1
    assert not out.exists()


def test_verify_only_manifest_records_only_what_it_read(tmp_path, certify_artifact_path,
                                                        capsys):
    """--verify-only re-checks the stored certificate of p*t^4, so its
    manifest records no --target, and passing one is a usage error."""
    out = tmp_path / "verify.json"
    assert main(["certify", "--verify-only", str(certify_artifact_path),
                 "--output", str(out)]) == 0
    document = _load(out)
    _check_manifest(document, "certify")
    assert document["manifest"]["parameters"]["target"] is None
    assert document["payload"]["target"] == "p*t^4"
    assert document["payload"]["claim_holds"] is True
    capsys.readouterr()
    assert main(["certify", "--verify-only", str(certify_artifact_path),
                 "--target", "p*t^4"]) == 2
    assert capsys.readouterr().err.startswith("error: --verify-only")


@pytest.mark.parametrize("forgery, step", [
    ({"generators": ["p*t^4"], "cofactors": [{"monomials": "1", "numerators": "AQ=="}],
      "denominator": "AQ=="},
     "the certificate is stated over this extraction's generators"),
    ({"target": "0", "cofactors": [{"monomials": "", "numerators": ""}] * 6},
     "the certificate's target is p*t^4"),
], ids=["other-generators", "zero-target"])
def test_verify_only_rejects_a_certificate_of_another_claim(tmp_path, certify_artifact, capsys,
                                                            forgery, step):
    """A certificate whose identity holds is still no proof of the paper's
    claim if it is over other generators or of another target: --verify-only
    fails it, as case VII does, and names the same step."""
    forged = json.loads(json.dumps(certify_artifact))
    forged["payload"]["certificate"].update(forgery)
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(forged))
    out = tmp_path / "verify.json"
    assert main(["certify", "--verify-only", str(path), "--output", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"first failing step: {step} FAILED\n"
    assert "re-verified" not in captured.out
    payload = _load(out)["payload"]
    assert payload["claim_holds"] is False
    assert payload["identity_holds"] is True and payload["remainder_zero"] is True
    assert main(["check-cases", "VII", "--certificate", str(path)]) == 1
    assert f"first failing step (case VII): {step}\n" in capsys.readouterr().err


def test_certify_verify_only_catches_tampering(tmp_path, certify_artifact, capsys):
    tampered = json.loads(json.dumps(certify_artifact))
    tampered["payload"]["certificate"]["cofactors"][0] = {"monomials": "", "numerators": ""}
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    assert main(["certify", "--verify-only", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().err


def test_stored_certificate_with_an_extra_cofactor_fails(tmp_path, certify_artifact, capsys):
    """One cofactor more than generators is no certificate, even though the
    extra term pairs with no generator in the re-expansion."""
    tampered = json.loads(json.dumps(certify_artifact))
    tampered["payload"]["certificate"]["cofactors"].append(  # A^7 + 3*t
        {"monomials": "A^7 + t", "numerators": f"{numeral(1)} {numeral(3)}"})
    path = tmp_path / "extra.json"
    path.write_text(json.dumps(tampered))
    assert main(["certify", "--verify-only", str(path)]) == 1
    assert "FAILED" in capsys.readouterr().err
    assert main(["check-cases", "VII", "--certificate", str(path)]) == 1
    assert "first failing step (case VII)" in capsys.readouterr().err


def test_check_cases_reads_a_stored_certificate(tmp_path, certify_artifact,
                                               certify_artifact_path, monkeypatch, capsys):
    """--certificate re-checks case VII on a stored certify artifact, with no
    basis or certificate search; a tampered cofactor fails case VII."""
    import birot4.groebner

    def no_search(*args, **kwargs):
        raise AssertionError("check-cases searched for a certificate")

    # the command layer runs the search only for a case VII given no certificate
    for search in ("basis_and_certificate", "certify_membership"):
        monkeypatch.setattr(birot4.groebner, search, no_search)
    out = tmp_path / "cases.json"
    assert main(["check-cases", "VII", "--certificate", str(certify_artifact_path),
                 "--output", str(out)]) == 0
    assert "1/1 cases verified" in capsys.readouterr().out
    assert _load(out)["payload"]["all_verified"] is True

    tampered = json.loads(json.dumps(certify_artifact))
    cofactor = tampered["payload"]["certificate"]["cofactors"][0]
    first, rest = cofactor["numerators"].split(" ", 1)
    cofactor["numerators"] = f"{numeral(decoded_numeral(first) + 1)} {rest}"
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    assert main(["check-cases", "VII", "--certificate", str(path), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert "first failing step (case VII)" in err and "identity" in err
    (report,) = _load(out)["payload"]["reports"]
    assert report["case"] == "VII" and report["verdict"] != "contradiction-verified"


def _write_tampered(tmp_path, certify_artifact, **certificate) -> Path:
    """A copy of the certify artifact with fields of its certificate document
    replaced; a field given as None is dropped."""
    tampered = json.loads(json.dumps(certify_artifact))
    document = tampered["payload"]["certificate"]
    document.update(certificate)
    for field, value in certificate.items():
        if value is None:
            del document[field]
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(tampered))
    return path


@pytest.mark.parametrize("denominator", [None, "0", "-1", "1.5"],
                         ids=["missing", "zero", "negative", "decimal-point"])
def test_a_bad_stored_denominator_is_a_usage_error(tmp_path, certify_artifact, capsys,
                                                   denominator):
    """An @3 certificate without a denominator numeral of at least 1 is no
    certificate document: both commands that re-check one exit with status 2."""
    path = _write_tampered(tmp_path, certify_artifact, denominator=denominator)
    for argv in (["certify", "--verify-only", str(path)],
                 ["check-cases", "VII", "--certificate", str(path)]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read a certificate from {path}" in err and "denominator" in err


@pytest.mark.parametrize("field, value", [("variables", "ABupt"), ("cofactors", "000000")],
                         ids=["variables-string", "cofactors-string"])
def test_a_malformed_stored_certificate_is_a_usage_error(tmp_path, certify_artifact, capsys,
                                                        field, value):
    """A string where the document has an array of strings is no certificate
    document, though read character by character it would name the right
    variables, or six zero cofactors."""
    path = _write_tampered(tmp_path, certify_artifact, **{field: value})
    for argv in (["certify", "--verify-only", str(path)],
                 ["check-cases", "VII", "--certificate", str(path)]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"cannot read a certificate from {path}" in err and field in err


def test_a_changed_stored_denominator_fails_re_verification(tmp_path, certify_artifact, capsys):
    """k + 1 in place of k scales every cofactor: the document still reads,
    and the identity no longer re-expands."""
    k = decoded_numeral(certify_artifact["payload"]["certificate"]["denominator"])
    path = _write_tampered(tmp_path, certify_artifact, denominator=numeral(k + 1))
    assert main(["certify", "--verify-only", str(path)]) == 1
    assert "first failing step: certificate re-verification FAILED" in capsys.readouterr().err
    assert main(["check-cases", "VII", "--certificate", str(path)]) == 1
    err = capsys.readouterr().err
    assert "first failing step (case VII)" in err and "identity" in err


def test_check_cases_extracts_case_vii_once(certify_artifact_path, monkeypatch, capsys):
    """check-cases VII extracts its system once: case VII checks the system
    that was compared with the paper's."""
    import birot4.cases
    import birot4.cli

    extract, calls = birot4.cli.extract_system, []

    def counting_extract(profile, case_tag):
        calls.append(case_tag)
        return extract(profile, case_tag)

    monkeypatch.setattr(birot4.cli, "extract_system", counting_extract)
    monkeypatch.setattr(birot4.cases, "extract_system", counting_extract)
    assert main(["check-cases", "VII", "--certificate", str(certify_artifact_path)]) == 0
    assert "1/1 cases verified" in capsys.readouterr().out
    assert calls == ["VII"]


def test_check_cases_payload_is_pinned(tmp_path, certify_artifact_path, capsys):
    out = tmp_path / "cases.json"
    assert main(["check-cases", "--certificate", str(certify_artifact_path),
                 "--output", str(out)]) == 0
    assert "7/7 cases verified" in capsys.readouterr().out
    document = _load(out)
    _check_manifest(document, "check-cases")
    assert document["manifest"]["payload_digest"] == CHECK_CASES_PAYLOAD_DIGEST


def test_every_certificate_format_re_checks_to_one_payload(tmp_path, certify_artifact_path,
                                                           certify_artifact_v2_path,
                                                           certify_artifact_v1_path, capsys):
    """The flagship certificate as @3, @2 and @1: --verify-only re-verifies
    each, and check-cases gives the pinned payload for each."""
    for path in (certify_artifact_path, certify_artifact_v2_path, certify_artifact_v1_path):
        assert main(["certify", "--verify-only", str(path)]) == 0
        assert "re-verified" in capsys.readouterr().out
        out = tmp_path / f"cases-{path.stem}.json"
        assert main(["check-cases", "--certificate", str(path), "--output", str(out)]) == 0
        assert _load(out)["manifest"]["payload_digest"] == CHECK_CASES_PAYLOAD_DIGEST


def test_check_cases_without_a_certificate_searches_once(tmp_path, monkeypatch, capsys):
    """Without --certificate the command layer finds case VII's certificate,
    by one basis_and_certificate call, and the payload is the one that
    re-checking the stored certify artifact gives."""
    import birot4.groebner

    calls = []
    search = birot4.groebner.basis_and_certificate

    def counting_search(*args):
        calls.append(args[1])
        return search(*args)

    monkeypatch.setattr(birot4.groebner, "basis_and_certificate", counting_search)
    out = tmp_path / "cases.json"
    assert main(["check-cases", "--output", str(out)]) == 0
    assert "7/7 cases verified" in capsys.readouterr().out
    assert [format_polynomial(target) for target in calls] == [CERTIFICATE_TARGET_TEXT]
    document = _load(out)
    _check_manifest(document, "check-cases")
    assert document["manifest"]["payload_digest"] == CHECK_CASES_PAYLOAD_DIGEST


def test_unreadable_certificate_files_are_usage_errors(tmp_path, certify_artifact, capsys):
    not_json = tmp_path / "not.json"
    not_json.write_text("certificate")
    wrong_format = tmp_path / "wrong.json"
    wrong_format.write_text(json.dumps({"format": "other"}))
    a_list = tmp_path / "list.json"
    a_list.write_text("[1, 2]")
    # only the artifact is read, not its payload or its certificate document alone
    bare_payload = tmp_path / "payload.json"
    bare_payload.write_text(json.dumps(certify_artifact["payload"]))
    bare_certificate = tmp_path / "certificate.json"
    bare_certificate.write_text(json.dumps(certify_artifact["payload"]["certificate"]))
    for path in (tmp_path / "missing.json", not_json, wrong_format, a_list,
                 bare_payload, bare_certificate):
        for argv in (["check-cases", "VII", "--certificate", str(path)],
                     ["certify", "--verify-only", str(path)]):
            with pytest.raises(SystemExit) as exit_info:
                main(argv)
            assert exit_info.value.code == 2
            assert f"cannot read a certificate from {path}" in capsys.readouterr().err


def _readme_commands() -> list[list[str]]:
    """Every `birot4 ...` line of the README's command-line usage block."""
    text = README.read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("birot4 ")]


def test_readme_usage_parses():
    commands = _readme_commands()
    assert {argv[0] for argv in commands} == {"derive", "certify", "check-cases", "simulate"}
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_readme_session_runs(tmp_path, certify_artifact_path, monkeypatch, capsys):
    """The README's in-process session runs as written, next to the
    certificate.json that its command block's `birot4 certify` writes."""
    text = README.read_text()
    block = text.split("A typical in-process session:", 1)[1].split("```python", 1)[1]
    block = block.split("```", 1)[0]
    (tmp_path / "certificate.json").write_bytes(certify_artifact_path.read_bytes())
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    labels, *summaries = capsys.readouterr().out.splitlines()
    assert labels == "('E0', 'E2', 'E3', 'E4', 'E5', 'E6')" and f"# {labels}" in block
    assert [line.split(" (")[0] for line in summaries] == [
        f"case {case}: contradiction-verified" for case in CASE_IDS]


def _run_cli(tmp_path, name: str, hash_seed: str, *argv: str) -> dict:
    """Run the CLI in a fresh interpreter; return the artifact's manifest."""
    out = tmp_path / f"{name}.json"
    src = str(Path(birot4.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    subprocess.run([sys.executable, "-m", "birot4.cli", *argv, "--output", str(out)],
                   env=env, cwd=tmp_path, check=True, capture_output=True)
    return _load(out)["manifest"]


def test_payloads_do_not_depend_on_the_hash_seed(tmp_path, certify_artifact):
    # the derive payloads are pinned under two hash seeds below
    certify = _run_cli(tmp_path, "certify", "1", "certify")
    assert certify["payload_digest"] == certify_artifact["manifest"]["payload_digest"]
    # the search counters too; the times differ from run to run
    assert certify["search"] == certify_artifact["manifest"]["search"]


def test_simulate_sweep_payload_is_pinned(tmp_path):
    sweeps = [_run_cli(tmp_path, f"sweep{seed}", seed, "simulate",
                       "--sweep")["payload_digest"] for seed in ("1", "77")]
    assert sweeps == [SIMULATE_SWEEP_PAYLOAD_DIGEST] * 2


@pytest.mark.parametrize("case", sorted(DERIVE_PAYLOAD_DIGESTS))
def test_derive_payload_is_pinned(tmp_path, case):
    derives = [_run_cli(tmp_path, f"derive{seed}", seed, "derive",
                        "--case", case)["payload_digest"] for seed in ("1", "77")]
    assert derives == [DERIVE_PAYLOAD_DIGESTS[case]] * 2
