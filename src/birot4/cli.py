"""Command-line front end for the verification engine.

Four subcommands: derive (series plus constraint extraction with a diff
against the embedded reference texts), certify (lex basis and membership
certificate for the product monomial), check-cases (the seven branch
verifiers), and simulate (trajectory integration, residual reports, and
the data sweep).  Every artifact is a JSON document with a deterministic
payload and a separate run manifest carrying timing, digests and, for
certify, the search counters.
The Groebner search, the case checker and the float layer (numpy) are
imported inside the one subcommand branch that runs each, so the other
runs start without them; re-checking a stored certificate needs
``birot4.certificate`` and the extraction, never the search.  One helper,
``_search``, runs the search: ``certify`` and a ``check-cases`` of case
VII without ``--certificate`` call it, and ``birot4.cases`` only checks
the certificate it is given.  This module handles arguments and artifacts
only: each case's profile comes from ``constraints.case_profile``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

from . import __version__
from .certificate import certificate_from_document, certificate_to_document
from .constraints import (
    CASE_TAGS,
    NORMALIZED_VARS,
    case_profile,
    compatibility_series,
    extract_system,
    system_to_document,
)
from .fixtures import (
    CASE7_SYSTEM_TEXT,
    CERTIFICATE_TARGET_TEXT,
    PROFILE_R_SERIES,
    PROFILE_X_SERIES,
    PROFILE_Y_SERIES,
    certificate_claim,
)
from .poly import LEX, Polynomial, format_polynomial, parse_polynomial
from .series import INITIAL_DATA_VARS

MANIFEST_FORMAT = "birot4/run-manifest@1"
CERTIFY_FORMAT = "birot4/certification@2"
NONMEMBER_NOTE = ("nonzero remainder: the target is not a member; "
                  "in particular the ideal is proper if the target is 1")
EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _emit(args, subcommand: str, payload: dict, started: float,
          search: dict | None = None) -> None:
    """Attach the run manifest and write or summarize the artifact; the time
    and the counters of a search that ran go into the manifest, never the payload."""
    digest = hashlib.sha256(_canonical(payload).encode()).hexdigest()
    parameters = {k: v for k, v in vars(args).items()
                  if k not in ("func",) and not callable(v)}
    manifest = {
        "format": MANIFEST_FORMAT,
        "subcommand": subcommand,
        "parameters": parameters,
        "version": __version__,
        "elapsed_seconds": round(time.perf_counter() - started, 6),
        "payload_digest": f"sha256:{digest}",
    }
    if search is not None:
        manifest["search"] = search
    document = {"manifest": manifest, "payload": payload}
    if getattr(args, "output", None):
        path = Path(args.output)
        path.write_text(json.dumps(document, sort_keys=True, indent=2) + "\n")
        print(f"wrote {path}")
    print(f"payload digest sha256:{digest}")


# -- derive -------------------------------------------------------------


def _diff_entry(check: str, got, want) -> dict:
    match = got == want
    entry = {"check": check, "match": match}
    if not match:
        entry["expected"] = str(want)
        entry["got"] = str(got)
    return entry


def _derive_diffs(case: str, profile, system) -> list[dict]:
    diffs = []
    if case == "VII":
        for label, text in CASE7_SYSTEM_TEXT.items():
            diffs.append(_diff_entry(
                f"equation {label} matches the embedded text",
                system.equation(label), parse_polynomial(text, NORMALIZED_VARS)))
        for name, table, series in (("r", PROFILE_R_SERIES, profile.r),
                                    ("x", PROFILE_X_SERIES, profile.x),
                                    ("y", PROFILE_Y_SERIES, profile.y)):
            for n, text in table.items():
                if n <= series.truncation_order:
                    diffs.append(_diff_entry(
                        f"series {name}[{n}] matches the embedded text",
                        series[n], parse_polynomial(text, INITIAL_DATA_VARS)))
    elif case == "VI":
        nv = NORMALIZED_VARS
        uv = Polynomial.variable(nv, "u")
        tv = Polynomial.variable(nv, "t")
        diffs.append(_diff_entry("order-0 extraction eliminates r1 to zero",
                                 str(system.eliminated["r1"].is_zero()), "True"))
        diffs.append(_diff_entry(
            "order-2 equation is u*(3*t + 2)",
            format_polynomial(system.equation("E2")),
            format_polynomial(uv * (3 * tv + 2))))
        compat = compatibility_series(profile, "VI")
        c1 = Polynomial.variable(INITIAL_DATA_VARS, "c1")
        c0 = Polynomial.variable(INITIAL_DATA_VARS, "c0")
        lhs = compat[2].substitute({"r1": 0})
        r2 = profile.r[2].substitute({"r1": 0})
        r3 = profile.r[3].substitute({"r1": 0})
        diffs.append(_diff_entry(
            "order-2 compatibility halves to c1*r[2] + (c0/2)*r[3]",
            format_polynomial(lhs), format_polynomial(2 * c1 * r2 + c0 * r3)))
    else:
        nv = NORMALIZED_VARS
        av, uv, pv, tv = (Polynomial.variable(nv, n) for n in ("A", "u", "p", "t"))
        diffs.append(_diff_entry(
            "order-1 equation is A + u*p + t^2 + t",
            format_polynomial(system.equation("E1")),
            format_polynomial(av + uv * pv + tv * tv + tv)))
    return diffs


def cmd_derive(args) -> int:
    started = time.perf_counter()
    if args.order < 8:
        print("error: --order must be at least 8", file=sys.stderr)
        return EXIT_USAGE
    profile = case_profile(args.case, args.order)
    system = extract_system(profile, args.case)
    diffs = _derive_diffs(args.case, profile, system)
    all_match = all(d["match"] for d in diffs)
    payload = {
        "format": "birot4/derivation@1",
        "case": args.case,
        "order": args.order,
        "series": {
            name: {str(n): format_polynomial(series[n])
                   for n in range(series.truncation_order + 1)}
            for name, series in (("x", profile.x), ("y", profile.y),
                                 ("r", profile.r), ("c", profile.c))
        },
        "system": system_to_document(system),
        "fixture_diff": diffs,
        "all_match": all_match,
    }
    _emit(args, "derive", payload, started)
    for d in diffs:
        mark = "ok " if d["match"] else "FAIL"
        print(f"  [{mark}] {d['check']}")
    if not all_match:
        print("derivation diverges from the embedded reference texts", file=sys.stderr)
        return EXIT_FAIL
    print(f"case {args.case} derivation matches all {len(diffs)} reference checks")
    return EXIT_OK


# -- certify ------------------------------------------------------------


def _load_certificate(path: str):
    """The certificate in a certify artifact; any other file exits with status 2."""
    try:
        return certificate_from_document(
            json.loads(Path(path).read_text())["payload"]["certificate"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        print(f"error: cannot read a certificate from {path} (expected a certify "
              f"artifact): {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _certify_payload(target: Polynomial, basis, certificate) -> dict:
    """The compute-mode certify payload: the ideal and its reduced basis, the
    certificate and its two verdicts.  It reads no search counter, so every
    route to the same basis and certificate gives the same payload."""
    from .groebner import basis_to_document

    payload = {
        "format": CERTIFY_FORMAT,
        "mode": "compute",
        "target": format_polynomial(target),
        "basis": basis_to_document(basis),
        "certificate": certificate_to_document(certificate),
        "identity_holds": certificate.verify(),
        "remainder_zero": certificate.remainder.is_zero(),
    }
    if not payload["remainder_zero"]:
        payload["note"] = NONMEMBER_NOTE
    return payload


def _certify_status(payload: dict) -> int:
    """Exit status of a certify run; a failure names its first failing step on stderr."""
    if not payload["identity_holds"]:
        print("first failing step: certificate re-verification FAILED: the identity "
              "target = sum(K_i*g_i) + remainder does not re-expand", file=sys.stderr)
    elif not payload["remainder_zero"]:
        print(f"first failing step: membership FAILED: {NONMEMBER_NOTE}", file=sys.stderr)
    else:
        return EXIT_OK
    return EXIT_FAIL


def _search(system, target: Polynomial):
    """The reduced lex basis of the extracted E-system and the target's
    certificate over it, from ``groebner.basis_and_certificate``."""
    from . import groebner

    presentation = groebner.IdealPresentation(NORMALIZED_VARS, LEX, tuple(system.polynomials()))
    return groebner.basis_and_certificate(presentation, target)


def cmd_certify(args) -> int:
    started = time.perf_counter()
    if args.verify_only:
        if args.target is not None:
            print("error: --verify-only re-checks the stored certificate of p*t^4; "
                  "drop --target", file=sys.stderr)
            return EXIT_USAGE
        certificate = _load_certificate(args.verify_only)
        system = extract_system(case_profile("VII"), "VII")
        failed = [step for step, stated, expected
                  in certificate_claim(certificate, system.polynomials()) if stated != expected]
        payload = {
            "format": CERTIFY_FORMAT,
            "mode": "verify-only",
            "target": format_polynomial(certificate.target),
            "claim_holds": not failed,
            "identity_holds": certificate.verify(),
            "remainder_zero": certificate.remainder.is_zero(),
        }
        _emit(args, "certify", payload, started)
        if failed:
            print(f"first failing step: {failed[0]} FAILED", file=sys.stderr)
            return EXIT_FAIL
        status = _certify_status(payload)
        if status == EXIT_OK:
            print("stored certificate re-verified: p*t^4 over the extracted E-system, "
                  "identity holds, remainder zero (the stored basis is not re-checked)")
        return status

    args.target = CERTIFICATE_TARGET_TEXT if args.target is None else args.target
    try:
        target = parse_polynomial(args.target, NORMALIZED_VARS)
    except ValueError as exc:
        print(f"error: --target is not a polynomial over {','.join(NORMALIZED_VARS.names)}: "
              f"{exc}", file=sys.stderr)
        return EXIT_USAGE
    system = extract_system(case_profile("VII"), "VII")
    basis, certificate = _search(system, target)
    payload = _certify_payload(target, basis, certificate)
    _emit(args, "certify", payload, started, search=basis.stats)
    print(f"basis elements: {len(basis.elements)}")
    print(f"identity re-verification: {'ok' if payload['identity_holds'] else 'FAILED'}")
    print(f"remainder zero: {payload['remainder_zero']}")
    return _certify_status(payload)


# -- check-cases --------------------------------------------------------

def cmd_check_cases(args) -> int:
    from . import cases

    started = time.perf_counter()
    selection = list(args.cases) if args.cases else ["all"]
    unknown = [s for s in selection if s not in cases.CASE_IDS and s != "all"]
    if unknown:
        print(f"error: unknown case selection {unknown}", file=sys.stderr)
        return EXIT_USAGE
    repeated = sorted({s for s in selection if selection.count(s) > 1})
    if repeated:
        print(f"error: repeated case selection {repeated}", file=sys.stderr)
        return EXIT_USAGE
    if "all" in selection:
        selection = list(cases.CASE_IDS)

    system = extract_system(case_profile("VII"), "VII")
    mismatches = []
    for label, text in CASE7_SYSTEM_TEXT.items():
        if system.equation(label) != parse_polynomial(text, NORMALIZED_VARS):
            mismatches.append(label)
    if mismatches:
        payload = {
            "format": "birot4/case-run@1",
            "selection": selection,
            "extraction_match": False,
            "mismatched_equations": mismatches,
            "reports": [],
            "all_verified": False,
        }
        _emit(args, "check-cases", payload, started)
        print(f"extraction-match step FAILED for equations: {', '.join(mismatches)}",
              file=sys.stderr)
        return EXIT_FAIL

    certificate = _load_certificate(args.certificate) if args.certificate else None
    if certificate is None and "VII" in selection:
        target = parse_polynomial(CERTIFICATE_TARGET_TEXT, NORMALIZED_VARS)
        _, certificate = _search(system, target)
    # resolved through the module on each call: perfbench's tracer times the
    # cases by rebinding cases.check_case_*
    reports = [cases.check_case_VII(certificate, system) if case == "VII"
               else getattr(cases, f"check_case_{case}")() for case in selection]
    all_verified = all(r.verdict == "contradiction-verified" for r in reports)
    payload = {
        "format": "birot4/case-run@1",
        "selection": selection,
        "extraction_match": True,
        "reports": [cases.report_to_document(r) for r in reports],
        "all_verified": all_verified,
    }
    _emit(args, "check-cases", payload, started)
    for report in reports:
        print(cases.summarize_report(report))
    verified = sum(r.verdict == "contradiction-verified" for r in reports)
    print(f"{verified}/{len(reports)} cases verified")
    if not all_verified:
        failing = next(r for r in reports if r.verdict != "contradiction-verified")
        step = failing.failed_steps()[0]
        print(f"first failing step (case {failing.case_id}): {step.description}",
              file=sys.stderr)
        return EXIT_FAIL
    return EXIT_OK


# -- simulate -----------------------------------------------------------


def _default_sweep_grid() -> list[dict]:
    grid = []
    for r1 in (0.0, 0.2):
        for c0 in (0.0, 0.4):
            for c1 in (0.0, 0.1):
                for alpha in (0.0, 0.5):
                    for beta in (0.0, 0.7):
                        grid.append({"r0": 1.0, "r1": r1, "c0": c0, "c1": c1,
                                     "alpha": alpha, "beta": beta})
    return grid


def cmd_simulate(args) -> int:
    from . import numeric

    started = time.perf_counter()
    args.window = numeric.DEFAULT_WINDOW if args.window is None else args.window
    args.step = numeric.DEFAULT_STEP if args.step is None else args.step
    args.threshold = numeric.DEFAULT_THRESHOLD if args.threshold is None else args.threshold
    if bool(args.preset) == args.sweep:
        print("error: choose --preset or --sweep, exactly one of them", file=sys.stderr)
        return EXIT_USAGE
    if not (0 < args.window < math.inf and 0 < args.step < math.inf):
        print("error: window and step must be positive and finite", file=sys.stderr)
        return EXIT_USAGE
    if not math.isfinite(args.threshold):
        print("error: threshold must be finite", file=sys.stderr)
        return EXIT_USAGE
    grid = _default_sweep_grid()
    points = len(grid) if args.sweep else 1
    # in floats, so that a ratio that overflows to inf is rejected too
    if (args.window / args.step + 1) * points > numeric.MAX_SAMPLES:
        print(f"error: window and step ask for (window / step + 1) x {points} samples; "
              f"at most {numeric.MAX_SAMPLES} are allowed", file=sys.stderr)
        return EXIT_USAGE

    if args.sweep:
        summary = numeric.sweep_nonminimal(grid, window=args.window,
                                           step=args.step, threshold=args.threshold)
        clean = sum(1 for row in summary.rows
                    if row.status == "ok" and row.violation_tau is None)
        payload = {
            "format": "birot4/simulation@1",
            "mode": "sweep",
            "window": args.window,
            "step": args.step,
            "threshold": args.threshold,
            "table": summary.table(),
            "rows": len(summary.rows),
            "clean_rows": clean,
        }
        _emit(args, "simulate", payload, started)
        for line in summary.table()[:6]:
            print(line)
        print(f"... {len(summary.rows)} rows, {clean} stayed within the threshold")
        return EXIT_OK

    if args.preset == "catenoid":
        state, params = numeric.catenoid_state()
        surface = numeric.catenoid_surface()
    else:
        state, params = numeric.cylinder_state()
        surface = numeric.cylinder_surface()
    try:
        trajectory = numeric.integrate_profile(state, params, args.window, args.step)
        report = numeric.biharmonic_residual(trajectory)
        gap = numeric.surface_laplacian_gap(surface)
    except numeric.NumericError as exc:
        print(f"simulation error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    within = all(v <= args.threshold for v in
                 (report.arc_defect, report.compatibility, report.biharmonic))
    payload = {
        "format": "birot4/simulation@1",
        "mode": "preset",
        "preset": args.preset,
        "window": args.window,
        "step": args.step,
        "threshold": args.threshold,
        "samples": len(trajectory),
        "truncated": trajectory.truncated,
        "residuals": {
            "arc_defect": report.arc_defect,
            "compatibility": report.compatibility,
            "biharmonic": report.biharmonic,
            "surface_laplacian_gap": gap,
        },
        "within_thresholds": within,
        "trajectory": numeric.trajectory_table(trajectory),
    }
    _emit(args, "simulate", payload, started)
    print(f"preset {args.preset}: {len(trajectory)} samples"
          + (" (truncated)" if trajectory.truncated else ""))
    for name, value in payload["residuals"].items():
        print(f"  {name}: {value:.3e}")
    print(f"within thresholds: {within}")
    return EXIT_OK


# -- parser -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birot4",
        description="exact verification engine for biharmonic rotational profiles")
    sub = parser.add_subparsers(dest="command", required=True)

    derive = sub.add_parser("derive", help="solve the series and extract the equations")
    derive.add_argument("--case", choices=CASE_TAGS, default="VII")
    derive.add_argument("--order", type=int, default=10,
                        help="series truncation order (minimum 8)")
    derive.add_argument("--output", help="artifact path")
    derive.set_defaults(func=cmd_derive)

    certify = sub.add_parser("certify", help="lex basis and membership certificate")
    # None stands for CERTIFICATE_TARGET_TEXT, filled in by cmd_certify in
    # compute mode, so that a verify-only manifest records no target it never read
    certify.add_argument("--target", help="target polynomial over A,B,u,p,t "
                                          f"(default {CERTIFICATE_TARGET_TEXT})")
    certify.add_argument("--verify-only", metavar="FILE",
                         help="re-check a stored certificate artifact")
    certify.add_argument("--output", help="artifact path")
    certify.set_defaults(func=cmd_certify)

    check = sub.add_parser("check-cases", help="run the branch contradiction checks")
    check.add_argument("cases", nargs="*", default=["all"],
                       help="case ids (I..VII) or 'all'")
    check.add_argument("--certificate", metavar="FILE",
                       help="case VII re-checks this stored certify artifact "
                            "instead of computing the certificate")
    check.add_argument("--output", help="artifact path")
    check.set_defaults(func=cmd_check_cases)

    simulate = sub.add_parser("simulate", help="integrate profiles and report residuals")
    simulate.add_argument("--preset", choices=("catenoid", "cylinder"))
    simulate.add_argument("--sweep", action="store_true",
                          help="run the default data-grid sweep")
    # None stands for numeric.DEFAULT_*, filled in by cmd_simulate, so that
    # building the parser does not import numpy
    simulate.add_argument("--window", type=float)
    simulate.add_argument("--step", type=float)
    simulate.add_argument("--threshold", type=float)
    simulate.add_argument("--output", help="artifact path")
    simulate.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
