"""Ground-truth data the verification runs compare against.

Everything here is transcription, not computation: the profile-series
coefficient table, the rotational-surface constraint equations E0, E2..E6
in normalized symbols, the handful of exact constants used by the per-case
contradiction checks, and the claim a membership certificate must state.
The engine must regenerate all of it from the differential system; these
copies are the comparison targets.
"""

from __future__ import annotations

from fractions import Fraction

from .certificate import MembershipCertificate
from .constraints import NORMALIZED_VARS
from .poly import Polynomial, parse_polynomial, parse_rational

# profile Taylor coefficients (exponential convention), orders 2..7
PROFILE_R_SERIES = {
    2: "r0 + c0*r0^2",
    3: "r1 + 2*c0*r0*r1 + c1*r0^2",
    4: "r0 + 4*c0*r0^2 + 2*c0^2*r0^3 + 2*c0*r1^2 + 4*c1*r0*r1",
    5: "r1 + 16*c0*r0*r1 + 10*c0^2*r0^2*r1 + 8*c0*c1*r0^3 + 8*c1*r0^2 + 6*c1*r1^2",
    6: "r0 + 25*c0*r0^2 + 34*c0^2*r0^3 + 10*c0^3*r0^4 + 22*c0*r1^2 + 20*c0^2*r0*r1^2"
       " + 44*c1*r0*r1 + 56*c0*c1*r0^2*r1 + 8*c1^2*r0^3",
    7: "r1 + 138*c0*r0*r1 + 242*c0^2*r0^2*r1 + 80*c0^3*r0^3*r1 + 69*c1*r0^2"
       " + 184*c0*c1*r0^3 + 86*c0^2*c1*r0^4 + 66*c1*r1^2 + 152*c0*c1*r0*r1^2"
       " + 80*c1^2*r0^2*r1 + 20*c0^2*r1^3",
}

PROFILE_X_SERIES = {
    2: "0",
    3: "alpha*r0^2",
    4: "4*alpha*r0*r1",
    5: "6*alpha*r1^2 + 6*alpha*r0^2 + 6*alpha*c0*r0^3",
    6: "32*alpha*r0*r1 + 40*alpha*c0*r0^2*r1 + 8*alpha*c1*r0^3",
}

PROFILE_Y_SERIES = {
    2: "beta*r0^2",
    3: "2*beta*r0*r1",
    4: "2*beta*r1^2 + 2*beta*r0^2 + 2*beta*c0*r0^3",
    5: "8*beta*r0*r1 + 10*beta*c0*r0^2*r1 + 2*beta*c1*r0^3",
    6: "8*beta*r0^2 + 20*beta*c0*r0^3 + 10*beta*c0^2*r0^4 + 8*beta*r1^2"
       " + 20*beta*c0*r0*r1^2 + 16*beta*c1*r0^2*r1",
    7: "32*beta*r0*r1 + 132*beta*c0*r0^2*r1 + 36*beta*c1*r0^3 + 80*beta*c0^2*r0^3*r1"
       " + 36*beta*c0*c1*r0^4 + 20*beta*c0*r1^3 + 52*beta*c1*r0*r1^2",
}

# full-rotation constraint system, flat terms; labels skip E1 because the
# tau^1 coefficient is consumed eliminating the x-velocity
CASE7_SYSTEM_TEXT = {
    "E0": "A*B*p^2 - A*B + A*p^2*t^2 + B^3 + 2*B^2*u*p + 2*B^2*t^2 + 2*B^2*t"
          " + B*u^2*p^2 + 2*B*u*p*t^2 + 2*B*u*p*t + B*t^4 + 2*B*t^3 + B*t^2",
    "E2": "2*B*p + 2*p*t^2 + 2*p*t + 3*t*u + 2*u",
    "E3": "3*A + 2*B*p^2 + 2*B*t + 2*B + 2*p^2*t^2 + 10*p*t*u + 4*p*u"
          " + 2*t^3 + 7*t^2 + 4*t + 3*u^2",
    "E4": "8*A*p + 5*B*p*t + 4*B*p + B*u + 7*p^2*t*u + 5*p*t^3 + 14*p*t^2"
          " + 4*p*t + 8*p*u^2 + 8*t^2*u + 17*t*u + 4*u",
    "E5": "15*A*p^2 + 15*A*t + 15*A + 10*B*p^2*t + 4*B*p^2 + 8*B*p*u + 5*B*t^2"
          " + 10*B*t + 4*B + 10*p^2*t^3 + 21*p^2*t^2 + 15*p^2*u^2 + 53*p*t^2*u"
          " + 92*p*t*u + 8*p*u + 5*t^4 + 27*t^3 + 35*t^2 + 24*t*u^2 + 8*t + 25*u^2",
    "E6": "120*A*p*t + 96*A*p + 24*A*u + 10*B*p^3*t + 26*B*p^2*u + 40*B*p*t^2"
          " + 66*B*p*t + 16*B*p + 18*B*t*u + 18*B*u + 10*p^3*t^3 + 136*p^2*t^2*u"
          " + 164*p^2*t*u + 40*p*t^4 + 196*p*t^3 + 204*p*t^2 + 208*p*t*u^2"
          " + 16*p*t + 172*p*u^2 + 73*t^3*u + 274*t^2*u + 220*t*u + 24*u^3 + 16*u",
}

# single-variable targets of the two case eliminations
CUBIC_T_TEXT = "5*t^3 + 18*t^2 + 20*t + 12"
QUADRATIC_T_TEXT = "2*t^2 + 7*t + 4"
QUARTIC_T_TEXT = "18*t^4 + 73*t^3 + 140*t^2 + 120*t + 54"

# positivity decomposition of the quartic, with its constants as displayed:
# 18*(t^2 + (73/36)t + 120/73)^2 + (2612159/383688)*t^2 + 2056752/383688
QUARTIC_SQUARE_SHIFT = (parse_rational("73/36"), parse_rational("120/73"))
QUARTIC_DECOMP_T2 = parse_rational("2612159/383688")
QUARTIC_DECOMP_CONST = parse_rational("2056752/383688")

# exact constants appearing in the case analyses
CASE5_FOURTH_DERIVATIVE = Fraction(56, 9)
CASE7_B_VALUE = Fraction(34, 9)
CASE7_A_VALUE = Fraction(1024, 81)
CASE7_REDUCED_CONSTANT = Fraction(1088, 27)
CASE6_TAU4_COEFF = Fraction(-17, 54)
CASE6_ROOT_WINDOW = (Fraction(-12, 5), Fraction(-9, 4))
CASE6_CUBIC_AT_LO = Fraction(-36, 25)
CASE6_CUBIC_AT_HI = Fraction(75, 64)

# membership target of the certificate run: p*t^4
CERTIFICATE_TARGET_TEXT = "p*t^4"


def certificate_claim(certificate: MembershipCertificate,
                      generators: tuple[Polynomial, ...]) -> list[tuple[str, object, object]]:
    """The paper's claim about a membership certificate, as (step, stated, expected).

    The certificate must be stated over the E-system E0, E2..E6 that the
    extraction gives (``generators``, in order) and have target p*t^4.
    Case VII and ``certify --verify-only`` check these steps before the
    identity itself, which ``MembershipCertificate.verify`` decides.
    """
    return [
        ("the certificate is stated over this extraction's generators",
         list(certificate.generators), list(generators)),
        ("the certificate's target is p*t^4", certificate.target,
         parse_polynomial(CERTIFICATE_TARGET_TEXT, NORMALIZED_VARS)),
    ]
