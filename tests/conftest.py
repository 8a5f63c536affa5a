import pytest

from padic_trunk import build_trunk, parse

from invariants import check_trunk

# fixture polynomials exercising every branch-ending kind
TRUNK_CASES = [
    ("(X^2+3)*(X^2+3*X+9)", 3, 5),      # finite trunk, leaf endings
    ("X*(X-1)^2+25", 5, 5),             # simple-root and split branches
    ("X", 5, 3),                        # single lifted branch
    ("X^2", 3, 6),                      # power tail along the root 0
    ("(4*X-1)^2", 3, 8),                # power tail along 1/4 (3-adic period 2)
    ("(X-1)^2+3^5", 3, 6),              # thickness-2 stem, dead end
    ("(X-1)^2+3^4", 3, 6),              # stem that stops outright
    ("(X-1)*(X-2)+5", 5, 4),            # two lifted branches
    ("(X^2-17)^2", 13, 3),              # power tails at both roots of X^2-17
    ("(X^2-17)^2*(X-3)", 13, 3),        # open branches at depth
    ("9*X^2+9", 3, 3),                  # p-content shift (t0 = 2)
    ("7", 7, 2),                        # constant with content
    ("X^2+1", 3, 3),                    # no roots at all
]


@pytest.fixture
def checked_build():
    """Build a trunk and run the full invariant suite on it."""

    def build(poly, p, max_level, **kwargs):
        P = parse(poly) if isinstance(poly, str) else poly
        return check_trunk(build_trunk(P, p, max_level, **kwargs))

    return build


@pytest.fixture
def fixture_trunks(checked_build):
    return [(text, p, checked_build(text, p, lvl)) for text, p, lvl in TRUNK_CASES]
