"""The parts of a symmetric-power character, built straight from the pole terms.

A reference for the tests that is independent of ``charformula``'s own part
builder: each part is a plain product of the pole coefficient and a monomial.
"""

from math import comb

from symchar.polyring import FactoredRational, LaurentPoly


def reference_parts(closed, n):
    """(dominant weight, C(n+k-1, n) q^(n nu) A(nu,k)) for each pole term, by plain products."""
    rs = closed.source.root_system
    return [(rs.to_dominant(t.weight)[0], t.coeff * LaurentPoly.monomial(
        tuple(n * c for c in t.weight), comb(n + t.order - 1, n))) for t in closed.terms]


def reference_summands(closed, n):
    """The JSON of each orbit's summand: its reference parts summed and reduced once."""
    grouped = {}
    for nu, part in reference_parts(closed, n):
        grouped.setdefault(nu, []).append(part)
    return [{"dominant_weight": list(nu),
             "value": FactoredRational.sum(grouped[nu], closed.rank).reduced().to_json()}
            for nu in sorted(grouped)]
