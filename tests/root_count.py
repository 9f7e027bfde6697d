"""Exact count of the interior equilibria, an oracle for
``equilibria.interior_equilibria`` with no grid and no tolerance.

An interior equilibrium has abscissa x > 0 with g(x) = 0, where

    g(x) = eta p(x) f(x) - delta x (c + x)(m + x),
    p(x) = a x^2 + b x + 1,  f(x) = -x^2 + (1 - c) x + c - h.

``sturm_count`` builds g in ``fractions.Fraction`` from the float
parameters, exactly, and counts its distinct roots on (0, inf) with a Sturm
chain.  Polynomials are coefficient lists, highest degree first.
"""

from fractions import Fraction


def _mul(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, u in enumerate(p):
        for j, v in enumerate(q):
            out[i + j] += u * v
    return out


def _rem(p, q):
    """The remainder of p divided by q, without leading zeros."""
    p = list(p)
    while len(p) >= len(q):
        k = p[0] / q[0]
        for i in range(1, len(q)):
            p[i] -= k * q[i]
        p.pop(0)
    while p and p[0] == 0:
        p.pop(0)
    return p


def _variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(s != t for s, t in zip(signs, signs[1:]))


def positive_root_count(g) -> int:
    """The number of distinct real roots on (0, inf) of the nonzero
    polynomial g: V(0) - V(inf) over its Sturm chain, V counting the sign
    changes with zeros dropped.  A root at 0 is divided out first, so that
    0 is no root of g, and is not counted."""
    g = [Fraction(v) for v in g]
    while g[-1] == 0:
        g.pop()
    n = len(g) - 1
    chain = [g, [v * (n - i) for i, v in enumerate(g[:-1])]]
    while len(chain[-1]) > 1 and (r := _rem(chain[-2], chain[-1])):
        # scaling by the positive 1/|lead| keeps every sign and the sizes small
        chain.append([-v / abs(r[0]) for v in r])
    return _variations([s[-1] for s in chain]) - _variations([s[0] for s in chain])


def interior_polynomial(params) -> list[Fraction]:
    """g of the module docstring, exactly, from the float parameters."""
    a, b, c, h, delta, eta, m = (Fraction(getattr(params, k))
                                 for k in ("a", "b", "c", "h", "delta", "eta", "m"))
    pf = _mul([a, b, Fraction(1)], [Fraction(-1), 1 - c, c - h])
    cubic = _mul([Fraction(1), c + m, c * m], [Fraction(1), Fraction(0)])
    return [eta * pf[0]] + [eta * u - delta * v for u, v in zip(pf[1:], cubic)]


def sturm_count(params) -> int:
    """The number of distinct interior equilibria: roots of g on (0, inf)."""
    return positive_root_count(interior_polynomial(params))
