"""Library jobs: each is a short chain of public laurentreal calls.

``prepare`` turns a job's plain-int inputs into program values before the
clock starts; the task itself is what gets timed.  Tasks reach the library
through the package and its classes at call time, so a traced run sees
every call.
"""

from __future__ import annotations

from fractions import Fraction

import laurentreal as lr


def _params(data: dict) -> lr.RadiusParams:
    return lr.RadiusParams(Fraction(*data["r"]), Fraction(*data["r_prime"]))


def product(f, g, params):
    """f*g, then evaluate(fg) == evaluate(f)*evaluate(g) and
    r_norm(fg) <= r_norm(f)*r_norm(g)."""
    fg = f * g
    values = (lr.evaluate(f, params), lr.evaluate(g, params), lr.evaluate(fg, params))
    norms = (f.r_norm(params.r), g.r_norm(params.r), fg.r_norm(params.r))
    return {
        "product": fg,
        "values": values,
        "norms": norms,
        "homomorphism": values[2] == values[0] * values[1],
        "submultiplicative": norms[2] <= norms[0] * norms[1],
    }


def evaluate_norm(f, params):
    return lr.evaluate(f, params), f.r_norm(params.r)


def expand(x, params, max_digits):
    return lr.expand(x, params, max_digits)


def lattice(m, params, cap, lookups):
    """Enumerate level m, validate it, restrict it, compare with level m-1,
    then look tuples up."""
    level = lr.enumerate_truncations(m, params, cap)
    level.validate()
    restricted = lr.restrict(level)
    return {
        "elements": level.elements,
        "restricted": restricted.elements,
        "restriction_matches": restricted == lr.enumerate_truncations(m - 1, params, cap),
        "hits": [tup in level for tup in lookups],
    }


def prepare(task: str, data: dict) -> tuple:
    if task == "product":
        return lr.LaurentSeries(data["f"]), lr.LaurentSeries(data["g"]), _params(data)
    if task == "evaluate_norm":
        return lr.LaurentSeries(data["f"]), _params(data)
    if task == "expand":
        params = lr.RadiusParams(Fraction(*data["r"]), Fraction(1, data["base"]))
        return Fraction(*data["x"]), params, data["max_digits"]
    if task == "lattice":
        params = lr.RadiusParams(Fraction(*data["r"]), Fraction(1, 10), Fraction(*data["c"]))
        return data["m"], params, data["cap"], [tup for tup, _ in data["lookups"]]
    raise ValueError(f"unknown task {task!r}")


TASKS = {"product": product, "evaluate_norm": evaluate_norm, "expand": expand, "lattice": lattice}
