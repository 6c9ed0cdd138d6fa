"""Exception types shared across the package, and the count and point
readers that raise them."""

import numbers


class MalformedJump(ValueError):
    """A jump table assigns more than one target to the same source."""


class UnknownVertex(KeyError):
    """Operation asked about a vertex the window does not contain."""


class CyclicComponent(ValueError):
    """Operation requires a cycle-free component but found a cycle."""


class EmptyWindow(ValueError):
    """Sampler was given an empty box."""


class BadDimension(ValueError):
    pass


class BadGraph(ValueError):
    """Base graph violates a sampler precondition (e.g. isolated vertex)."""


class DetailedBalanceViolated(ValueError):
    """Kernel/weight pair fails the reversibility check."""


class NotConnected(ValueError):
    pass


class BudgetExhausted(RuntimeError):
    """Random walk did not reach its stop set within the step budget."""


class BadPath(ValueError):
    """Initial path for conditional sampling is not simple or not anchored."""


class Unconditionable(ValueError):
    """Spanning-tree conditioning has zero probability."""


class NeedsTorus(ValueError):
    """Probe requires a fully wrapped (toroidal) window."""


class Empty(ValueError):
    """Survey found no qualifying component."""


class TooLarge(ValueError):
    """Exact computation would exceed the support-size guard."""


class ConfigError(ValueError):
    """Experiment config failed schema validation (CLI exit code 2)."""


def _is_int(v):
    """An integer of any type, Python or numpy; bools are not integers."""
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


def _check_steps(name, value, least=0):
    """An integer count >= least (any integer when least is None)."""
    if not _is_int(value) or least is not None and value < least:
        floor = "" if least is None else f" >= {least}"
        raise ConfigError(f"{name} must be an integer{floor}, got {value!r}")


def _point(name, v, d=None):
    """The point v as a tuple of Python ints, of length d when d is given: an
    integer (a point of Z^1), or a tuple, list or 1-D array of integers."""
    seq = isinstance(v, (tuple, list)) or getattr(v, "ndim", None) == 1
    if not (_is_int(v) or seq and all(map(_is_int, v))):
        raise ConfigError(f"{name} must be an integer or a sequence of integers, got {v!r}")
    vec = tuple(map(int, v)) if seq else (int(v),)
    if d is not None and len(vec) != d:
        raise BadDimension(f"{name} {vec!r} has {len(vec)} coordinates; "
                           f"the lattice has dimension {d}")
    return vec
