"""Exception types shared across the package, and the count check that
raises one."""

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


def _check_steps(name, value, least=0):
    """An integer count >= least (any integer when least is None); bools
    are not counts."""
    if (not isinstance(value, numbers.Integral) or isinstance(value, bool)
            or least is not None and value < least):
        floor = "" if least is None else f" >= {least}"
        raise ConfigError(f"{name} must be an integer{floor}, got {value!r}")
