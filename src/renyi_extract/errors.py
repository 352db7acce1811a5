"""Shared exception types, and the one rule that refuses a phase over budget."""


class BudgetExceededError(RuntimeError):
    """An exhaustive enumeration would exceed the configured evaluation budget."""


class ConfigError(ValueError):
    """An experiment configuration failed validation."""


def charge(cells: int, budget: int, what: str) -> None:
    """Refuse a phase of ``cells`` cells over ``budget``; ``what`` names the
    phase and its formula in the message.  The code that runs each phase calls
    this before it runs it."""
    if cells > budget:
        raise BudgetExceededError(f"{what} exceeds budget {budget}")
