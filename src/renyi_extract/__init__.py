"""Renyi-divergence uniformity certification for k*-universal leftover hashing.

The top level holds the names of the README's quick start, each imported
from its module on first access, so that importing a submodule, the CLI
for one, loads no other through the package; everything else is imported
from its module.
"""

__version__ = "0.1.0"

# Each quick-start name and the module that defines it.
_HOMES = {
    "Alpha": "measures",
    "FieldParams": "fields",
    "HashFamily": "families",
    "Pmf": "measures",
    "Source": "measures",
    "certify_k_star": "families",
    "empirical_divergences": "measures",
    "extract_joint": "extraction",
}
__all__ = list(_HOMES)


def __getattr__(name):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value
    return value
