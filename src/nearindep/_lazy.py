"""The package's generation and verification names, each imported from its
home module on first access (PEP 562), so that ``compute`` loads neither
module.  ``__init__`` binds this ``__getattr__``; one defined there would
keep the package alive into interpreter shutdown."""

from importlib import import_module

HOMES = dict.fromkeys(("ClassSpec", "gen_class", "gen_forests", "gen_graphs", "gen_trees"), "generate")
HOMES |= dict.fromkeys(("VerificationReport", "Violation", "extremal_scan", "run_theorem"), "verify")


def __getattr__(name: str):
    if name not in HOMES:
        raise AttributeError(f"module {__package__!r} has no attribute {name!r}")
    return getattr(import_module(f".{HOMES[name]}", __package__), name)
