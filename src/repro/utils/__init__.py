"""Utility helpers: module checkpointing."""

from .. import _lazy_exports

__all__, __getattr__, __dir__ = _lazy_exports(globals(), {
    "checkpoint": ("save_module", "load_module", "module_arrays"),
})
