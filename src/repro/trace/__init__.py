"""``repro.trace`` — causal span tracing, critical-path analysis, export.

See :mod:`repro.trace.tracer` for the span/context model,
:mod:`repro.trace.analysis` for the breakdown algorithm, and
:mod:`repro.trace.export` for the Perfetto-loadable Chrome format.

Importing the package loads only the tracer's names, which every
cluster reads to install (or not) a tracer; the analysis and export
functions load their submodule on first access
(:func:`repro.lazy_exports`), so a run that never analyses or exports a
trace never imports them.
"""

from .. import lazy_exports
from .tracer import Span, Tracer, enabled_by_env, maybe_install

__getattr__ = lazy_exports(globals(), {
    ".analysis": ("breakdown", "critical_path"),
    ".export": ("chrome_trace", "text_tree", "write_chrome_trace"),
})

__all__ = [
    "Span",
    "Tracer",
    "breakdown",
    "chrome_trace",
    "critical_path",
    "enabled_by_env",
    "maybe_install",
    "text_tree",
    "write_chrome_trace",
]
