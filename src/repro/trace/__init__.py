"""``repro.trace`` — causal span tracing, critical-path analysis, export.

See :mod:`repro.trace.tracer` for the span/context model,
:mod:`repro.trace.analysis` for the breakdown algorithm, and
:mod:`repro.trace.export` for the Perfetto-loadable Chrome format.
"""

from .analysis import breakdown, critical_path
from .export import chrome_trace, text_tree, write_chrome_trace
from .tracer import Span, Tracer, enabled_by_env, maybe_install

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
