"""A re-export of ``bn2.basis.fraction_text``, the text of a rational given
as two integers.  No package module imports this one and no command loads
it; it stays, until the benchmark's tracer (``perfbench/tracer.py``) no
longer hooks it by name, as that tracer's ``exactnum`` layer.
"""

from bn2.basis import fraction_text

__all__ = ["fraction_text"]
