"""Numerical verification toolkit for the moment-curve line transform.

Import each name from the submodule that defines it, for example
``from momentray.transform import bilinear_form``; the package itself holds
only ``__version__``.
"""

__version__ = "0.1.0"
