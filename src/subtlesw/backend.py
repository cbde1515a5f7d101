"""The reduction kernel in use.

There is one kernel, :mod:`subtlesw._reduction`.  These two functions name
it for tools that report or instrument it; the Groebner layer looks
``normal_form_terms`` up on that module at every call, so a wrapper bound
there sees every reduction.
"""

from __future__ import annotations

from . import _reduction


def active():
    """The module providing ``normal_form_terms``."""
    return _reduction


def name():
    return "pure"
