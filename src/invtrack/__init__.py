"""Invariant tracking and estimation on the planar rigid motions.

A wheeled robot measured through squared distances to known landmarks,
with a symmetry-preserving observer and tracking controller whose error
dynamics freeze into constant linear systems along constant-input
reference paths, so the two designs can be certified separately and then
composed.
"""

__version__ = "0.1.0"
