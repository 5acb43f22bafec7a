"""Consensus on interval sets.

Exact algebra of finite interval unions, set-valued update maps, their
binary cell encodings, and the convergence analyzers and simulator built on
top of them.  The package exports what the README's library sketch uses;
everything else is imported from its module (``setcons.analysis``,
``setcons.sim``, ...).
"""

from .analysis import is_contractive_sbm
from .encoding import build_partition, translate_map
from .expr import SetMap
from .intervals import Interval, Universe, parse_interval_set

__version__ = "0.1.0"
