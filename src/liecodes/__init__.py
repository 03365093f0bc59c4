"""Binary and ternary weight codes of simple Lie algebra modules.

Exact construction of the generator matrices, packed-word exhaustive code
analysis over F2 and F3, and a verification suite for every published code
parameter, orthogonality claim and numeric weight table.
"""

from .verify import registered_cases

__version__ = "0.1.0"
