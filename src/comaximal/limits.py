"""Default size caps.

Every cap can be overridden per call; these are the package-wide
defaults and the values mirrored by the CLI environment variables.
"""

from __future__ import annotations

# Largest ring any constructor will build by default.
DEFAULT_MAX_RING_SIZE = 4096

# Largest vertex count the exact clique/chromatic solvers accept.
DEFAULT_EXACT_VERTEX_CAP = 512

# Largest ring size for which ring isomorphism search is attempted.
DEFAULT_RING_ISO_CAP = 32

# Largest vertex count for the graph isomorphism search.
DEFAULT_GRAPH_ISO_CAP = 2000

# Largest vertex count for canonical certificates.
DEFAULT_CERTIFICATE_CAP = 64

# Up to this ring size a composite ring law (digit ring, product, quotient,
# component) is evaluated once into a flat Cayley table, as a lookup beats
# evaluating it; larger rings call the elementwise function itself.  Z/n
# keeps its modular ops at every size: they cost what a lookup costs.  A
# product groups consecutive factors up to this size, lays each group's
# table out from its factors' tables, and above it looks a pair up once per
# group; a factor above it keeps its own law, so no larger table is made.
TABLE_LIMIT = 256

# Up to this ring size, maximal-ideal enumeration re-derives the answer
# with the brute-force oracle and insists the two agree.
CROSSCHECK_LIMIT = 64
