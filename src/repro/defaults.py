"""Default limits and serving sizes, in a module that imports nothing.

The CLI's parser reads these for its defaults, so ``python -m repro
fleet`` can build its parser without loading the decision core.  The
layers that own each value re-export it: `repro.answerability.deciders`
(chase caps), `repro.containment.rewriting` (the rewriting budget),
`repro.server.pool` (the fingerprint bound) and `repro.server.server`
(the TCP server's shape).
"""

#: Round cap used when no termination guarantee applies.
DEFAULT_CHASE_ROUNDS = 25
#: Fact cap protecting against breadth explosion.
DEFAULT_CHASE_FACTS = 100_000
#: Disjunct budget of the ID route's backward UCQ rewriting.
DEFAULT_MAX_DISJUNCTS = 50_000

#: Default bound on distinct fingerprints held live (LRU past this).
DEFAULT_MAX_FINGERPRINTS = 64

#: Default TCP port (unassigned by IANA; "answerability" has no port).
DEFAULT_PORT = 8765
#: Default bound on queued-or-running decisions (the backpressure gate).
DEFAULT_MAX_PENDING = 64
