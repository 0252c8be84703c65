"""Finite closure of UIDs and FDs (Cosmadakis–Kanellakis–Vardi).

Constraints mixing UIDs and FDs are *not* finitely controllable: some
dependencies hold in all finite models without holding in all models.
Cosmadakis, Kanellakis, and Vardi [24] showed that finite implication is
axiomatized by adding a **cycle rule** to the unrestricted axioms, and the
paper uses the resulting *finite closure* Σ* to reduce finite monotone
answerability to unrestricted monotone answerability (Thm 7.4 / Cor 7.3).

The cycle rule, in cardinality terms: a UID ``R[i] ⊆ S[j]`` forces
``|adom at (R,i)| ≤ |adom at (S,j)|`` and a unary FD ``i → j`` in R forces
``|adom at (R,j)| ≤ |adom at (R,i)|`` (the FD induces a surjection).  A
directed cycle of such inequalities forces all the cardinalities to be
equal in finite instances, which reverses every UID and every unary FD on
the cycle.  We build the inequality graph, detect strongly connected
components, add all reversals inside each SCC, and iterate together with
the unrestricted closure rules until fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fd import FunctionalDependency, implied_unary_fds
from .graph import DiGraph, strongly_connected_components
from .implication import Position, uid_closure
from .tgd import TGD, inclusion_dependency, id_profile


@dataclass(frozen=True)
class FiniteClosure:
    """The finite closure Σ* of a set of UIDs and FDs."""

    uids: frozenset[tuple[Position, Position]]
    fds: frozenset[FunctionalDependency]

    def uid_tgds(self, arities: dict[str, int]) -> list[TGD]:
        result = []
        for (src_rel, src_pos), (dst_rel, dst_pos) in sorted(self.uids):
            result.append(
                inclusion_dependency(
                    src_rel, (src_pos,), dst_rel, (dst_pos,),
                    arities[src_rel], arities[dst_rel],
                )
            )
        return result


def _inequality_graph(
    uids: Iterable[tuple[Position, Position]],
    unary_fds: Iterable[FunctionalDependency],
) -> DiGraph:
    """Directed graph of cardinality inequalities |source| ≤ |target|."""
    graph = DiGraph()
    for src, dst in uids:
        graph.add_edge(src, dst)
    for dependency in unary_fds:
        (determiner,) = dependency.determiner
        source: Position = (dependency.relation, dependency.determined)
        target: Position = (dependency.relation, determiner)
        graph.add_edge(source, target)
    return graph


def finite_closure(
    uids: Sequence[TGD],
    fds: Sequence[FunctionalDependency],
    arities: dict[str, int],
) -> FiniteClosure:
    """Compute the finite closure Σ* of UIDs + FDs.

    Returns the closed set of UIDs (as position pairs) and FDs.  The
    closure adds only *unary* FDs beyond the input FDs (the cycle rule
    reverses unary FDs); input FDs of any arity are preserved and feed the
    rule through their implied unary FDs.
    """
    uid_pairs: set[tuple[Position, Position]] = set()
    for uid in uids:
        source, source_positions, target, target_positions = id_profile(uid)
        if len(source_positions) != 1:
            raise ValueError(f"finite closure requires UIDs, got {uid}")
        uid_pairs.add(
            ((source, source_positions[0]), (target, target_positions[0]))
        )
    fd_set: set[FunctionalDependency] = set(fds)

    changed = True
    while changed:
        changed = False
        uid_pairs = set(uid_closure(uid_pairs)) | uid_pairs
        unary = {
            dependency
            for relation, arity in arities.items()
            for dependency in implied_unary_fds(
                sorted(fd_set, key=repr), relation, arity
            )
        }
        graph = _inequality_graph(uid_pairs, unary)
        for component in strongly_connected_components(graph):
            if len(component) == 1:
                node = next(iter(component))
                if not graph.has_edge(node, node):
                    continue
            # Reverse every UID and unary FD inside the component.
            for src, dst in list(uid_pairs):
                if src in component and dst in component:
                    if (dst, src) not in uid_pairs:
                        uid_pairs.add((dst, src))
                        changed = True
            for dependency in list(unary):
                (determiner,) = dependency.determiner
                src: Position = (dependency.relation, dependency.determined)
                dst: Position = (dependency.relation, determiner)
                if src in component and dst in component:
                    reverse = FunctionalDependency(
                        dependency.relation,
                        frozenset([dependency.determined]),
                        determiner,
                    )
                    if reverse not in fd_set:
                        fd_set.add(reverse)
                        changed = True
    return FiniteClosure(frozenset(uid_pairs), frozenset(fd_set))
