"""Structural analysis of dependency sets.

Provides the graph-theoretic notions the paper's complexity results rely
on:

* the **basic position graph** of a set of TGDs (App E.4): nodes are
  relation positions, with an edge when an exported variable flows from a
  body position to a head position;
* **semi-width** (§5): a set of IDs has semi-width ≤ w if it splits into a
  part of width ≤ w and a part with acyclic position graph;
* **weak acyclicity** (Fagin et al.), which guarantees chase termination —
  used to pick complete chase bounds;
* a **constraint-class classifier** used by the answerability dispatcher.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

from .egd import EGD
from .fd import FunctionalDependency
from .graph import DiGraph, is_acyclic, reachable
from .tgd import TGD

Dependency = Union[TGD, EGD, FunctionalDependency]


def position_graph(tgds: Iterable[TGD]) -> DiGraph:
    """The basic position graph: exported-variable flow between positions."""
    graph = DiGraph()
    for dependency in tgds:
        exported = set(dependency.exported_variables())
        for body_atom in dependency.body:
            for i, term in enumerate(body_atom.terms):
                if term in exported:
                    for head_atom in dependency.head:
                        for j, head_term in enumerate(head_atom.terms):
                            if head_term == term:
                                graph.add_edge(
                                    (body_atom.relation, i),
                                    (head_atom.relation, j),
                                )
    return graph


def dependency_graph(tgds: Iterable[TGD]) -> DiGraph:
    """The weak-acyclicity graph: regular and special (starred) edges.

    Edges carry attribute ``special=True`` when an exported variable in a
    body position co-occurs with an existential variable in the head atom
    (a position where fresh nulls are created).
    """
    graph = DiGraph()
    for dependency in tgds:
        exported = set(dependency.exported_variables())
        existential = set(dependency.existential_variables())
        for body_atom in dependency.body:
            for i, term in enumerate(body_atom.terms):
                if term not in exported:
                    continue
                source = (body_atom.relation, i)
                for head_atom in dependency.head:
                    for j, head_term in enumerate(head_atom.terms):
                        if head_term == term:
                            if not graph.has_edge(
                                source, (head_atom.relation, j)
                            ):
                                graph.add_edge(
                                    source,
                                    (head_atom.relation, j),
                                    special=False,
                                )
                        elif head_term in existential:
                            graph.add_edge(
                                source,
                                (head_atom.relation, j),
                                special=True,
                            )
    return graph


def is_weakly_acyclic(tgds: Iterable[TGD]) -> bool:
    """True iff no cycle of the dependency graph uses a special edge."""
    graph = dependency_graph(tgds)
    for src, dst, data in graph.edges(data=True):
        if data.get("special") and reachable(graph, dst, src):
            return False
    return True


def has_acyclic_position_graph(tgds: Iterable[TGD]) -> bool:
    graph = position_graph(tgds)
    return is_acyclic(graph)


def semi_width(tgds: Sequence[TGD]) -> int:
    """Smallest w such that the IDs split into width ≤ w + acyclic parts.

    Greedy computation: for each candidate w (from 0 up to the maximum
    width present), check whether the dependencies of width > w have an
    acyclic position graph; the smallest such w is the semi-width.
    """
    widths = sorted({dependency.width for dependency in tgds})
    for candidate in [0] + widths:
        wide = [d for d in tgds if d.width > candidate]
        if has_acyclic_position_graph(wide):
            return candidate
    return max(widths) if widths else 0


class ConstraintClass(enum.Enum):
    """Constraint fragments from Table 1 of the paper."""

    NONE = "no constraints"
    FDS = "functional dependencies"
    IDS = "inclusion dependencies"
    BOUNDED_WIDTH_IDS = "bounded-width inclusion dependencies"
    UIDS_AND_FDS = "unary inclusion dependencies and FDs"
    FULL_TGDS = "full TGDs"
    GUARDED_TGDS = "guarded TGDs"
    FRONTIER_GUARDED_TGDS = "frontier-guarded TGDs"
    EQUALITY_FREE = "equality-free first-order (arbitrary TGDs)"
    MIXED = "TGDs mixed with FDs (general)"


@dataclass(frozen=True)
class ClassifiedConstraints:
    """A dependency set split by kind, with its detected fragment."""

    tgds: tuple[TGD, ...]
    fds: tuple[FunctionalDependency, ...]
    egds: tuple[EGD, ...]
    fragment: ConstraintClass

    @property
    def all(self) -> tuple[Dependency, ...]:
        return self.tgds + self.fds + self.egds


def classify(
    constraints: Iterable[Dependency],
    *,
    width_bound: Optional[int] = 2,
) -> ClassifiedConstraints:
    """Split a dependency set by kind and detect its Table-1 fragment.

    ``width_bound`` controls when an ID set counts as "bounded-width"
    (the paper's NP case); pass None to disable that detection.
    """
    tgds: list[TGD] = []
    fds: list[FunctionalDependency] = []
    egds: list[EGD] = []
    for constraint in constraints:
        if isinstance(constraint, TGD):
            tgds.append(constraint)
        elif isinstance(constraint, FunctionalDependency):
            fds.append(constraint)
        elif isinstance(constraint, EGD):
            egds.append(constraint)
        else:
            raise TypeError(f"unsupported constraint: {constraint!r}")

    fragment = _detect_fragment(tgds, fds, egds, width_bound)
    return ClassifiedConstraints(
        tuple(tgds), tuple(fds), tuple(egds), fragment
    )


def _detect_fragment(
    tgds: Sequence[TGD],
    fds: Sequence[FunctionalDependency],
    egds: Sequence[EGD],
    width_bound: Optional[int],
) -> ConstraintClass:
    if not tgds and not fds and not egds:
        return ConstraintClass.NONE
    if egds:
        return ConstraintClass.MIXED
    if not tgds:
        return ConstraintClass.FDS
    all_ids = all(d.is_inclusion_dependency() for d in tgds)
    if not fds:
        if all_ids:
            if width_bound is not None and all(
                d.width <= width_bound for d in tgds
            ):
                return ConstraintClass.BOUNDED_WIDTH_IDS
            return ConstraintClass.IDS
        if all(d.is_full() for d in tgds):
            return ConstraintClass.FULL_TGDS
        if all(d.is_guarded() for d in tgds):
            return ConstraintClass.GUARDED_TGDS
        if all(d.is_frontier_guarded() for d in tgds):
            return ConstraintClass.FRONTIER_GUARDED_TGDS
        return ConstraintClass.EQUALITY_FREE
    if all_ids and all(d.is_unary_inclusion_dependency() for d in tgds):
        return ConstraintClass.UIDS_AND_FDS
    return ConstraintClass.MIXED
