"""Twin classes as robber columns (Kemeny and Snell, Finite Markov Chains,
1960, 6.3: lumpability).

Swapping two twins (see `graphs.twin_classes`) is an automorphism. On the
solver's quotient by the twin swaps (see `solver._StateSpace`) the free
members of a class, those no cop occupies, share their value, because a
swap that fixes the row exchanges them; occupied members are worth 0. So a
table keeps one robber column per class, holding its free members' value,
and a row is the least configuration of its orbit. Every space has this
layout, with one-vertex classes (the identity lumping) where none lumps.
`TwinColumns` holds what it needs: the least configuration twin swaps
reach, the members each row leaves free, the robber's steps between classes
(read off one member's neighbour row per class) and the correction for the
occupied members they count, and the states where a cop steps onto the
robber, which a class column cannot record.
"""

from __future__ import annotations

import functools

import numpy as np

from .graphs import Graph, _ragged, twin_quotient


class TwinColumns:
    """The classes of g, a `graphs.twin_classes` label or np.arange(n), and
    the robber's graph on them (`robber`, the twin quotient). `lumps` is
    False when every class is one vertex: then `robber` is g, and `columns`
    and `canonical` return their input."""

    def __init__(self, g: Graph, label: np.ndarray):
        self.g, self.label = g, label
        self.lumps = int(label.max()) < g.n - 1
        self.robber = twin_quotient(g, label) if self.lumps else g
        self.members = np.argsort(label, kind="stable")  # by class, then vertex
        self.size = np.bincount(label)
        self.first = np.cumsum(self.size) - self.size  # each class's start in members
        self.place = np.argsort(self.members, kind="stable") - self.first[label]  # in its class
        self.closed = np.zeros(len(self.size), dtype=bool)  # classes with inner edges
        for cls in np.flatnonzero(self.size > 1).tolist():
            u, v = self.members[self.first[cls]:][:2].tolist()
            self.closed[cls] = v in g.adjacency[u]

    def columns(self, group: np.ndarray) -> np.ndarray:
        """How each row of `group`, vertex permutations, permutes the classes."""
        return self.label[group[:, self.members[self.first]]] if self.lumps else group

    def canonical(self, cfgs: np.ndarray) -> np.ndarray:
        """Each sorted k-tuple along the last axis of cfgs with the cops of
        every class moved onto the class's first members, the most stacked
        vertex on the first: the least tuple that twin swaps reach, since
        moving cops onto a lower vertex lowers a sorted tuple."""
        if not self.lumps:
            return cfgs
        label, k = self.label, cfgs.shape[-1]
        if k == 1:
            return self.members[self.first[label[cfgs]]]
        stacked = (cfgs[..., :, None] == cfgs[..., None, :]).sum(axis=-1)
        cls = label[cfgs]
        key = (cls * (k + 1) + k - stacked) * len(label) + cfgs
        order = np.argsort(key, axis=-1, kind="stable")
        v = np.take_along_axis(cfgs, order, axis=-1)
        cls = np.take_along_axis(cls, order, axis=-1)
        fresh = np.ones(v.shape, dtype=bool)  # a vertex's first entry
        fresh[..., 1:] = v[..., 1:] != v[..., :-1]
        head = np.ones(v.shape, dtype=bool)  # a class's first entry
        head[..., 1:] = cls[..., 1:] != cls[..., :-1]
        seen = np.cumsum(fresh, axis=-1)
        within = seen - np.maximum.accumulate(np.where(head, seen, 0), axis=-1)
        return np.sort(self.members[self.first[cls] + within], axis=-1, kind="stable")

    def free(self, cfgs: np.ndarray) -> np.ndarray:
        """Per sorted configuration row of cfgs and class, how many members
        the row leaves free, as one float table; 0 where it occupies all."""
        distinct = np.ones(cfgs.shape, dtype=bool)
        distinct[:, 1:] = cfgs[:, 1:] != cfgs[:, :-1]
        rows, columns = len(cfgs), len(self.size)
        taken = (np.arange(rows)[:, None] * columns + self.label[cfgs])[distinct]
        free = np.bincount(taken, np.full(len(taken), -1.0), rows * columns).reshape(rows, columns)
        free += self.size
        return free

    @functools.cached_property
    def walk(self) -> tuple[np.ndarray, np.ndarray]:
        """The robber's steps between classes as (width x columns) class and
        weight tables: column K lists in ascending order the classes L that N(y)
        meets for y in class K, with the share of N(y) in L, and weight 0 below."""
        flat, start, deg = self.g._neighbor_table(closed=False)
        reps = self.members[self.first]
        columns, deg = len(reps), deg[reps]
        steps = self.label[flat[_ragged(start[reps], deg)]]
        # each class's neighbour classes, sorted: a run of one class is one entry
        key = np.sort(np.repeat(np.arange(columns) * columns, deg) + steps, kind="stable")
        head = np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))
        row, cls = np.divmod(key[head], columns)
        at = np.arange(len(row)) - np.searchsorted(row, row)  # place in its row
        cols = np.zeros((at.max() + 1, columns), dtype=np.int64)
        weight = np.zeros(cols.shape)
        cols[at, row], weight[at, row] = cls, np.diff(head, append=len(key)) / deg[row]
        return cols, weight

    def smear_plan(self, cfgs: np.ndarray, occupied: np.ndarray) -> list:
        """What `smear` reads of the rows cfgs (occupied: their `occupied` mask)
        besides `walk`: per cop slot i, the flat indices of the states whose robber
        neighbours the i-th cop, the flat index of its class column, and 1 / deg
        of the robber's vertex. Only a cop in a class that keeps free members
        counts, each vertex once, and not for the robber on its twin: every state
        one cop step before such a state is capturable, and reads no smear."""
        deg = self.g._neighbor_table(closed=False)[2][self.members[self.first]]
        flat, start, size = self.robber._neighbor_table(closed=False)
        columns, corrections = len(deg), []
        for i in range(cfgs.shape[1]):
            cop = self.label[cfgs[:, i]]
            keep = ~occupied[np.arange(len(cfgs)), cop] & (self.size[cop] > 1)
            if i:
                keep &= cfgs[:, i] != cfgs[:, i - 1]
            row, cop = np.flatnonzero(keep) * columns, cop[keep]
            dst = flat[_ragged(start[cop], size[cop])]
            row, src = np.repeat(row, size[cop]), np.repeat(row + cop, size[cop])
            if len(dst):
                corrections.append((row + dst, src, 1.0 / deg[dst]))
        return corrections

    def smear(self, corrections: list, C: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> None:
        """out = the smear of the class table C by `walk` and its rows' `smear_plan`
        before the occupied columns are zeroed: a gather-add over the classes each
        class steps to, through `scratch` (a table like out), counting each member
        at its class's free value, minus those a cop occupies (rank k)."""
        cols, weight = self.walk
        # mode="clip": with the default "raise", take fills `out` through a buffer
        C.take(cols[0], axis=1, out=out, mode="clip")
        out *= weight[0]
        for idx, w in zip(cols[1:], weight[1:]):
            C.take(idx, axis=1, out=scratch, mode="clip")
            scratch *= w
            out += scratch
        for dst, src, weight in corrections:  # distinct dst within a slot
            out.reshape(-1)[dst] -= C.reshape(-1)[src] * weight

    def capturable(self, cfgs: np.ndarray, occupied: np.ndarray) -> np.ndarray:
        """Flat indices of the free states of the rows cfgs (occupied: their
        `occupied` mask) where a cop can step onto the robber; their value
        is 1."""
        flat, start, size = self.robber._neighbor_table(closed=False)
        near = np.zeros(occupied.shape, dtype=bool)
        rows = np.arange(len(cfgs))
        for cls in self.label[cfgs].T:
            near[np.repeat(rows, size[cls]), flat[_ragged(start[cls], size[cls])]] = True
            near[rows, cls] |= self.closed[cls]
        return np.flatnonzero(near & ~occupied)
