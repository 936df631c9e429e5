"""Plain-text automaton format.

One record per line:

    src dst label weight        transition
    state [final_weight]        final state (weight defaults to 1)

The source of the first transition line is the initial state.  Labels
are symbol names resolved through a sidecar symbol table with lines
``name id``; the reserved token ``<phi>`` marks failure transitions.
Weights are written with 17 significant digits so round-trips are exact.
"""

from __future__ import annotations

import os
from typing import Union

from .phi import PHI, PhiWfa
from .wfa import Transition, Wfa

__all__ = ["write_symbols", "read_symbols", "write_automaton", "read_automaton"]

Machine = Union[Wfa, PhiWfa]


def _fmt(w: float) -> str:
    return format(w, ".17g")


def _number(text: str, kind: type, where: str, field: str):
    """``text`` as an int or a float other than NaN, which every path sum
    reads as a dead edge (NaN > 0 is false); else ValueError naming
    ``where`` and the field."""
    try:
        value = kind(text)
        if value == value:
            return value
    except ValueError:
        pass
    raise ValueError(f"{where}: {field} {text!r} is not "
                     + ("an integer" if kind is int else "a number"))


def write_symbols(alphabet, path: Union[str, os.PathLike]) -> None:
    with open(path, "w") as fh:
        for i, name in enumerate(alphabet):
            fh.write(f"{name} {i}\n")


def read_symbols(path: Union[str, os.PathLike]) -> tuple[str, ...]:
    """The alphabet of a ``name id`` table whose ids are 0..n-1, each
    once; raises ValueError naming a repeated or a missing id, or the
    file and line of a line that is not a name and an integer id."""
    table: dict[int, str] = {}
    with open(path) as fh:
        for row, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            where = f"{path} line {row}"
            if len(parts) != 2:
                raise ValueError(f"{where}: a symbol line is 'name id', not {line.strip()!r}")
            name, sid = parts[0], _number(parts[1], int, where, "symbol id")
            if sid in table:
                raise ValueError(f"symbol id {sid} given twice: {table[sid]!r}, {name!r}")
            table[sid] = name
    names = [table.get(i) for i in range(len(table))]
    if None in names:
        raise ValueError(f"symbol id {names.index(None)} missing: ids must run 0..{len(names) - 1}")
    return tuple(names)


def write_automaton(machine: Machine, path: Union[str, os.PathLike]) -> None:
    # The format pins the initial state to the first line's source, so
    # transitions leaving the initial state are written first.
    ts = sorted(machine.transitions, key=lambda t: t.src != machine.initial)
    if ts and ts[0].src != machine.initial:
        raise ValueError("initial state has no outgoing transition; not expressible")
    lines = [f"{t.src} {t.dst} {t.label} {_fmt(t.weight)}" for t in ts]
    for q in sorted(machine.finals):
        w = machine.finals[q]
        lines.append(f"{q}" if w == 1.0 else f"{q} {_fmt(w)}")
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_automaton(path: Union[str, os.PathLike],
                   symbols_path: Union[str, os.PathLike]) -> Machine:
    alphabet = read_symbols(symbols_path)
    known = set(alphabet) | {PHI}
    transitions: list[Transition] = []
    finals: dict[int, float] = {}
    initial = None
    max_state = -1
    with open(path) as fh:
        for row, line in enumerate(fh, 1):
            parts = line.split()
            if not parts:
                continue
            where = f"{path} line {row}"
            if len(parts) > 4:
                raise ValueError(f"{where}: {len(parts)} fields; a transition has at most 4")
            if len(parts) >= 3:
                src = _number(parts[0], int, where, "source")
                dst = _number(parts[1], int, where, "destination")
                label = parts[2]
                if label not in known:
                    raise ValueError(f"{where}: unknown symbol {label!r}")
                weight = _number(parts[3], float, where, "weight") if len(parts) > 3 else 1.0
                if initial is None:
                    initial = src
                transitions.append(Transition(src, label, weight, dst))
                max_state = max(max_state, src, dst)
            else:
                q = _number(parts[0], int, where, "state")
                finals[q] = (_number(parts[1], float, where, "final weight") if len(parts) == 2
                             else 1.0)
                max_state = max(max_state, q)
    if initial is None:
        initial = 0
    num_states = max(max_state + 1, 1)
    has_phi = any(t.label == PHI for t in transitions)
    if has_phi:
        return PhiWfa(alphabet, num_states, initial, finals, transitions)
    return Wfa(alphabet, num_states, initial, finals, transitions)
