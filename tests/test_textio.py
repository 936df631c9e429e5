import math
import re
from itertools import product

import numpy as np
import pytest

from wfa_hedge.builders import exact_shift_automaton, weighted_shift_automaton
from wfa_hedge.phi import PHI, phi_convert, phi_expand
from wfa_hedge.textio import (read_automaton, read_symbols, write_automaton,
                              write_symbols)
from wfa_hedge.wfa import evaluate

import oracles


def test_symbols_roundtrip(tmp_path):
    path = tmp_path / "x.syms"
    write_symbols(("a", "b", "zz"), path)
    assert read_symbols(path) == ("a", "b", "zz")


def test_symbols_reject_a_repeated_id(tmp_path):
    path = tmp_path / "x.syms"
    path.write_text("a 0\nb 0\n")
    with pytest.raises(ValueError, match=r"symbol id 0 given twice: 'a', 'b'"):
        read_symbols(path)


def test_symbols_reject_a_missing_id(tmp_path):
    path = tmp_path / "x.syms"
    path.write_text("a 0\nc 2\n")
    with pytest.raises(ValueError, match=r"symbol id 1 missing"):
        read_symbols(path)


@pytest.mark.parametrize("line, message", [
    ("c 2 x", r"a symbol line is 'name id', not 'c 2 x'"),
    ("c two", r"symbol id 'two' is not an integer"),
    ("c", r"a symbol line is 'name id', not 'c'"),
])
def test_symbols_name_the_file_line_and_field_of_a_malformed_line(tmp_path, line, message):
    path = tmp_path / "x.syms"
    path.write_text(f"a 0\nb 1\n{line}\n")
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))} line 3: {message}$"):
        read_symbols(path)


def test_automaton_roundtrip_bit_exact(tmp_path):
    w = np.array([[0.9000000000000001, 0.1], [1 / 3, 2 / 3]])
    m = weighted_shift_automaton(w)
    write_automaton(m, tmp_path / "m.fsa")
    write_symbols(m.alphabet, tmp_path / "m.syms")
    again = read_automaton(tmp_path / "m.fsa", tmp_path / "m.syms")
    assert again.initial == 0
    for x in product("ab", repeat=3):
        assert evaluate(again, x) == evaluate(m, x)  # 17 digits: exact


def test_random_machines_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    for i in range(10):
        m = oracles.random_acyclic_wfa(rng, 7)
        write_automaton(m, tmp_path / f"r{i}.fsa")
        write_symbols(m.alphabet, tmp_path / f"r{i}.syms")
        again = read_automaton(tmp_path / f"r{i}.fsa", tmp_path / f"r{i}.syms")
        for x in product("abc", repeat=4):
            assert evaluate(again, x) == evaluate(m, x)


def test_phi_machine_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    p = None
    while p is None or not p.has_phi():
        m = oracles.random_shared_structure_wfa(rng)
        if m is not None:
            p = phi_convert(m)
    write_automaton(p, tmp_path / "p.fsa")
    write_symbols(p.alphabet, tmp_path / "p.syms")
    again = read_automaton(tmp_path / "p.fsa", tmp_path / "p.syms")
    assert any(t.label == PHI for t in again.transitions)
    e1, e2 = phi_expand(p), phi_expand(again)
    for x in product("abc", repeat=3):
        assert evaluate(e1, x) == evaluate(e2, x)


def test_ngram_machine_roundtrips_bit_exact(tmp_path):
    from wfa_hedge.ngram import fixed_share_bigram, ngram_to_wfa
    m = ngram_to_wfa(fixed_share_bigram(3, 2, 11))
    write_automaton(m, tmp_path / "g.fsa")
    write_symbols(m.alphabet, tmp_path / "g.syms")
    again = read_automaton(tmp_path / "g.fsa", tmp_path / "g.syms")
    got = sorted((t.src, t.label, t.weight, t.dst) for t in again.transitions)
    want = sorted((t.src, t.label, t.weight, t.dst) for t in m.transitions)
    assert got == want  # 17 significant digits: weights identical


def test_final_weights_serialized(tmp_path):
    m = exact_shift_automaton(2, 1)
    write_automaton(m, tmp_path / "k.fsa")
    text = (tmp_path / "k.fsa").read_text()
    first_src = int(text.splitlines()[0].split()[0])
    assert first_src == m.initial


@pytest.mark.parametrize("line, message", [
    ("0 1 a x", r"line 2: weight 'x' is not a number"),
    ("0 1.5 a 0.5", r"line 2: destination '1\.5' is not an integer"),
    ("0 1 a 0.5 7", r"line 2: 5 fields; a transition has at most 4"),
    ("0 1 a nan", r"line 2: weight 'nan' is not a number"),
    ("1 NaN", r"line 2: final weight 'NaN' is not a number"),
])
def test_automaton_errors_name_the_line_and_field(tmp_path, line, message):
    (tmp_path / "m.fsa").write_text(f"0 1 b 0.5\n{line}\n1\n")
    write_symbols(("a", "b"), tmp_path / "m.syms")
    with pytest.raises(ValueError, match=r"m\.fsa " + message):
        read_automaton(tmp_path / "m.fsa", tmp_path / "m.syms")


def test_automaton_reads_inf_and_negative_weights(tmp_path):
    # The semiring allows inf, and validate reports a negative weight.
    (tmp_path / "m.fsa").write_text("0 1 a inf\n0 1 b -0.5\n1\n")
    write_symbols(("a", "b"), tmp_path / "m.syms")
    m = read_automaton(tmp_path / "m.fsa", tmp_path / "m.syms")
    assert m.columns.weight.tolist() == [math.inf, -0.5]
