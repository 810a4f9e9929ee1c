"""Benchmark-local oracles, written without calling into mcsim.

Words are plain strings over "0", "1" and "M", most significant digit
first, the same spelling mcsim prints. The evaluators read a circuit's
structure (gate kinds, arguments, tables) but never call mcsim to
evaluate it, so a defect in the timed code cannot hide in its own
reference.
"""

from __future__ import annotations

import itertools

ZERO, ONE, META = 0, 1, 2
_DIGIT = {"0": ZERO, "1": ONE, "M": META}


def stable_words(m: int) -> list[str]:
    """All 2^m stable words in ascending binary order."""
    return [format(v, f"0{m}b") if m else "" for v in range(1 << m)]


def ternary_words(m: int) -> list[str]:
    """All 3^m words in lexicographic order with 0 < 1 < M."""
    return ["".join(t) for t in itertools.product("01M", repeat=m)]


def resolutions(w: str) -> list[str]:
    """Every full resolution of w (each M fixed to 0 or 1)."""
    out = [""]
    for ch in w:
        out = [p + c for p in out for c in ("01" if ch == "M" else ch)]
    return out


def closure(table: dict[str, str], m: int, n: int) -> dict[str, str]:
    """Metastable closure of a Boolean table: a bit is pinned where all
    resolutions of the input agree on it, and M otherwise."""
    out = {}
    for x in ternary_words(m):
        ys = [table[y] for y in resolutions(x)]
        out[x] = "".join(ys[0][i] if all(y[i] == ys[0][i] for y in ys) else "M"
                         for i in range(n))
    return out


def _gate_bool(kind: str, table, a: list[int]) -> int:
    if kind == "AND":
        return int(all(a))
    if kind == "OR":
        return int(any(a))
    if kind == "NAND":
        return 1 - int(all(a))
    if kind == "NOR":
        return 1 - int(any(a))
    if kind == "NOT":
        return 1 - a[0]
    if kind == "BUF":
        return a[0]
    if kind == "XOR":
        return a[0] ^ a[1]
    if kind == "CONST0":
        return 0
    if kind == "CONST1":
        return 1
    if kind == "TABLE":
        idx = 0
        for bit in a:
            idx = (idx << 1) | bit
        return int(table[idx])
    raise ValueError(f"unknown gate kind {kind!r}")


def bool_eval(dag, x: str) -> str:
    """Boolean value of a DAG on a stable word, one digit per input node."""
    vals = {name: int(ch) for name, ch in zip(dag.inputs, x)}
    for g in dag.gates:
        vals[g.gid] = _gate_bool(g.kind, g.table, [vals[s] for s in g.args])
    return "".join(str(vals[src]) for _, src in dag.outputs)


def _gate_ternary(kind: str, table, a: list[int]) -> int:
    if META not in a:
        return _gate_bool(kind, table, a)
    if kind in ("CONST0", "CONST1"):
        return _gate_bool(kind, table, a)
    if kind == "BUF":
        return META
    seen = set()
    for choice in itertools.product(*[(0, 1) if v == META else (v,) for v in a]):
        seen.add(_gate_bool(kind, table, list(choice)))
        if len(seen) == 2:
            return META
    return seen.pop()


def ternary_eval(dag, x: str) -> str:
    """Worst-case (Kleene) value of a DAG on a ternary word: each gate
    gives b when all resolutions of its inputs give b, and M otherwise."""
    vals = {name: _DIGIT[ch] for name, ch in zip(dag.inputs, x)}
    for g in dag.gates:
        vals[g.gid] = _gate_ternary(g.kind, g.table, [vals[s] for s in g.args])
    return "".join("01M"[vals[src]] for _, src in dag.outputs)


def contains(cube: str, w: str) -> bool:
    """True iff w is a partial resolution of cube."""
    return len(cube) == len(w) and all(c == "M" or c == d for c, d in zip(cube, w))


def state_in(cube: str, state: str, m: int) -> bool:
    """Membership of a concrete state in a state cube: the first m (input)
    digits are exact contents, the rest denote every partial resolution."""
    return (len(cube) == len(state) and cube[:m] == state[:m]
            and contains(cube[m:], state[m:]))


def tc_values(w: str) -> set[int]:
    """Decoded values of every full resolution of a thermometer word
    (zeros then ones, or ones then zeros); raises on a non-codeword."""
    out = set()
    for y in resolutions(w):
        ones = y.count("1")
        if y not in ("0" * (len(y) - ones) + "1" * ones,
                     "1" * ones + "0" * (len(y) - ones)):
            raise ValueError(f"{w} resolves to non-codeword {y}")
        out.add(ones)
    return out


def tc_word(v: int, width: int) -> str:
    """The canonical (zeros first) thermometer word of v."""
    return "0" * (width - v) + "1" * v
