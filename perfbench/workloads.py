"""The four benchmark workloads: seeded inputs, timed steps and output checks.

``WORKLOADS`` maps each name to four functions:

* ``make_inputs(seed, params)`` builds the inputs with stdlib ``random``.
  The package only ever sees them as text or level strings.
* the steps, a list of ``(step name, function)`` run in order inside the
  timed region.  Every call into the package goes through ``call(name, fn,
  *args)`` so that a traced run can record one span per outside call.
* ``check(state, params, expected)`` runs after the timed region and returns
  ``(check name, ok)`` pairs.
* ``counts(state, expected)`` returns exact per-layer counts read off the
  return values.

``PARAMS`` holds a ``full`` size (the benchmark) and a ``tiny`` size (the
benchmark's own tests).  Recorded reference outputs live in expected.json.
"""

from __future__ import annotations

import hashlib
import random

from substreetution import (
    acceptance,
    engine,
    jacaranda,
    measures,
    preimages,
    render,
    systems,
    trees,
    words,
)
from substreetution.errors import Shallow

BBAB = engine.BBAB

PARAMS = {
    "paper-gates": {
        "full": {"gates": list(range(1, 14))},
        "tiny": {"gates": [1, 2, 4, 5, 6, 9, 11]},
    },
    "fixed-tree": {
        "full": {
            "fix_depth": 20, "trunc": 18, "max_n": 8, "unsubs": 3,
            "sites_per_level": 12, "sweep_depth": 16, "sweep_max": 7,
            "pn_depths": [1, 2, 3, 4, 5, 6], "pn_n": 3, "orbit_depth": 18,
        },
        "tiny": {
            "fix_depth": 10, "trunc": 9, "max_n": 4, "unsubs": 2,
            "sites_per_level": 3, "sweep_depth": 9, "sweep_max": 3,
            "pn_depths": [1, 2], "pn_n": 2, "orbit_depth": 12,
        },
    },
    "random-inputs": {
        "full": {
            "big_depth": 16, "big_n": 3, "renorm": 20, "renorm_depth": 6,
            "roundtrips": 300, "roundtrip_depths": 8, "words": 12,
            "word_len": 256, "graphs": 12, "graph_states": 48,
        },
        "tiny": {
            "big_depth": 7, "big_n": 2, "renorm": 2, "renorm_depth": 4,
            "roundtrips": 16, "roundtrip_depths": 4, "words": 3,
            "word_len": 16, "graphs": 6, "graph_states": 8,
        },
    },
    "tiling": {
        "full": {"prefix": 18, "resolution": 512, "words": 3, "tree_depth": 10},
        "tiny": {"prefix": 6, "resolution": 48, "words": 2, "tree_depth": 4},
    },
}


def digest(text: str) -> str:
    return hashlib.blake2b(text.encode("ascii"), digest_size=16).hexdigest()


# -- paper-gates ----------------------------------------------------------------


def paper_gates_inputs(seed, params):
    # The gates carry their own fixed data; the seed is recorded but unused.
    return {}


def paper_gates_run(state, call):
    """acceptance.run_all's loop, one outside call per gate."""
    results = {}
    for k, (name, fn) in enumerate(acceptance.CRITERIA, start=1):
        if k in state["params"]["gates"]:
            results[k] = (name, *call(f"acceptance.gate{k:02d}", fn))
    state["results"] = results


def paper_gates_check(state, params, expected):
    table = expected["paper-gates"]["table"]
    out = []
    for k in params["gates"]:
        want = table[k - 1]
        got = state["results"].get(k)
        # Gate 6 is red by design: its expected verdict is False.
        out.append((f"gate{k:02d}", got is not None and list(got) == want))
    return out


def paper_gates_counts(state, expected):
    table = expected["paper-gates"]["table"]
    return {"acceptance.gates_as_expected": sum(
        list(got) == table[k - 1] for k, got in state["results"].items()
    )}


# -- fixed-tree -----------------------------------------------------------------


def fixed_tree_inputs(seed, params):
    return {"rng": random.Random(seed)}


def fixed_tree_prefix(state, call):
    p = state["params"]
    prefix = call("engine.fixed_point_prefix", engine.fixed_point_prefix, BBAB, 0, p["fix_depth"])
    text = call("trees.dump_patch", trees.dump_patch, prefix)
    state["prefix"] = prefix
    state["patch"] = call("trees.parse_patch", trees.parse_patch, text)


def fixed_tree_lines(state, call):
    depth = state["patch"].depth
    state["formulas"] = [
        call("words.line_formula", words.line_formula, m) for m in range(1, depth + 1)
    ]


def fixed_tree_distinct(state, call):
    p = state["params"]
    jp = call("trees.truncate", state["patch"].truncate, p["trunc"])
    state["jp"] = jp
    state["distinct"] = [
        len(call("trees.distinct_subpatches", trees.distinct_subpatches, jp, n))
        for n in range(p["max_n"] + 1)
    ]


def fixed_tree_unsub(state, call):
    q = state["patch"]
    chain = []
    for _ in range(state["params"]["unsubs"]):
        q = call("engine.unsub", engine.unsub, BBAB, q)
        chain.append(q)
    state["unsub_chain"] = chain


def fixed_tree_brothers(state, call):
    """detect_type and brother at sampled b-siblings of 1-0 pairs.

    A fixed number of sites per generation keeps the work alike across
    seeds: deep generations hold many small windows, shallow ones few large.
    """
    jp, rng = state["jp"], state["rng"]
    per_level = state["params"]["sites_per_level"]
    rows = []  # (m, i, type report, predicted sibling or None when too shallow)
    for m in range(jp.depth - 2):
        below = jp.levels[m + 1]
        pairs = [i for i in range(1 << m) if below[2 * i : 2 * i + 2] == "10"]
        for i in sorted(rng.sample(pairs, min(per_level, len(pairs)))):
            b = call("trees.window", jp.window, m + 1, 2 * i + 1, jp.depth - m - 1)
            report = call("jacaranda.detect_type", jacaranda.detect_type, b)
            try:
                pred = call("jacaranda.brother", jacaranda.brother, b, words.v2(m + 1))
            except Shallow:
                pred = None
            rows.append((m, i, report, pred))
    state["brothers"] = rows


def fixed_tree_sweep(state, call):
    p = state["params"]
    jp16 = call("jacaranda.jacaranda_prefix", jacaranda.jacaranda_prefix, p["sweep_depth"])
    state["jp16"] = jp16
    state["sweep"] = call("preimages.crosscheck_sweep", preimages.crosscheck_sweep, jp16, p["sweep_max"])


def fixed_tree_pn(state, call):
    p = state["params"]
    jp16, rng = state["jp16"], state["rng"]
    got = []
    for d in p["pn_depths"]:
        m = rng.randrange(jp16.depth - d - p["pn_n"] + 1)
        i = rng.randrange(1 << m)
        a = call("trees.window", jp16.window, m, i, d)
        got.append(call("preimages.p_n", preimages.p_n, a, p["pn_n"], jp16))
    state["pn"] = got


def fixed_tree_orbit(state, call):
    seed = call("systems.nomeasure_tree", systems.nomeasure_tree, 0, state["params"]["orbit_depth"])
    state["orbit"] = call("systems.build_orbit_graph", systems.build_orbit_graph, seed, 6)


def _parity(levels):
    """detect_type's parity rule: which alternate lines are "10" repetitions."""
    odd = all(row == "10" * (len(row) // 2) for row in levels[2::2])
    even = all(row == "10" * (len(row) // 2) for row in levels[1::2])
    return {(True, True): "undetermined", (True, False): "odd", (False, True): "even"}[odd, even]


def fixed_tree_check(state, params, expected):
    exp = expected["fixed-tree"][state["size"]]
    patch = state["patch"]
    out = [
        ("dump-parse-roundtrip", patch == state["prefix"] and patch.depth == params["fix_depth"]),
        ("lines-match-formula", all(
            f == patch.line(m) for m, f in enumerate(state["formulas"], start=1)
        )),
        ("distinct-counts", state["distinct"] == exp["distinct"]),
    ]
    # unsub maps the depth-d prefix of the fixed tree to its depth-(d-1)//2 prefix.
    d, ok = patch.depth, True
    for q in state["unsub_chain"]:
        d = (d - 1) // 2
        ok = ok and q == patch.truncate(d)
    out.append(("unsub-chain", ok))
    jp, rows = state["jp"], state["brothers"]
    ok = any(pred is not None for *_, pred in rows)
    for m, i, report, pred in rows:
        ok = ok and report.parity == _parity(jp.window(m + 1, 2 * i + 1, jp.depth - m - 1).levels)
        if pred is not None:
            actual = jp.window(m + 1, 2 * i, jp.depth - m - 1)
            k = min(pred.depth, actual.depth)
            ok = ok and pred.truncate(k) == actual.truncate(k)
    out.append(("brothers-and-types", ok))
    rep, combos = state["sweep"]
    out.append(("crosscheck-zero-mismatches", rep.ok and not rep.mismatches and combos > 0))
    out.append(("p_n-bound", all(1 <= c <= 3 ** params["pn_n"] for c in state["pn"])))
    out.append(("orbit-states", len(state["orbit"].states) == 6))
    return out


def fixed_tree_counts(state, expected):
    rep, combos = state["sweep"]
    return {
        "trees.distinct_subtrees": sum(state["distinct"]),
        "jacaranda.brother_sites": sum(pred is not None for *_, pred in state["brothers"]),
        "jacaranda.brother_skipped": sum(pred is None for *_, pred in state["brothers"]),
        "preimages.occurrences": rep.occurrences,
        "preimages.combinations_checked": combos,
        "preimages.undetermined_sites": rep.undetermined_sites,
        "preimages.checked_ratio": combos / rep.occurrences,
        "systems.orbit_states": len(state["orbit"].states),
    }


# -- random-inputs --------------------------------------------------------------


def _bits(rng, n):
    return format(rng.getrandbits(n), f"0{n}b")


def _levels(rng, depth):
    return tuple(_bits(rng, 1 << l) for l in range(depth + 1))


def _graph_text(rng, n, permutations):
    if permutations:
        a, b = list(range(n)), list(range(n))
        rng.shuffle(a)
        rng.shuffle(b)
    else:
        a = [rng.randrange(n) for _ in range(n)]
        b = [rng.randrange(n) for _ in range(n)]
    lines = [f"state s{i}" for i in range(n)]
    lines += [f"edge s{i} a s{a[i]}" for i in range(n)]
    lines += [f"edge s{i} b s{b[i]}" for i in range(n)]
    return "\n".join(lines) + "\n"


def random_inputs_inputs(seed, params):
    rng = random.Random(seed)
    big = _levels(rng, params["big_depth"])
    # Round-trip depths cycle through 0..roundtrip_depths-1, so only the
    # colors, not the amount of work, depend on the seed.
    depths = [k % params["roundtrip_depths"] for k in range(params["roundtrips"])]
    return {
        "big_text": "\n".join([f"depth {params['big_depth']}", *big]) + "\n",
        "renorm_levels": [_levels(rng, params["renorm_depth"]) for _ in range(params["renorm"])],
        "roundtrip_levels": [_levels(rng, d) for d in depths],
        "words": [_bits(rng, params["word_len"]) for _ in range(params["words"])],
        "graph_texts": [
            _graph_text(rng, params["graph_states"], k % 3 == 0) for k in range(params["graphs"])
        ],
    }


def random_inputs_big(state, call):
    big = call("trees.parse_patch", trees.parse_patch, state["big_text"])
    state["big"] = big
    state["distinct"] = [
        len(call("trees.distinct_subpatches", trees.distinct_subpatches, big, n))
        for n in range(state["params"]["big_n"] + 1)
    ]


def random_inputs_renorm(state, call):
    depth = state["params"]["renorm_depth"]
    reports = []
    for levels in state["renorm_levels"]:
        p = call("trees.Patch", trees.Patch, levels)
        reports.append(call("engine.verify_renormalization", engine.verify_renormalization, BBAB, p, depth))
    state["renorm"] = reports


def random_inputs_roundtrip(state, call):
    pairs = []
    for levels in state["roundtrip_levels"]:
        p = call("trees.Patch", trees.Patch, levels)
        image = call("engine.apply", engine.apply, BBAB, p)
        pairs.append((p, call("engine.unsub", engine.unsub, BBAB, image)))
    state["roundtrips"] = pairs


def random_inputs_chi(state, call):
    state["chi"] = [
        (
            call("words.chi_via_theta", words.chi_via_theta, BBAB, w),
            call("words.chi_recursive", words.chi_recursive, BBAB, w),
        )
        for w in state["words"]
    ]


def random_inputs_measures(state, call):
    verdicts = []
    for text in state["graph_texts"]:
        g = call("systems.parse_orbit_graph", systems.parse_orbit_graph, text)
        verdicts.append(call("measures.invariant_measure", measures.invariant_measure, g).feasible)
    state["verdicts"] = verdicts


def naive_distinct(levels, n):
    """Distinct depth-n windows, compared as strings (no interning)."""
    seen = set()
    for m in range(len(levels) - n):
        for i in range(1 << m):
            seen.add(tuple(levels[m + l][i << l : (i + 1) << l] for l in range(n + 1)))
    return len(seen)


def _periodic(f, x, n):
    y = f[x]
    for _ in range(n):
        if y == x:
            return True
        y = f[y]
    return False


def measure_exists(text):
    """Independent decision: some class of "same a-cycle or same b-cycle"
    lies inside Per(a) and Per(b).  An invariant probability lives on
    points periodic under both maps and is constant on each cycle, so its
    support is a union of such classes; the uniform measure on one is a
    witness."""
    a, b, states = {}, {}, []
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "state":
            states.append(parts[1])
        else:
            (a if parts[2] == "a" else b)[parts[1]] = parts[3]
    n = len(states)
    per_a = {x for x in states if _periodic(a, x, n)}
    per_b = {x for x in states if _periodic(b, x, n)}
    root = {x: x for x in states}

    def find(x):
        while root[x] != x:
            root[x] = root[root[x]]
            x = root[x]
        return x

    for f, per in ((a, per_a), (b, per_b)):
        for x in per:
            root[find(x)] = find(f[x])
    classes = {}
    for x in states:
        classes.setdefault(find(x), set()).add(x)
    both = per_a & per_b
    return any(c <= both for c in classes.values())


def random_inputs_check(state, params, expected):
    out = [("renormalization", all(r.ok for r in state["renorm"]))]
    out.append(("unsub-apply-roundtrip", all(p == q for p, q in state["roundtrips"])))
    out.append(("chi-forms-agree", all(x == y for x, y in state["chi"])))
    big_levels = state["big"].levels
    out.append(("distinct-vs-naive", state["distinct"] == [
        naive_distinct(big_levels, n) for n in range(params["big_n"] + 1)
    ]))
    out.append(("measure-verdicts", state["verdicts"] == [
        measure_exists(t) for t in state["graph_texts"]
    ]))
    return out


def random_inputs_counts(state, expected):
    feasible = sum(state["verdicts"])
    return {
        "trees.distinct_subtrees": sum(state["distinct"]),
        "engine.renorm_sites": sum(r.checked for r in state["renorm"]),
        "words.words_compared": len(state["chi"]),
        "measures.graphs_feasible": feasible,
        "measures.graphs_infeasible": len(state["verdicts"]) - feasible,
    }


# -- tiling ---------------------------------------------------------------------


def tiling_inputs(seed, params):
    # Fixed inputs; the seed is recorded but unused.
    return {}


def tiling_run(state, call):
    p = state["params"]
    prefix = call("jacaranda.jacaranda_prefix", jacaranda.jacaranda_prefix, p["prefix"])
    cfg = render.RenderConfig(p["resolution"], p["words"])
    state["tiling"] = call("render.tiling_svg", render.tiling_svg, prefix, cfg)
    small = call("trees.truncate", prefix.truncate, p["tree_depth"])
    state["tree"] = call("render.tree_svg", render.tree_svg, small)


def tiling_check(state, params, expected):
    exp = expected["tiling"][state["size"]]
    return [
        ("tiling-digest", digest(state["tiling"]) == exp["tiling"]),
        ("tree-digest", digest(state["tree"]) == exp["tree"]),
    ]


def tiling_counts(state, expected):
    return {"render.svg_bytes": len(state["tiling"]) + len(state["tree"])}


# -- registry -------------------------------------------------------------------


WORKLOADS = {
    "paper-gates": (
        paper_gates_inputs,
        [("gates", paper_gates_run)],
        paper_gates_check,
        paper_gates_counts,
    ),
    "fixed-tree": (
        fixed_tree_inputs,
        [
            ("prefix", fixed_tree_prefix),
            ("lines", fixed_tree_lines),
            ("distinct", fixed_tree_distinct),
            ("unsub", fixed_tree_unsub),
            ("brothers", fixed_tree_brothers),
            ("sweep", fixed_tree_sweep),
            ("p_n", fixed_tree_pn),
            ("orbit", fixed_tree_orbit),
        ],
        fixed_tree_check,
        fixed_tree_counts,
    ),
    "random-inputs": (
        random_inputs_inputs,
        [
            ("big", random_inputs_big),
            ("renorm", random_inputs_renorm),
            ("roundtrip", random_inputs_roundtrip),
            ("chi", random_inputs_chi),
            ("measures", random_inputs_measures),
        ],
        random_inputs_check,
        random_inputs_counts,
    ),
    "tiling": (
        tiling_inputs,
        [("render", tiling_run)],
        tiling_check,
        tiling_counts,
    ),
}
