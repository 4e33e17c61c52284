"""Seeded operation lists for the benchmark workloads.

Every list is a pure function of ``(workload, seed)``: the same seed gives
byte-identical operations and the same digest.  Operations are plain JSON
values (rationals as ``"p/q"`` strings); gvblocks only ever sees them through
its public API or CLI.

Each workload is built from fixed *rounds*.  The seed chooses the concrete
groups, forms, lattices and labels inside every slot of a round, but the slot
schedule (group orders, which slots are modular, which are invalid) is the
same for every seed.  A run always measures whole rounds, so the mix of work
in a run does not depend on the seed or on where the clock stops.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction

from oracles import all_elements, direct_dim, inverse, radical_mask, smith_invariants

# --- catalog ---------------------------------------------------------------

#: One catalog round: (source, kind, group order).  The orders and kinds are
#: fixed, so the cost profile of a round is the same for every seed; the
#: seed picks the groups, forms and lattices.  The six order-256 modular
#: slots sit just below the 1024 and 512 slots, so latency_p90_ms falls
#: inside them and not on a boundary between two size classes.  The five
#: "cli" slots run one small config per subcommand through ``cli.main`` in
#: this process, so the config and cli layers are measured here too.
_SMALL = tuple(range(1, 17))
_MEDIUM = (18, 20, 24, 27, 32, 36, 40, 48, 54, 64)
CATALOG_ROUND = (
    [(("lattice", "form")[i % 2], ("modular", "plain")[(i // 2) % 2], n) for i, n in enumerate(_SMALL)]
    + [(("lattice", "form")[i % 2], ("modular", "plain")[(i // 2) % 2], n) for i, n in enumerate(_MEDIUM)]
    + [("lattice", "modular", 256), ("form", "modular", 256)] * 3
    + [("form", "plain", 256), ("lattice", "plain", 192)]
    + [("lattice", "modular", 512), ("form", "modular", 512), (("lattice", "form"), "modular", 1024)]
    + [
        ("lattice", "invalid:lattice.not_even", 12),
        ("lattice", "invalid:lattice.xi_not_dual", 20),
        ("form", "invalid:forms.invalid_qform", 30),
        ("form", "invalid:axiom_witness", 24),
    ]
    + [("cli", "cli", name) for name in ("inspect_small", "lattice_rank2", "blocks_glued_c3_g1", "torus_small", "verlinde_pointed")]
)
CATALOG_ROUNDS = 16

# --- gluing ----------------------------------------------------------------

#: Every (genus, boundary count) with complexity 2g - 2 + n in 1..4.
SURFACES = [(0, 3), (1, 1), (0, 4), (1, 2), (2, 0), (0, 5), (1, 3), (2, 1), (0, 6), (1, 4), (2, 2), (3, 0)]
#: Group orders; round r gives surface i the order GLUING_ORDERS[(i + r) % 8],
#: so a cycle of eight rounds meets every (surface, order) pair once.
GLUING_ORDERS = (2, 3, 4, 6, 8, 12, 16, 24)
#: Closed genus 3 stops at order 16: at 24 one operation (eleven glued
#: counts over 24^6 labelings, about 7.5 s) would be 80% of a cycle, and
#: ops_per_s would time that single operation.  Larger glued counts are
#: probed by the caps workload.
GLUING_MAX_ORDER = {(3, 0): 16}
GLUING_ROUNDS = 128

# --- cli -------------------------------------------------------------------

#: One cli round: (name, subcommand).  Every slot has a fixed size, so the
#: cost profile of a round does not depend on the seed.  The heavy slots
#: (torus-rep at order 128, whose JSON runs to megabytes, and two blocks
#: --glued at complexity 4) are 5% and 10% of a round, so latency_p90_ms
#: falls in the middle of the two glued slots; latency_p50_ms falls among
#: the seventeen light slots.
CLI_ROUND = (
    ("inspect_small", "inspect"),
    ("inspect_small", "inspect"),
    ("inspect_256", "inspect"),
    ("inspect_invalid", "inspect"),
    ("lattice_rank2", "lattice"),
    ("lattice_rank2", "lattice"),
    ("lattice_rank3", "lattice"),
    ("blocks_direct", "blocks"),
    ("blocks_direct", "blocks"),
    ("blocks_glued_c3_g1", "blocks"),
    ("blocks_glued_c3_g2", "blocks"),
    ("blocks_glued_c4", "blocks"),
    ("blocks_glued_c4", "blocks"),
    ("torus_small", "torus-rep"),
    ("torus_small", "torus-rep"),
    ("torus_128", "torus-rep"),
    ("verlinde_pointed", "verlinde"),
    ("verlinde_pointed", "verlinde"),
    ("verlinde_builtin", "verlinde"),
    ("verlinde_builtin", "verlinde"),
)
CLI_ROUNDS = 16

#: A timed run measures whole cycles of rounds.
ROUNDS_PER_CYCLE = {"catalog": 1, "gluing": len(GLUING_ORDERS), "cli": 1}
#: Rounds measured by a traced run (fixed work, so its counts repeat).
TRACE_ROUNDS = {"catalog": 2, "gluing": len(GLUING_ORDERS), "cli": 2}


def rng_for(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def digest(ops) -> str:
    text = json.dumps(ops, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# --- groups, forms and lattices ---------------------------------------------


def group_shapes(order: int, max_rank: int = 3) -> list[tuple[int, ...]]:
    """Invariant-factor chains d1 | d2 | ... (each > 1) with the given product."""
    if order == 1:
        return [(1,)]
    out = []

    def rec(chain, rest):
        if rest == 1:
            out.append(tuple(chain))
            return
        if len(chain) == max_rank:
            return
        lo = chain[-1] if chain else 2
        for d in range(lo, rest + 1):
            if rest % d == 0 and (not chain or d % chain[-1] == 0):
                rec(chain + [d], rest // d)

    rec([], order)
    return out


def random_qform(rng: random.Random, factors) -> list[list[Fraction]]:
    """A uniformly random well-defined quadratic form on the group."""
    k = len(factors)
    A = [[Fraction(0)] * k for _ in range(k)]
    for i, n in enumerate(factors):
        A[i][i] = rng.choice([Fraction(t, 2 * n) for t in range(2 * n) if (n * t) % 2 == 0])
    for i in range(k):
        for j in range(i + 1, k):
            g = math.gcd(factors[i], factors[j])
            A[i][j] = A[j][i] = Fraction(rng.randrange(g), 2 * g)
    return A


def nondegenerate(factors, A) -> bool:
    return int(radical_mask(factors, A).sum()) == 1


def random_element(rng: random.Random, factors, nonzero: bool = False) -> list[int]:
    while True:
        x = [rng.randrange(n) for n in factors]
        if not nonzero or any(x) or math.prod(factors) == 1:
            return x


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, abs(n) + 1) if n % d == 0]


def _rank2_gram(rng: random.Random, det_abs: int):
    """[[2a, c], [c, 2b]] with |4ab - c^2| = det_abs, or None."""
    cs = list(range(0, 2 * math.isqrt(det_abs) + 6))
    rng.shuffle(cs)
    for c in cs:
        for sign in rng.sample([1, -1], 2):
            num = sign * det_abs + c * c
            if num % 4:
                continue
            p = num // 4
            if p == 0:
                if c == 0:
                    continue
                a, b = 0, rng.choice([-2, -1, 1, 2])
            else:
                a = rng.choice(_divisors(p))
                b = p // a
                if rng.random() < 0.5:
                    a, b = -a, -b
            return [[2 * a, c], [c, 2 * b]]
    return None


def _block_gram(rng: random.Random, order: int, rank: int):
    if rank == 1:
        return [[rng.choice([1, -1]) * order]] if order % 2 == 0 else None
    if rank == 2:
        return _rank2_gram(rng, order)
    if order % 2:
        return None
    ks = _divisors(order // 2)
    rng.shuffle(ks)
    for k in ks:
        block = _rank2_gram(rng, order // (2 * k))
        if block is not None:
            s = rng.choice([1, -1]) * 2 * k
            return [[s, 0, 0], [0] + block[0], [0] + block[1]]
    return None


def _unimodular(rng: random.Random, r: int) -> list[list[int]]:
    U = [[int(i == j) for j in range(r)] for i in range(r)]
    for _ in range(r):
        i, j = rng.sample(range(r), 2) if r > 1 else (0, 0)
        if i == j:
            break
        t = rng.choice([-1, 1])
        for row in U:  # column operation: col_j += t * col_i
            row[j] += t * row[i]
    return U


def random_even_gram(rng: random.Random, order: int) -> list[list[int]]:
    """Even Gram matrix of rank 1..3 whose discriminant group has this order."""
    ranks = [1, 2, 3]
    rng.shuffle(ranks)
    for rank in ranks:
        gram = _block_gram(rng, order, rank)
        if gram is not None:
            break
    else:
        raise ValueError(f"no even lattice of rank <= 3 with discriminant order {order}")
    return _unimodular_conj(rng, gram)


def _unimodular_conj(rng: random.Random, gram) -> list[list[int]]:
    """U^T gram U for a random unimodular U: same lattice, new basis."""
    r = len(gram)
    U = _unimodular(rng, r)
    return [
        [sum(U[k][i] * gram[k][l] * U[l][j] for k in range(r) for l in range(r)) for j in range(r)]
        for i in range(r)
    ]


def random_xi(rng: random.Random, gram, in_lattice: bool) -> list[Fraction]:
    """A dual vector; in the lattice (h0 = 0) or outside it (h0 != 0)."""
    r = len(gram)
    if in_lattice:
        return [Fraction(rng.randint(-2, 2)) for _ in range(r)]
    inv = inverse(gram)
    for _ in range(100):
        v = [rng.randint(-3, 3) for _ in range(r)]
        xi = [sum(inv[i][j] * v[j] for j in range(r)) for i in range(r)]
        if any(c.denominator != 1 for c in xi):
            return xi
    raise ValueError("no dual vector outside the lattice")


def _modular_form(rng: random.Random, order: int):
    shapes = group_shapes(order)
    for _ in range(200):
        factors = rng.choice(shapes)
        A = random_qform(rng, factors)
        if nondegenerate(factors, A):
            return factors, A
    raise ValueError(f"no non-degenerate form found on order {order}")


def _form_op(rng, order, kind):
    if kind == "modular":
        factors, A = _modular_form(rng, order)
        h0 = [0] * len(factors)
    else:
        factors = rng.choice(group_shapes(order))
        A = random_qform(rng, factors)
        h0 = random_element(rng, factors, nonzero=True)
    return {"factors": list(factors), "qform": [[frac(a) for a in row] for row in A], "h0": h0}


def _lattice_op(rng, order, kind):
    gram = random_even_gram(rng, order)
    xi = random_xi(rng, gram, in_lattice=(kind == "modular" or order == 1))
    return {"gram": gram, "xi": [frac(c) for c in xi]}


def catalog_op(rng: random.Random, source, kind: str, order) -> dict:
    if source == "cli":
        return {"source": source, "kind": kind, **cli_op(rng, order, dict(CLI_ROUND)[order])}
    if isinstance(source, tuple):
        source = rng.choice(source)
    op = {"source": source, "kind": kind, "order": order}
    if kind == "invalid:lattice.not_even":
        gram = random_even_gram(rng, order)
        gram[0][0] += 1
        op.update(gram=gram, xi=["0"] * len(gram))
    elif kind == "invalid:lattice.xi_not_dual":
        gram = random_even_gram(rng, order)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            if any(gram[i][0] % p for i in range(len(gram))):
                break
        op.update(gram=gram, xi=[frac(Fraction(1, p))] + ["0"] * (len(gram) - 1))
    elif kind == "invalid:forms.invalid_qform":
        factors = rng.choice(group_shapes(order))
        A = random_qform(rng, factors)
        n = factors[0]
        A[0][0] = Fraction(1, n * n * rng.choice([2, 3]))
        op.update(factors=list(factors), qform=[[frac(a) for a in row] for row in A], h0=[0] * len(factors))
    elif kind == "invalid:axiom_witness":
        op.update(_form_op(rng, order, "plain"))
        op["twist_flip"] = random_element(rng, op["factors"], nonzero=True)
    elif source == "lattice":
        op.update(_lattice_op(rng, order, kind))
    else:
        op.update(_form_op(rng, order, kind))
    return op


def _rounds(workload: str, seed: int, count: int, make_round) -> list[list[dict]]:
    """``count`` rounds, each built by ``make_round(rng, r)`` and shuffled."""
    rounds = []
    for r in range(count):
        rng = rng_for(workload, seed, r)
        ops = make_round(rng, r)
        rng.shuffle(ops)
        rounds.append(ops)
    return rounds


def catalog_ops(seed: int) -> list[list[dict]]:
    return _rounds("catalog", seed, CATALOG_ROUNDS, lambda rng, r: [catalog_op(rng, *slot) for slot in CATALOG_ROUND])


def catalog_shares(rounds) -> dict:
    """Share of valid operations whose group already occurred earlier in the
    list, and share of deliberately invalid operations."""
    ops = [op for rnd in rounds for op in rnd]
    valid = [op for op in ops if op["kind"] in ("modular", "plain")]
    invalid = [op for op in ops if op["kind"].startswith("invalid")]
    seen, reused = set(), 0
    for op in valid:
        key = tuple(op["factors"]) if "factors" in op else (smith_invariants(op["gram"]) or (1,))
        reused += key in seen
        seen.add(key)
    return {
        "catalog.group_reuse_share": reused / len(valid),
        "catalog.invalid_share": len(invalid) / len(ops),
    }


# --- gluing -----------------------------------------------------------------


def gluing_op(rng: random.Random, genus: int, n: int, order: int, condition: bool, move_pick: int = 0) -> dict:
    factors = list(rng.choice(group_shapes(order, max_rank=2)))
    A = random_qform(rng, factors)
    h0 = random_element(rng, factors)
    labels = [random_element(rng, factors) for _ in range(n)]

    def residual(labs, h):
        return [
            ((genus - 1) * 2 * hh + sum(lab[i] for lab in labs)) % f
            for i, (hh, f) in enumerate(zip(h, factors))
        ]

    if n:
        res = residual(labels[:-1], h0)
        labels[-1] = [(-x) % f for x, f in zip(res, factors)]
        if not condition:
            bump = random_element(rng, factors, nonzero=True)
            labels[-1] = [(x + b) % f for x, b, f in zip(labels[-1], bump, factors)]
    else:
        # with no boundary the condition is (g - 1) * 2 * h0 = 0
        candidates = [
            list(x) for x in all_elements(factors) if (not any(residual([], x))) == condition
        ]
        if candidates:
            h0 = rng.choice(candidates)
    return {
        "genus": genus,
        "n": n,
        "factors": factors,
        "qform": [[frac(a) for a in row] for row in A],
        "h0": h0,
        "labels": labels,
        "move_pick": move_pick,
    }


def _gluing_round(rng: random.Random, r: int) -> list[dict]:
    # the moved decomposition is chosen by round, not by seed: the cost of a
    # glued count depends on which decomposition it runs on
    return [
        gluing_op(
            rng,
            g,
            n,
            min(GLUING_ORDERS[(i + r) % len(GLUING_ORDERS)], GLUING_MAX_ORDER.get((g, n), max(GLUING_ORDERS))),
            condition=(i + r) % 2 == 0,
            move_pick=r,
        )
        for i, (g, n) in enumerate(SURFACES)
    ]


def gluing_ops(seed: int) -> list[list[dict]]:
    return _rounds("gluing", seed, GLUING_ROUNDS, _gluing_round)


def gluing_shares(rounds) -> dict:
    ops = [op for rnd in rounds for op in rnd]
    met = sum(
        direct_dim(op["factors"], op["h0"], op["genus"], op["labels"]) != 0 for op in ops
    )
    return {"gluing.condition_met_share": met / len(ops)}


# --- cli --------------------------------------------------------------------


def _lattice_config(gram, xi) -> dict:
    return {"category": {"lattice": {"gram": gram, "xi": [frac(c) for c in xi]}}}


def _pointed_config(op) -> dict:
    return {
        "category": {
            "pointed": {"invariant_factors": op["factors"], "qform_matrix": op["qform"], "h0": op["h0"]}
        }
    }


def _labels_arg(labels) -> str:
    return ";".join(",".join(str(c) for c in lab) for lab in labels)


_CLI_SURFACES = {"blocks_direct": (3, 2), "blocks_glued_c3_g1": (1, 3), "blocks_glued_c3_g2": (2, 1), "blocks_glued_c4": (0, 6)}


def cli_op(rng: random.Random, name: str, sub: str) -> dict:
    args: list[str] = []
    expect_error = None
    if name == "inspect_small":
        gram = random_even_gram(rng, 24)
        config = _lattice_config(gram, random_xi(rng, gram, in_lattice=False))
    elif name == "inspect_256":
        config = _pointed_config(_form_op(rng, 256, "modular"))
    elif name == "inspect_invalid":
        gram = random_even_gram(rng, 24)
        gram[0][0] += 1
        config = _lattice_config(gram, [Fraction(0)] * len(gram))
        expect_error = "lattice.not_even"
    elif name == "lattice_rank2":
        gram = _unimodular_conj(rng, _rank2_gram(rng, 35))
        config = _lattice_config(gram, random_xi(rng, gram, in_lattice=False))
    elif name == "lattice_rank3":
        gram = _unimodular_conj(rng, _block_gram(rng, 192, 3))
        config = _lattice_config(gram, random_xi(rng, gram, in_lattice=False))
    elif name.startswith("blocks"):
        genus, n = _CLI_SURFACES[name]
        op = gluing_op(rng, genus, n, 4, rng.random() < 0.5)
        config = _pointed_config(op)
        args = ["--genus", str(genus), "--labels", _labels_arg(op["labels"])]
        if name != "blocks_direct":
            args.append("--glued")
    elif name == "torus_small":
        gram = random_even_gram(rng, 12)
        config = _lattice_config(gram, random_xi(rng, gram, in_lattice=True))
    elif name == "torus_128":
        config = _pointed_config(_form_op(rng, 128, "modular"))
    elif name == "verlinde_pointed":
        config = _pointed_config(_form_op(rng, 12, "modular"))
        args = ["--max-genus", "5"]
    else:
        config = {"category": {"builtin": rng.choice(["fibonacci", "ising"])}}
        args = ["--max-genus", "5"]
    return {"name": name, "sub": sub, "config": config, "args": args, "expect_error": expect_error}


def cli_ops(seed: int) -> list[list[dict]]:
    return _rounds("cli", seed, CLI_ROUNDS, lambda rng, r: [cli_op(rng, name, sub) for name, sub in CLI_ROUND])
