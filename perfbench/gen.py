"""Seeded input generators for the three workloads.

Every input is a pure function of the workload seed.  The program
under test only ever sees the generated text; the seed itself never
crosses into it.  Each program carries a tag comment so that no two
generated programs share a content address (the service and the
analysis cache key on the program text).

The eight paper programs come from the repository's registry
(``repro.bench.suite``), so ``pins.json`` records a digest of what this
module generates for a reference seed; :func:`verify_pins` fails the
run when an edit to the registry programs changes a workload.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from typing import Any, Dict, List, Tuple

from .common import BenchError

PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "pins.json")

#: the seed whose generated inputs pins.json records
PIN_SEED = 0

#: the warm-up pass uses a seed no timed run can use
WARMUP_SALT = "warm-up"

PAPER_PROGRAMS = ("Array", "Tree", "Water", "Barnes", "ImageRec", "http",
                  "game", "phone")

#: programs whose registry entry defines EXPECTED_OUTPUT
EXPECTED = {"Array": ["1"], "Tree": ["true"]}


def rng_for(seed: int, *salt: Any) -> random.Random:
    key = ":".join([str(seed)] + [str(s) for s in salt])
    return random.Random(hashlib.sha256(key.encode()).hexdigest())


def digest(obj: Any) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# paper programs
# ---------------------------------------------------------------------------

def paper_params(name: str, rng: random.Random) -> Dict[str, Any]:
    """Seeded parameters at full size.

    Only parameters that leave the host work nearly unchanged are
    drawn: simulated I/O and network costs move cycle counts, and the
    size parameters of Array, Tree and Barnes move by at most 3%.
    Water's two parameters both scale work in coarse steps, so Water
    runs at its defaults.
    """
    if name == "Array":
        return {"n": rng.randint(582, 618)}
    if name == "Tree":
        return {"passes": rng.randint(146, 154)}
    if name == "Barnes":
        return {"relinks": rng.randint(7, 9)}
    if name == "ImageRec":
        return {"iocost": rng.randint(10, 30)}
    if name == "http":
        return {"netcost": rng.randint(2000, 3000),
                "filecost": rng.randint(1000, 2000)}
    if name in ("game", "phone"):
        return {"netcost": rng.randint(2500, 3500)}
    return {}


def paper_source(name: str, params: Dict[str, Any], fast: bool = False
                 ) -> str:
    from repro.bench.suite import BENCHMARKS
    return BENCHMARKS[name].source(fast=fast, **params)


# ---------------------------------------------------------------------------
# synthesised multi-class programs
# ---------------------------------------------------------------------------

def synth_shape(rng: random.Random, n_classes: int) -> List[List[int]]:
    """Per class, the constants of its methods (1 to 4 methods)."""
    return [[rng.randint(1, 97) for _ in range(rng.randint(1, 4))]
            for _ in range(n_classes)]


def synth_text(shape: List[List[int]], tag: str) -> str:
    """A well-typed program: linked owner-parameterised classes whose
    methods allocate in the heap and in local regions, with one local
    whose owner is inferred."""
    parts = [f"// {tag}", "class Cell<Owner o> { int v; Cell<o> next; }"]
    for i, consts in enumerate(shape):
        methods = []
        for j, k in enumerate(consts):
            methods.append(f"""
    int work{j}(int x) accesses o, heap {{
        Cell<o> local = new Cell<o>;
        local.v = x * {k};
        held = local;
        (RHandle<r{j}> h{j}) {{
            Cell<r{j}> scratch = new Cell<r{j}>;
            scratch.v = local.v + {i};
            Cell inferredLocal = scratch;
            inferredLocal.next = scratch;
        }}
        return local.v;
    }}""")
        parts.append(f"""
class Worker{i}<Owner o> {{
    Cell<o> held;
    {''.join(methods)}
}}""")
    body = "\n".join(
        f"    Worker{i}<r> w{i} = new Worker{i}<r>;"
        f" int v{i} = w{i}.work0({i});"
        for i in range(min(len(shape), 20)))
    parts.append(f"(RHandle<r> h) {{\n{body}\n}}")
    return "\n".join(parts) + "\n"


#: known-bad mutations of a synthesised class's ``work0``: the anchor
#: line, the line that replaces it, and the one error it must cause
MUTATIONS = {
    # a region-local object stored in a field owned outside the region
    "escape-field": ("            inferredLocal.next = scratch;\n",
                     "            inferredLocal.next = scratch;\n"
                     "            held = scratch;\n", "SUBTYPE", 1),
    # the same escape through an outer object's field
    "escape-next": ("            inferredLocal.next = scratch;\n",
                    "            inferredLocal.next = scratch;\n"
                    "            local.next = scratch;\n", "SUBTYPE", 1),
    # an allocation naming an owner that is not in scope
    "owner-scope": ("        Cell<o> local = new Cell<o>;\n",
                    "        Cell<o> local = new Cell<rz>;\n", "OWNER", 0),
}


def mutate(text: str, klass: int, kind: str) -> Tuple[str, Tuple[str, int]]:
    """Apply ``kind`` to ``work0`` of class ``klass``; returns the
    mutant and its expected ``(rule, line)``."""
    anchor, replacement, rule, offset = MUTATIONS[kind]
    start = text.index(f"\nclass Worker{klass}<")
    start = text.index("int work0(", start)
    pos = text.index(anchor, start)
    line = text.count("\n", 0, pos) + 1 + offset
    return text[:pos] + replacement + text[pos + len(anchor):], (rule, line)


# ---------------------------------------------------------------------------
# check workload
# ---------------------------------------------------------------------------

#: class counts of the synthesised programs in one block
CHECK_SIZES = (5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55, 60)
#: class counts of the known-bad mutants in one block
MUTANT_SIZES = (10, 25, 40, 55)
#: size of the program the one-class edits are made to
EDIT_BASE_CLASSES = 30


def check_block(seed: int, block: int) -> List[Dict[str, Any]]:
    """One block of cold-analysis inputs: every synthesised size, every
    paper program and every mutant size once, in seeded order.  Each
    item carries the verdict known by construction: ``expect`` is the
    list of ``(rule, line)`` errors, empty for a well-typed program."""
    rng = rng_for(seed, "check", block)
    items: List[Dict[str, Any]] = []
    for n in CHECK_SIZES:
        tag = f"check {seed}/{block} synth {n}"
        items.append({"kind": "synth", "size": n, "expect": [],
                      "source": synth_text(synth_shape(rng, n), tag)})
    for name in PAPER_PROGRAMS:
        params = paper_params(name, rng)
        items.append({"kind": "paper", "size": name, "expect": [],
                      "source": (f"// check {seed}/{block} {name}\n"
                                 + paper_source(name, params))})
    kinds = sorted(MUTATIONS)
    for i, n in enumerate(MUTANT_SIZES):
        tag = f"check {seed}/{block} mutant {n}"
        text = synth_text(synth_shape(rng, n), tag)
        kind = kinds[(i + block) % len(kinds)]
        mutant, expect = mutate(text, rng.randrange(n), kind)
        items.append({"kind": "mutant", "size": n, "mutation": kind,
                      "expect": [list(expect)], "source": mutant})
    rng.shuffle(items)
    return items


class EditSession:
    """A seeded editing session over one synthesised program: each
    edit changes one method constant of one class, cumulatively, so
    each re-analysis differs from the previous one in exactly one
    class."""

    def __init__(self, seed: int) -> None:
        self.rng = rng_for(seed, "edits")
        self.shape = synth_shape(self.rng, EDIT_BASE_CLASSES)
        self.tag = f"edits {seed}"

    def text(self) -> str:
        return synth_text(self.shape, self.tag)

    def next_edit(self) -> str:
        klass = self.rng.randrange(len(self.shape))
        consts = self.shape[klass]
        j = self.rng.randrange(len(consts))
        consts[j] = consts[j] % 97 + 1  # always a different constant
        return self.text()


def check_pin_inputs(seed: int) -> Any:
    session = EditSession(seed)
    edits = [session.text()] + [session.next_edit() for _ in range(8)]
    blocks = [check_block(seed, b) for b in range(2)]
    return {"blocks": blocks, "edits": [digest(e) for e in edits]}


# ---------------------------------------------------------------------------
# run workload
# ---------------------------------------------------------------------------

#: (requested backend, dynamic checks) cells; ``c`` is static only
RUN_CELLS = (("interp", False), ("interp", True), ("py", False),
             ("py", True), ("c", False))


def run_sources(seed: int, fast: bool = False) -> Dict[str, str]:
    rng = rng_for(seed, "run")
    return {name: paper_source(name, paper_params(name, rng), fast=fast)
            for name in PAPER_PROGRAMS}


def run_pin_inputs(seed: int) -> Any:
    return run_sources(seed)


# ---------------------------------------------------------------------------
# serve workload
# ---------------------------------------------------------------------------

#: one block of one connection's request list: (endpoint, mode) of
#: its first-sight requests, then how many repeats ride along
SERVE_BLOCK = ([("run", "static")] * 6 + [("run", "dynamic")] * 6
               + [("analyze", "static")] * 4 + [("inspect", "static")])
SERVE_REPEATS = 3
#: sizes of the synthesised programs sent to /v1/analyze
SERVE_ANALYZE_SIZES = (5, 10, 15, 20)
#: parameter variants per paper program: the tag comment already makes
#: every first-sight program text new, and few variants keep the
#: in-process reference (computed per untagged text) cheap
SERVE_VARIANTS = 4
#: /v1/inspect records a flight log and runs the interpreter, so it is
#: sent only the cheap paper programs
INSPECT_PROGRAMS = ("game", "phone", "http")


def serve_requests(seed: int, conn: int, blocks: int
                   ) -> List[Dict[str, Any]]:
    """One connection's request list.

    A first-sight request carries a program no earlier request used:
    its first line is a unique tag comment.  A ``/v1/analyze`` program
    is synthesised, so its verdict is known by construction
    (well-typed, ``classes`` classes).  A repeat re-sends an earlier
    request of the *same* connection, so in a closed loop its original
    has always completed: a repeat is served by the result cache,
    never coalesced with a request in flight.
    """
    rng = rng_for(seed, "serve", conn)
    out: List[Dict[str, Any]] = []
    runs = list(PAPER_PROGRAMS)
    rng.shuffle(runs)
    for block in range(blocks):
        firsts = list(SERVE_BLOCK)
        rng.shuffle(firsts)
        sizes = list(SERVE_ANALYZE_SIZES)
        rng.shuffle(sizes)
        items: List[Dict[str, Any]] = []
        for endpoint, mode in firsts:
            tag = f"serve {seed}/{conn}/{block}/{len(items)}"
            classes = None
            if endpoint == "analyze":
                n = sizes.pop()
                text = synth_text(synth_shape(rng, n), tag)
                program, classes = f"synth{n}", n + 1
            else:
                program = (rng.choice(INSPECT_PROGRAMS)
                           if endpoint == "inspect" else
                           runs[(len(out) + len(items)) % len(runs)])
                variant = rng_for(seed, "serve-params", program,
                                  rng.randrange(SERVE_VARIANTS))
                text = f"// {tag}\n" + paper_source(
                    program, paper_params(program, variant))
            items.append({"endpoint": endpoint, "mode": mode,
                          "backend": "py", "program": program,
                          "classes": classes, "source": text,
                          "repeat_of": None})
        for _ in range(SERVE_REPEATS):
            # a recent first-sight request of this connection
            pool = [i for i, r in enumerate(out) if r["repeat_of"] is None]
            pool = pool[-24:] or None
            if pool is None:
                continue
            src = out[rng.choice(pool)]
            pos = rng.randrange(len(items) + 1)
            items.insert(pos, dict(src, repeat_of=out.index(src)))
        out.extend(items)
    return out


def untagged(source: str) -> str:
    """A request's program without its first-line tag comment."""
    return source.split("\n", 1)[1]


def serve_pin_inputs(seed: int) -> Any:
    return [[{k: r[k] for k in ("endpoint", "mode", "backend",
                                "repeat_of")}
             | {"source": digest(r["source"])}
             for r in serve_requests(seed, conn, 4)]
            for conn in range(2)]


# ---------------------------------------------------------------------------
# pins
# ---------------------------------------------------------------------------

PIN_INPUTS = {"check": check_pin_inputs, "run": run_pin_inputs,
              "serve": serve_pin_inputs}


def pin_digests() -> Dict[str, str]:
    return {name: digest(fn(PIN_SEED)) for name, fn in PIN_INPUTS.items()}


def verify_pins(workload: str) -> None:
    """Fail the run when the inputs generated for the reference seed
    differ from the digest recorded in pins.json."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle)
    want = pins["inputs"][workload]
    got = digest(PIN_INPUTS[workload](PIN_SEED))
    if got != want:
        raise BenchError(
            f"{workload}: generated inputs changed (digest {got[:16]} != "
            f"pinned {want[:16]}); the workload is no longer the one the "
            f"baseline measured")
