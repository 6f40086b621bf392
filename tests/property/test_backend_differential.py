"""Property-based differential fuzzing of the codegen backends.

Every backend promises *byte-identical observable behaviour* to the
interpreter: same output lines, same simulated cycle total, same full
``Stats.summary()``.  These tests generate small but semantically busy
programs (arithmetic with mixed int/float, dispatch chains, region
allocation loops, arrays, organically failing runs) and assert that
promise for every backend — ``py`` and, when a C toolchain and cffi
are present, ``c``.

A program a backend cannot compile falls back down the capability
ladder; that is part of the contract under test — the observable
behaviour must be identical *whatever* ends up executing.  Runs that
end in a simulated error must produce the same error type and message
on every backend (compiled backends bail and re-execute on a fallback
rather than guessing at error state).
"""

import shutil

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import RunOptions, analyze
from repro.errors import ReproError
from repro.interp.machine import execute


def _c_available() -> bool:
    if not any(shutil.which(cc) for cc in ("cc", "gcc", "clang")):
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:
        return False
    return True


BACKENDS = ["py"]
if _c_available():
    BACKENDS.append("c")


def _observe(analyzed, backend: str, enabled: bool):
    """The observable identity of one run: output + cycles + full
    stats summary, or the error identity for failing runs."""
    options = RunOptions(checks_enabled=enabled, validate=False,
                         instrument=False, backend=backend)
    try:
        result, _machine = execute(analyzed, options)
    except ReproError as err:
        return ("error", type(err).__name__, str(err))
    return ("ok", tuple(result.output), result.stats.cycles,
            tuple(sorted(result.stats.summary().items(),
                         key=lambda kv: kv[0])))


def assert_backends_agree(source: str) -> None:
    analyzed = analyze(source)
    assert not analyzed.errors, [str(e) for e in analyzed.errors]
    for enabled in (False, True):
        reference = _observe(analyzed, "interp", enabled)
        for backend in BACKENDS:
            if backend == "c" and enabled:
                continue  # checks-erased: C only runs static mode
            got = _observe(analyzed, backend, enabled)
            assert got == reference, (
                f"backend {backend} (checks={enabled}) diverged:\n"
                f"  interp: {reference}\n  {backend}: {got}")


@st.composite
def arithmetic_programs(draw):
    """Mixed int/float arithmetic in a loop, with conversions and
    comparisons — including divisors that can reach zero, so organic
    division-by-zero error runs are part of the corpus."""
    n = draw(st.integers(min_value=0, max_value=12))
    a0 = draw(st.integers(min_value=-50, max_value=50))
    m1 = draw(st.integers(min_value=-6, max_value=6))
    op = draw(st.sampled_from(["+", "-", "*"]))
    d = draw(st.integers(min_value=-3, max_value=9))
    f0 = draw(st.integers(min_value=-20, max_value=20))
    return f"""
(RHandle<r> h) {{
    int a = {a0};
    int b = 1;
    float x = itof({f0}) / 4.0;
    int i = 0;
    while (i < {n}) {{
        a = a + i * {m1};
        b = b {op} 2;
        x = x + itof(a) / itof({d} + i);
        i = i + 1;
    }}
    print(a);
    print(b);
    print(x);
    print(a < b);
    print(ftoi(x * 3.0));
    print(a % 7);
}}
"""


@st.composite
def region_list_programs(draw):
    """Linked-list churn inside a nested plain (VT) region, with heap
    escapees — exercises allocation charging, region destroy
    accounting, and owner plumbing through methods."""
    n = draw(st.integers(min_value=0, max_value=10))
    m = draw(st.integers(min_value=1, max_value=9))
    k = draw(st.integers(min_value=1, max_value=7))
    keep = draw(st.integers(min_value=0, max_value=3))
    return f"""
class Cell<Owner o> {{
    int v;
    Cell<o> next;
    int bump(int d) {{ v = v + d; return v; }}
}}
(RHandle<r> h) {{
    Cell<heap> kept = new Cell<heap>;
    int j = 0;
    while (j < {keep}) {{
        kept.v = kept.bump(j);
        j = j + 1;
    }}
    (RHandle<s> g) {{
        Cell<s> head = null;
        int i = 0;
        while (i < {n}) {{
            Cell<s> c = new Cell<s>;
            c.v = i * {m} % {k};
            c.next = head;
            head = c;
            i = i + 1;
        }}
        int total = 0;
        Cell<s> w = head;
        while (w != null) {{
            total = total + w.v;
            w = w.next;
        }}
        print(total);
    }}
    print(kept.v);
}}
"""


@st.composite
def array_programs(draw):
    """Array fill/scan with an index expression that can step outside
    the bounds — organic error runs must agree across backends too."""
    length = draw(st.integers(min_value=1, max_value=12))
    step = draw(st.integers(min_value=1, max_value=4))
    limit = draw(st.integers(min_value=0, max_value=14))
    return f"""
(RHandle<r> h) {{
    IntArray<r> data = new IntArray<r>({length});
    int i = 0;
    while (i < {limit}) {{
        data.set(i * {step} % {length}, i + 1);
        i = i + 1;
    }}
    int total = 0;
    int j = 0;
    while (j < {length}) {{
        total = total + data.get(j);
        j = j + 1;
    }}
    print(total);
    print(data.length());
}}
"""


def _hierarchy_source(depth: int, tags) -> str:
    classes = []
    for i in range(depth):
        parent = f" extends C{i - 1}<o>" if i > 0 else ""
        classes.append(f"""
class C{i}<Owner o>{parent} {{
    int f{i};
    int tag() {{ return {tags[i]}; }}
}}""")
    uses = []
    for i in range(depth):
        uses.append(f"C0<r> v{i} = new C{i}<r>;")
        uses.append(f"print(v{i}.tag());")
    body = "\n    ".join(uses)
    return "\n".join(classes) + f"\n(RHandle<r> h) {{\n    {body}\n}}"


@st.composite
def hierarchy_programs(draw):
    """Polymorphic dispatch chains: forces the mono-dispatch gate in
    the straight-line backends and the fallback path around it."""
    depth = draw(st.integers(min_value=1, max_value=4))
    tags = draw(st.lists(st.integers(0, 999), min_size=depth,
                         max_size=depth))
    return _hierarchy_source(depth, tags)


class TestBackendDifferential:
    @given(arithmetic_programs())
    @settings(max_examples=20, deadline=None)
    def test_arithmetic(self, source):
        assert_backends_agree(source)

    @given(region_list_programs())
    @settings(max_examples=15, deadline=None)
    def test_regions_and_methods(self, source):
        assert_backends_agree(source)

    @given(array_programs())
    @settings(max_examples=15, deadline=None)
    def test_arrays_with_organic_bounds_errors(self, source):
        assert_backends_agree(source)

    @given(hierarchy_programs())
    @settings(max_examples=10, deadline=None)
    def test_polymorphic_dispatch(self, source):
        assert_backends_agree(source)
