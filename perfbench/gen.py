"""Seeded input generator for the benchmark workloads.

Every pragma the generator writes comes from an explicit clause list, so it
knows, independently of the program, which clause components and which
classification entries each side of a pair carries.  The program only ever
sees the files written from these values: JSONL datasets, source files and
JSON configs.

Inputs depend on ``(workload, seed, round)``.  The two known-fault inputs
(ROADMAP 4a and 4b) depend on the round index only, never on the seed, so
they fail in every run at the same share.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

# Weight of a clause component in the weighted clause score `wc`: the
# metric's documented default table (reduction weighs 5, others 1).
REDUCTION_WEIGHT = 5.0

# Classification entry names of directive kind combinations, as the
# clause-vocabulary file spells them.
_DIRECTIVE_ENTRIES = {
    ("parallel", "for"): "omp parallel for",
    ("for",): "omp for",
    ("parallel",): "parallel",
    ("critical",): "critical",
    ("atomic",): "atomic",
}

_VAR_LIST_KINDS = ("private", "shared", "firstprivate", "lastprivate")


@dataclass(frozen=True)
class Clause:
    kind: str
    args: tuple[str, ...] = ()
    op: str = ""  # reduction operator

    def render(self) -> str:
        if self.kind == "reduction":
            return f"reduction({self.op}:{', '.join(self.args)})"
        if not self.args:
            return self.kind
        return f"{self.kind}({', '.join(self.args)})"

    def component(self) -> str | None:
        """The clause's canonical component, or None when it has none."""
        if self.kind == "num_threads":
            return None
        if self.kind in _VAR_LIST_KINDS:
            return f"{self.kind}({','.join(sorted(self.args))})"
        if self.kind == "reduction":
            return f"reduction({self.op}:{','.join(self.args)})"
        if not self.args:
            return self.kind
        return f"{self.kind}({','.join(self.args)})"


@dataclass(frozen=True)
class Pragma:
    kinds: tuple[str, ...]
    clauses: tuple[Clause, ...] = ()

    def render(self) -> str:
        parts = ["#pragma omp", " ".join(self.kinds)]
        parts += [c.render() for c in self.clauses]
        return " ".join(parts)


def components(pragmas: list[Pragma]) -> frozenset[str]:
    out = set()
    for p in pragmas:
        out |= {c for c in (cl.component() for cl in p.clauses) if c}
    return frozenset(out)


def presence(pragmas: list[Pragma]) -> frozenset[str]:
    """Classification entries present on one side."""
    out = set()
    for p in pragmas:
        out.add(_DIRECTIVE_ENTRIES[p.kinds])
        out |= {c.kind for c in p.clauses}
    return frozenset(out)


def expected_wc(gt: list[Pragma], gen: list[Pragma]) -> float:
    gt_c, gen_c = components(gt), components(gen)
    if not gt_c:
        return 1.0

    def weight(c: str) -> float:
        return REDUCTION_WEIGHT if c.startswith("reduction(") else 1.0

    return sum(weight(c) for c in gt_c & gen_c) / sum(weight(c) for c in gt_c)


@dataclass
class Source:
    """A generated source: its text and the pragmas written into it."""

    text: str
    pragmas: list[Pragma]


@dataclass
class Record:
    id: str
    reference: Source
    candidates: list[Source]
    language: str = "cpp"
    identity: frozenset[int] = frozenset()  # candidate indices equal to the reference
    # candidate indices of the pairs expected to fail on a known fault
    faults: frozenset[int] = frozenset()
    expect_compiles: tuple[bool, ...] = ()

    def as_json(self) -> dict:
        return {
            "id": self.id,
            "reference": self.reference.text,
            "candidates": [c.text for c in self.candidates],
            "language": self.language,
        }


# ---------------------------------------------------------------------------
# Templates: a template is a list of lines in which "@P<k>" marks the line of
# pragma slot k.  Rendering replaces the marker with the slot's pragma (keeping
# the indentation) so stripping every pragma line gives the template without
# its slot lines.


@dataclass
class Template:
    lines: list[str]
    slots: list[tuple[tuple[str, ...], list[list[Clause]]]] = field(default_factory=list)

    def render(self, pragmas: list[Pragma]) -> str:
        out = []
        for line in self.lines:
            stripped = line.lstrip()
            if stripped.startswith("@P"):
                k = int(stripped[2:])
                out.append(line[: len(line) - len(stripped)] + pragmas[k].render())
            else:
                out.append(line)
        return "\n".join(out) + "\n"

    def render_stripped(self) -> str:
        return "\n".join(line for line in self.lines if not line.lstrip().startswith("@P")) + "\n"


def _choose_clauses(rng: random.Random, menu: list[list[Clause]], count: int) -> tuple[Clause, ...]:
    """``count`` clauses, at most one from each option group of ``menu``."""
    groups = rng.sample(range(len(menu)), min(count, len(menu)))
    return tuple(rng.choice(menu[g]) for g in sorted(groups))


def _mutate(rng: random.Random, clauses: tuple[Clause, ...], menu: list[list[Clause]]) -> tuple[Clause, ...]:
    """One candidate-side edit: drop, add or swap a clause."""
    used = {
        g for g, options in enumerate(menu) for c in clauses if c in options
    }
    free = [g for g in range(len(menu)) if g not in used]
    moves = ["drop", "swap"] + (["add"] if free else [])
    move = rng.choice(moves) if clauses else "add"
    if move == "add" and free:
        extra = rng.choice(menu[rng.choice(free)])
        return clauses + (extra,)
    if move == "drop" or not used:
        k = rng.randrange(len(clauses))
        return clauses[:k] + clauses[k + 1 :]
    k = rng.randrange(len(clauses))
    group = next(g for g, options in enumerate(menu) if clauses[k] in options)
    options = [c for c in menu[group] if c != clauses[k]]
    if not options:
        return clauses[:k] + clauses[k + 1 :]
    return clauses[:k] + (rng.choice(options),) + clauses[k + 1 :]


def _pragmas_for(template: Template, rng: random.Random, count: int) -> list[Pragma]:
    return [
        Pragma(kinds, _choose_clauses(rng, menu, count) if menu else ())
        for kinds, menu in template.slots
    ]


def _candidate_pragmas(template: Template, ref: list[Pragma], rng: random.Random) -> list[Pragma]:
    out = list(ref)
    slots = [k for k, (_, menu) in enumerate(template.slots) if menu]
    k = rng.choice(slots)
    out[k] = Pragma(ref[k].kinds, _mutate(rng, ref[k].clauses, template.slots[k][1]))
    if rng.random() < 0.5:
        k = rng.choice(slots)
        out[k] = Pragma(out[k].kinds, _mutate(rng, out[k].clauses, template.slots[k][1]))
    return out


# ---------------------------------------------------------------------------
# Static kernels: one worksharing loop nest with a synchronization construct
# inside, the structure of the `multiple_*` fixtures.

_NAMES = [
    ("a", "b", "c", "acc"),
    ("x", "y", "z", "sum"),
    ("src", "w", "dst", "total"),
    ("u", "v", "out", "s"),
    ("lhs", "rhs", "res", "energy"),
]
_COUNTERS = [("i", "j"), ("r", "k"), ("p", "q")]

_BODY_FILLERS = [
    "t = t * 0.5 + {b}[{j}];",
    "t += {a}[{i} * m + {j}] * 0.25;",
    "if (t > 1.0e6) t = 1.0e6;",
    "t -= {b}[{j}] * 0.125;",
    "t = (t < 0.0) ? -t : t;",
    "t += 0.001 * ({i} + {j});",
    "if ({j} % 2 == 0 && t > 0.0) t *= 0.75;",
    "t = t * t / (1.0 + t * t);",
]
_SERIAL_FILLERS = [
    "{acc} = {acc} * 0.0;",
    "if (n < 0 || m < 0) return;",
    "{c}[0] = {c}[0] + 0.0;",
    "{acc} += {b}[0] - {b}[0];",
]


def _static_menu(nm: dict) -> list[list[Clause]]:
    i, j, a, b, c, acc = nm["i"], nm["j"], nm["a"], nm["b"], nm["c"], nm["acc"]
    return [
        [Clause("reduction", (acc,), "+"), Clause("reduction", (acc,), "max")],
        [Clause("private", (i, j)), Clause("private", (j,))],
        [Clause("shared", (a, b, c)), Clause("shared", (c,))],
        [Clause("schedule", ("static",)), Clause("schedule", ("dynamic", "4")), Clause("schedule", ("guided",))],
        [Clause("firstprivate", ("m",))],
        [Clause("collapse", ("2",))],
        [Clause("num_threads", ("4",))],
        [Clause("default", ("shared",))],
    ]


def static_kernel_template(rng: random.Random, fn: str, target_bytes: int) -> Template:
    a, b, c, acc = rng.choice(_NAMES)
    i, j = rng.choice(_COUNTERS)
    nm = {"a": a, "b": b, "c": c, "acc": acc, "i": i, "j": j}
    inner = rng.choice(["critical", "atomic"])

    def build(n_body: int, n_serial: int) -> list[str]:
        body = [f"            {_BODY_FILLERS[(k + n_body) % len(_BODY_FILLERS)].format(**nm)}" for k in range(n_body)]
        serial = [f"    {_SERIAL_FILLERS[k % len(_SERIAL_FILLERS)].format(**nm)}" for k in range(n_serial)]
        lines = [
            "#include <stdio.h>",
            "",
            f"void {fn}(int n, int m, const double *{a}, const double *{b}, double *{c}) {{",
            f"    double {acc} = 0.0;",
            f"    int {i}, {j};",
            *serial,
            "    @P0",
            f"    for ({i} = 0; {i} < n; {i}++) {{",
            f"        for ({j} = 0; {j} < m; {j}++) {{",
            f"            double t = {a}[{i} * m + {j}] * {b}[{j}];",
            *body,
            f"            {acc} += t;",
            "            @P1",
        ]
        if inner == "critical":
            lines += ["            {", f"                {c}[{j}] += t;", "            }"]
        else:
            lines += [f"            {c}[{j}] += t;"]
        lines += [
            "        }",
            "    }",
            f'    printf("%f\\n", {acc});',
            "}",
        ]
        return lines

    n_body, n_serial = 0, 0
    lines = build(0, 0)
    while sum(len(x) + 1 for x in lines) < target_bytes:
        if n_body <= 2 * n_serial + 2:
            n_body += 1
        else:
            n_serial += 1
        lines = build(n_body, n_serial)
    return Template(lines, [(("parallel", "for"), _static_menu(nm)), ((inner,), [])])


# ---------------------------------------------------------------------------
# Fixture skeletons: the fixture text with its pragma lines replaced by slots
# whose clause menus only name variables in scope there.


def _fixture_menus(name: str) -> list[tuple[tuple[str, ...], list[list[Clause]]]]:
    pf = ("parallel", "for")
    sched = [Clause("schedule", ("static",)), Clause("schedule", ("dynamic",)), Clause("schedule", ("guided", "8"))]
    if name == "multiple_gt.c":
        return [
            (pf, [[Clause("reduction", ("total",), "+")], [Clause("collapse", ("2",))], sched,
                  [Clause("shared", ("extra_sum",)), Clause("shared", ("extra_sum", "n"))]]),
            (("critical",), []),
        ]
    if name == "single_gt.c":
        return [
            (pf, [[Clause("reduction", ("sum",), "+")], [Clause("private", ("i",))], sched,
                  [Clause("shared", ("step",)), Clause("firstprivate", ("step",))]]),
        ]
    if name == "xs_kernel.c":
        return [
            (pf, [[Clause("reduction", ("tally",), "+")], [Clause("firstprivate", ("seed",))], sched,
                  [Clause("shared", ("grid", "n_grid"))]]),
        ]
    if name == "fig1_gt.c":
        return [
            (pf, [[Clause("reduction", ("sum",), "+")], [Clause("collapse", ("2",))],
                  [Clause("private", ("i", "j")), Clause("private", ("j",))], sched]),
        ]
    raise KeyError(name)


FIXTURES = ("multiple_gt.c", "single_gt.c", "xs_kernel.c", "fig1_gt.c")


def fixture_template(fixtures_dir: Path, name: str, tag: str) -> Template:
    """A fixture as a template; ``tag`` goes into a leading comment so that
    the text differs between rounds."""
    lines = [f"/* {tag} */"]
    slot = 0
    for line in (fixtures_dir / name).read_text().splitlines():
        stripped = line.lstrip()
        if stripped.startswith("#pragma omp"):
            lines.append(line[: len(line) - len(stripped)] + f"@P{slot}")
            slot += 1
        else:
            lines.append(line)
    return Template(lines, _fixture_menus(name))


# ---------------------------------------------------------------------------
# Known fault (a): a worksharing loop over a macro loop.  Scored against
# itself it gets pl = 0 and composite 80, not 100.


def macro_loop_record(round_index: int, rec_id: str) -> Record:
    fn = f"scale_r{round_index}"
    lines = [
        "#include <stdio.h>",
        "#define FOR_EACH(i, n) for (int i = 0; i < (n); i++)",
        "",
        f"void {fn}(int n, double *v, double f) {{",
        "    @P0",
        "    FOR_EACH(i, n) {",
        "        v[i] *= f;",
        "    }",
        "}",
    ]
    template = Template(lines, [(("parallel", "for"), [])])
    ref = [Pragma(("parallel", "for"))]
    variants = [
        ref,
        [Pragma(("parallel", "for"), (Clause("schedule", ("static",)),))],
        [Pragma(("parallel", "for"), (Clause("shared", ("v",)),))],
        [Pragma(("parallel", "for"), (Clause("firstprivate", ("f",)),))],
    ]
    reference = Source(template.render(ref), ref)
    cands = [Source(template.render(p), p) for p in variants]
    return Record(rec_id, reference, cands, "c", identity=frozenset({0}), faults=frozenset({0}))


# ---------------------------------------------------------------------------
# dataset-static


STATIC_RECORDS = 8
STATIC_FIXTURES = ("multiple_gt.c", "single_gt.c", "xs_kernel.c")
STATIC_CANDIDATES = 4


def static_records(seed: int, round_index: int, fixtures_dir: Path, n_records: int = STATIC_RECORDS) -> list[Record]:
    """``n_records`` records of 4 candidates: record 0 is the macro-loop
    fault, records 1-3 fixture skeletons, the rest templated kernels on a
    fixed size ladder of 0.3-2 KB.  Every fourth record from record 1 on has
    one candidate identical to its reference."""
    rng = random.Random(f"static:{seed}:{round_index}")
    records = [macro_loop_record(round_index, f"r{round_index:03d}-00")]
    n_fixture = min(len(STATIC_FIXTURES), n_records - 1)
    n_kernel = n_records - 1 - n_fixture
    for k in range(1, n_records):
        rec_id = f"r{round_index:03d}-{k:02d}"
        if k <= n_fixture:
            tag = f"{rec_id} {rng.getrandbits(32):08x}"
            template = fixture_template(fixtures_dir, STATIC_FIXTURES[k - 1], tag)
        else:
            target = 300 + (1700 * (k - 1 - n_fixture)) // max(1, n_kernel - 1)
            fn = f"kern_{rec_id.replace('-', '_')}_{rng.getrandbits(24):06x}"
            template = static_kernel_template(rng, fn, target)
        ref_pragmas = _pragmas_for(template, rng, 3)
        reference = Source(template.render(ref_pragmas), ref_pragmas)
        cands = []
        for _ in range(STATIC_CANDIDATES):
            p = _candidate_pragmas(template, ref_pragmas, rng)
            cands.append(Source(template.render(p), p))
        identity: frozenset[int] = frozenset()
        if k % 4 == 1:
            pos = rng.randrange(STATIC_CANDIDATES)
            cands[pos] = reference
            identity = frozenset({pos})
        records.append(Record(rec_id, reference, cands, "c", identity=identity))
    return records


# ---------------------------------------------------------------------------
# dataset-compile: medium C and C++ translation units.

_C_FUNCS = [
    (
        [
            "static double norm2_{id}(const double *v, int n) {{",
            "    double s = 0.0;",
            "    int i;",
            "    @P{s0}",
            "    for (i = 0; i < n; i++) {{",
            "        s += v[i] * v[i];",
            "    }}",
            "    return sqrt(s);",
            "}}",
        ],
        [(("parallel", "for"), [[Clause("reduction", ("s",), "+")], [Clause("private", ("i",))],
                                [Clause("schedule", ("static",)), Clause("schedule", ("guided",))],
                                [Clause("shared", ("v",))]])],
    ),
    (
        [
            "void smooth_{id}(int n, double *dst, const double *src) {{",
            "    int i;",
            "    @P{s0}",
            "    for (i = 1; i < n - 1; i++) {{",
            "        dst[i] = (src[i - 1] + src[i] + src[i + 1]) / 3.0;",
            "    }}",
            "}}",
        ],
        [(("parallel", "for"), [[Clause("shared", ("dst", "src")), Clause("shared", ("dst",))],
                                [Clause("schedule", ("static",)), Clause("schedule", ("dynamic", "16"))],
                                [Clause("firstprivate", ("n",))], [Clause("num_threads", ("2",))]])],
    ),
    (
        [
            "int count_above_{id}(const double *v, int n, double limit) {{",
            "    int hits = 0;",
            "    @P{s0}",
            "    for (int i = 0; i < n; i++) {{",
            "        if (v[i] > limit) {{",
            "            @P{s1}",
            "            hits++;",
            "        }}",
            "    }}",
            "    return hits;",
            "}}",
        ],
        [(("parallel", "for"), [[Clause("shared", ("hits",))], [Clause("firstprivate", ("limit",))],
                                [Clause("schedule", ("static",)), Clause("schedule", ("guided",))]]),
         (("atomic",), [])],
    ),
    (
        [
            "void histogram_{id}(const int *keys, int n, int *bins, int nbins) {{",
            "    @P{s0}",
            "    {{",
            "        @P{s1}",
            "        for (int i = 0; i < n; i++) {{",
            "            int b = keys[i] % nbins;",
            "            if (b < 0) b += nbins;",
            "            @P{s2}",
            "            bins[b]++;",
            "        }}",
            "    }}",
            "}}",
        ],
        [(("parallel",), [[Clause("shared", ("bins", "keys")), Clause("shared", ("bins",))],
                          [Clause("firstprivate", ("n", "nbins"))], [Clause("num_threads", ("4",))]]),
         (("for",), [[Clause("schedule", ("static",)), Clause("schedule", ("dynamic",))], [Clause("nowait",)]]),
         (("atomic",), [])],
    ),
]

_C_MAIN = [
    "int main(void) {{",
    "    int n = {n};",
    "    double *a = (double *)malloc(sizeof(double) * n);",
    "    double *b = (double *)malloc(sizeof(double) * n);",
    "    int *keys = (int *)malloc(sizeof(int) * n);",
    "    int bins[8] = {{0}};",
    "    for (int i = 0; i < n; i++) {{",
    "        a[i] = i * 0.5;",
    "        keys[i] = i * 7;",
    "    }}",
    "{calls}",
    "    free(a);",
    "    free(b);",
    "    free(keys);",
    "    return 0;",
    "}}",
]

_C_CALLS = [
    '    printf("%f\\n", norm2_{id}(a, n));',
    "    smooth_{id}(n, b, a);",
    '    printf("%d\\n", count_above_{id}(a, n, 1.0));',
    "    histogram_{id}(keys, n, bins, 8);",
]

_CPP_FUNCS = [
    (
        [
            "template <typename T>",
            "T dot_{id}(const T *x, const T *y, int n) {{",
            "    T s = T();",
            "    @P{s0}",
            "    for (int i = 0; i < n; ++i) {{",
            "        s += x[i] * y[i];",
            "    }}",
            "    return s;",
            "}}",
        ],
        [(("parallel", "for"), [[Clause("reduction", ("s",), "+")],
                                [Clause("schedule", ("static",)), Clause("schedule", ("dynamic", "32"))],
                                [Clause("shared", ("x", "y"))]])],
    ),
    (
        [
            "struct Grid_{id} {{",
            "    int n;",
            "    double *v;",
            "    double at(int i) const {{ return v[i]; }}",
            "}};",
            "",
            "void relax_{id}(Grid_{id} &g, double w) {{",
            "    @P{s0}",
            "    for (int i = 1; i < g.n - 1; ++i) {{",
            "        g.v[i] = (1.0 - w) * g.at(i) + w * 0.5 * (g.at(i - 1) + g.at(i + 1));",
            "    }}",
            "}}",
        ],
        [(("parallel", "for"), [[Clause("firstprivate", ("w",))], [Clause("shared", ("g",))],
                                [Clause("schedule", ("static",)), Clause("schedule", ("guided", "4"))]])],
    ),
    (
        [
            "static double max_abs_{id}(const double *v, int n) {{",
            "    double m = 0.0;",
            "    @P{s0}",
            "    for (int i = 0; i < n; ++i) {{",
            "        double a = v[i] < 0.0 ? -v[i] : v[i];",
            "        @P{s1}",
            "        {{",
            "            if (a > m) m = a;",
            "        }}",
            "    }}",
            "    return m;",
            "}}",
        ],
        [(("parallel", "for"), [[Clause("shared", ("m",))], [Clause("shared", ("v",))],
                                [Clause("schedule", ("dynamic",)), Clause("schedule", ("static", "64"))]]),
         (("critical",), [])],
    ),
]

_CPP_MAIN = [
    "int main() {{",
    "    const int n = {n};",
    "    double *a = new double[n];",
    "    for (int i = 0; i < n; ++i) {{",
    "        a[i] = static_cast<double>(i) * 0.5;",
    "    }}",
    "{calls}",
    "    delete[] a;",
    "    return 0;",
    "}}",
]

_CPP_CALLS = [
    '    std::printf("%f\\n", dot_{id}<double>(a, a, n));',
    "    Grid_{id} g{{n, a}};\n    relax_{id}(g, 0.5);",
    '    std::printf("%f\\n", max_abs_{id}(a, n));',
]


def _unit_template(language: str, uid: str, n: int) -> Template:
    """A translation unit holding every function template of its language."""
    funcs, main, calls = (_C_FUNCS, _C_MAIN, _C_CALLS) if language == "c" else (_CPP_FUNCS, _CPP_MAIN, _CPP_CALLS)
    head = (
        ["#include <stdio.h>", "#include <stdlib.h>", "#include <math.h>", ""]
        if language == "c"
        else ["#include <cstdio>", "#include <cstdlib>", "", f"namespace unit_{uid} {{}}", ""]
    )
    lines = list(head)
    slots = []
    for body, fslots in funcs:
        mapping = {"id": uid}
        for k in range(len(fslots)):
            mapping[f"s{k}"] = str(len(slots) + k)
        lines += [line.format(**mapping) for line in body] + [""]
        slots += fslots
    call_text = "\n".join(c.format(id=uid) for c in calls)
    lines += [line.format(n=n, calls=call_text) for line in main]
    text_lines = "\n".join(lines).split("\n")
    return Template(text_lines, slots)


_UNDECLARED = Clause("private", ("tmp_undeclared",))


def compile_record(rng: random.Random, rec_id: str, language: str, uid: str, broken: bool) -> Record:
    """A reference and three candidates; with ``broken`` the last candidate
    names an undeclared variable in a clause, which fails in C and C++."""
    template = _unit_template(language, uid, 1000 + rng.randrange(1000))
    ref = _pragmas_for(template, rng, 2)
    cands = [_candidate_pragmas(template, ref, rng) for _ in range(3)]
    expect = [True, True, True]
    if broken:
        first = cands[2][0]
        cands[2][0] = Pragma(first.kinds, first.clauses + (_UNDECLARED,))
        expect[2] = False
    return Record(
        rec_id,
        Source(template.render(ref), ref),
        [Source(template.render(p), p) for p in cands],
        language,
        expect_compiles=tuple(expect),
    )


def uncast_malloc_record(round_index: int, rec_id: str) -> Record:
    """Known fault (b): a C record whose second candidate assigns the result
    of malloc without a cast.  That is valid C, which the compile check
    compiles as C++ and scores 0."""
    uid = f"m{round_index}"
    template = _unit_template("c", uid, 1500)
    rng = random.Random(f"malloc:{round_index}")
    ref = _pragmas_for(template, rng, 2)
    cands = [_candidate_pragmas(template, ref, rng) for _ in range(3)]
    texts = [template.render(p) for p in cands]
    cast = "    double *b = (double *)malloc(sizeof(double) * n);"
    texts[1] = texts[1].replace(cast, "    double *b = malloc(sizeof(double) * n);")
    return Record(
        rec_id,
        Source(template.render(ref), ref),
        [Source(t, p) for t, p in zip(texts, cands)],
        "c",
        faults=frozenset({1}),
        expect_compiles=(True, True, True),
    )


COMPILE_RECORDS = 4


def compile_records(seed: int, round_index: int, n_records: int = COMPILE_RECORDS) -> list[Record]:
    """Record 0 is the uncast-malloc fault; the others alternate C and C++,
    every third one with a broken candidate, and record 2 has a candidate
    identical to its reference.  The last quarter of the records repeat the
    sources of records 1, 2, ... under new ids, so their compiles hit the
    cache even on the cold pass."""
    rng = random.Random(f"compile:{seed}:{round_index}")
    n_dup = n_records // 4
    records = [uncast_malloc_record(round_index, f"r{round_index:03d}-00")]
    for k in range(1, n_records - n_dup):
        language = "c" if k % 2 else "cpp"
        uid = f"r{round_index}_{k}_{rng.getrandbits(24):06x}"
        records.append(compile_record(rng, f"r{round_index:03d}-{k:02d}", language, uid, broken=k % 3 == 1))
    if len(records) > 2:
        rec = records[2]
        rec.candidates[0] = rec.reference
        rec.identity = frozenset({0})
        rec.expect_compiles = (True,) + rec.expect_compiles[1:]
    for d in range(n_dup):
        src = records[1 + d]
        records.append(
            Record(
                f"r{round_index:03d}-{len(records):02d}",
                src.reference,
                list(src.candidates),
                src.language,
                identity=src.identity,
                expect_compiles=src.expect_compiles,
            )
        )
    return records


# ---------------------------------------------------------------------------
# large-tu: a quarter-size unit of many small kernels; the full unit is the
# quarter replicated four times under renamed functions, so that `wc`, `vu`,
# `rc` and `cc` of the full pair must equal those of the quarter pair.

LARGE_FUNCS = 11  # two directives each: 22 per quarter, 88 per full unit


def _large_function(rng: random.Random, k: int) -> Template:
    nm = {"a": "a", "b": "b", "c": "c", "acc": "acc", "i": "i", "j": "j"}
    kind = k % 3
    inner = ("critical",) if kind == 0 else ("atomic",)
    body = [_BODY_FILLERS[(k + q) % len(_BODY_FILLERS)].format(**nm) for q in range(4)]
    lines = [
        f"void f{k}_@R(int n, int m, const double *a, const double *b, double *c) {{",
        "    double acc = 0.0;",
        "    int i, j;",
        f"    @P{2 * k}",
        "    for (i = 0; i < n; i++) {",
        "        for (j = 0; j < m; j++) {",
        "            double t = a[i * m + j] * b[j];",
        *[f"            {s}" for s in body],
        "            acc += t;",
        f"            @P{2 * k + 1}",
    ]
    if inner == ("critical",):
        lines += ["            {", "                c[j] += t;", "            }"]
    else:
        lines += ["            c[j] += t;"]
    lines += ["        }", "    }", "    c[0] += acc;", "}", ""]
    return Template(lines, [(("parallel", "for"), _static_menu(nm)), (inner, [])])


def large_pair(seed: int, round_index: int, copies_full: int = 4, funcs: int = LARGE_FUNCS):
    """(quarter_ref, quarter_cand, full_ref, full_cand) as Sources.

    The edit-distance cost grows with the square of the directive-string
    length, so the seed only picks among options of each clause group and
    which half of the worksharing directives the candidate edits; which
    groups each function uses is fixed."""
    rng = random.Random(f"large:{seed}:{round_index}")
    parts = [_large_function(rng, k) for k in range(funcs)]
    lines = ["#include <stdio.h>", ""]
    slots = []
    for part in parts:
        lines += part.lines
        slots += part.slots
    template = Template(lines, slots)
    ref = []
    for kinds, menu in slots:
        k = len(ref) // 2
        groups = sorted({k % len(menu), (k + 3) % len(menu), (k + 5) % len(menu)}) if menu else []
        ref.append(Pragma(kinds, tuple(rng.choice(menu[g]) for g in groups)))
    cand = list(ref)
    loop_slots = list(range(0, len(slots), 2))
    for k in rng.sample(loop_slots, len(loop_slots) // 2):
        cand[k] = Pragma(ref[k].kinds, _mutate(rng, ref[k].clauses, slots[k][1]))
    tag = f"{round_index}_{rng.getrandbits(24):06x}"

    def unit(pragmas: list[Pragma], copies: int) -> Source:
        body = template.render(pragmas)
        head, rest = body.split("\n", 2)[:2], body.split("\n", 2)[2]
        text = "\n".join(head) + "\n" + "".join(rest.replace("@R", f"{tag}_c{c}") for c in range(copies))
        return Source(text, pragmas * copies)

    return unit(ref, 1), unit(cand, 1), unit(ref, copies_full), unit(cand, copies_full)


# ---------------------------------------------------------------------------
# corpus: source files with their pragma lines known, in full and quarter size.

CORPUS_FILES = 6


def corpus_files(seed: int, round_index: int, fixtures_dir: Path, n_files: int = CORPUS_FILES):
    """``n_files`` pairs of (quarter, full) files as (text, stripped_text);
    the full file is its quarter replicated four times."""
    rng = random.Random(f"corpus:{seed}:{round_index}")
    out = []
    for k in range(n_files):
        tag = f"c{round_index}_{k}_{rng.getrandbits(24):06x}"
        if k < len(FIXTURES) // 2:
            template = fixture_template(fixtures_dir, FIXTURES[(k + round_index) % len(FIXTURES)], tag)
        else:
            template = static_kernel_template(rng, f"kern_{tag}", 1800)
        pragmas = _pragmas_for(template, rng, 3)
        text = template.render(pragmas)
        stripped = template.render_stripped()
        quarter = (text, stripped)
        full = (
            "".join(text.replace(tag, f"{tag}_x{c}") for c in range(4)),
            "".join(stripped.replace(tag, f"{tag}_x{c}") for c in range(4)),
        )
        out.append((quarter, full))
    return out
