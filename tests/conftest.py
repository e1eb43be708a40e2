import concurrent.futures
import dataclasses
import functools
import importlib.util
import json
import shutil
import sys
from itertools import accumulate, compress, repeat
from operator import add, itemgetter
from pathlib import Path

import pytest
from hypothesis import strategies as st

from ompbleu import config, report, similarity
from ompbleu.compile_check import LANGUAGE_SPELLINGS
from ompbleu.metrics import SUBSCORE_WEIGHTS
from ompbleu.syntax import directives, lexer
from ompbleu.syntax.directives import KNOWN_CLAUSE_KINDS
from ompbleu.syntax.lexer import _KIND_OF, _KIND_OF_FIRST, _RE_CODE, Token

FIXTURES = Path(__file__).parent / "fixtures"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SINGLE_CASES = ["single_case1.c", "single_case2.c", "single_case3.c", "single_case4.c"]
MULTIPLE_CASES = [
    "multiple_case1.c",
    "multiple_case2.c",
    "multiple_case3.c",
    "multiple_case4.c",
]


def fixture_text(name: str) -> str:
    return (FIXTURES / name).read_text()


def perfbench_module(name: str):
    """The benchmark's module ``perfbench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # a dataclass looks its module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def compiler_available() -> bool:
    return any(shutil.which(c) for c in ("clang", "gcc", "cc"))


requires_compiler = pytest.mark.skipif(
    not compiler_available(), reason="no C/C++ compiler on PATH"
)


# Oracle: the lexer as it ran when it built one Token per code token, with
# each token's kind and line computed in bulk in the lexing pass.  The
# columns plus the kinds and lines derived from them must equal it, and the
# tests that need a unit's code tokens as Token tuples read them from it.


def token_tokenize(text: str) -> list[Token]:
    """The code tokens of ``text`` as :class:`Token` tuples."""
    parts = _RE_CODE.split("\n" + text)
    lexemes = parts[3::4]
    n = lexemes.index("")
    del lexemes[n:]
    gaps = parts[1 : 4 * n : 4]
    newlines = parts[2 : 4 * n : 4]
    gap_lens = list(map(len, gaps))
    ends = accumulate(map(add, gap_lens, map(len, lexemes)), initial=-1)
    starts = list(map(add, ends, gap_lens))
    # a token's line counts the newlines in the layout and in the token before
    # it: a directive or a literal holds one where it runs on over a splice
    newline_counts = [gap.count("\n") + before.count("\n") for gap, before in zip(gaps, ["", *lexemes])]
    first = map(_KIND_OF_FIRST.__getitem__, map(itemgetter(0), lexemes))
    kinds = list(map(_KIND_OF.get, lexemes, first))
    flags = [False] * n
    heads = [*compress(range(n), newlines), n]
    for head, end in zip(heads, heads[1:]):
        lexeme = lexemes[head]
        if lexeme[0] == "#":
            kinds[head] = "preprocessor"
            flags[head:end] = repeat(True, end - head)
    lines = accumulate(newline_counts)
    return list(map(Token, lexemes, kinds, starts, lines, flags))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return FIXTURES


@pytest.fixture()
def tokenize_calls(monkeypatch):
    """The text of each ``tokenize`` call through any ``ompbleu`` module."""
    original = lexer.tokenize
    calls: list[str] = []

    def counting(text):
        calls.append(text)
        return original(text)

    for name, module in list(sys.modules.items()):
        if name.startswith("ompbleu") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return calls


@pytest.fixture()
def bracket_builds(monkeypatch):
    """The lexemes of the unit of each bracket table built."""
    original = lexer.Brackets.__init__
    built: list[list[str]] = []

    def counting(self, lexemes, in_directive):
        built.append(lexemes)
        original(self, lexemes, in_directive)

    monkeypatch.setattr(lexer.Brackets, "__init__", counting)
    return built


@pytest.fixture()
def body_parses(monkeypatch):
    """The code tokens after `omp` of each pragma body parsed."""
    original = directives._parse_directive_body
    parsed: list[list[str]] = []

    def counting(lexemes, start, end):
        parsed.append(lexemes[start:end])
        return original(lexemes, start, end)

    monkeypatch.setattr(directives, "_parse_directive_body", counting)
    return parsed


@pytest.fixture()
def unit_builds(monkeypatch):
    """The text of each :class:`~ompbleu.syntax.lexer.SourceUnit` built."""
    original = lexer.SourceUnit.__init__
    built: list[str] = []

    def counting(self, text, *columns):
        built.append(text)
        original(self, text, *columns)

    monkeypatch.setattr(lexer.SourceUnit, "__init__", counting)
    return built


@pytest.fixture()
def view_builds(monkeypatch):
    """The text of the unit of each stripped view built from scratch."""
    original = directives.StrippedView.__init__
    built: list[str] = []

    def counting(self, unit, lines):
        built.append(unit.text)
        original(self, unit, lines)

    monkeypatch.setattr(directives.StrippedView, "__init__", counting)
    return built


@pytest.fixture()
def bag_builds(monkeypatch):
    """The lexemes of each bag of code tokens counted."""
    original = similarity.SparseTokenVector.from_lexemes
    counted: list[list[str]] = []

    def counting(cls, lexemes):
        counted.append(list(lexemes))
        return original(counted[-1])

    monkeypatch.setattr(similarity.SparseTokenVector, "from_lexemes", classmethod(counting))
    return counted


@pytest.fixture()
def decision_scans(monkeypatch):
    """The lexemes of the unit of each scan for decision points."""
    original = lexer.SourceUnit.decisions.func
    scanned: list[list[str]] = []

    def counting(self):
        scanned.append(self.lexemes)
        return original(self)

    scan = functools.cached_property(counting)
    scan.__set_name__(lexer.SourceUnit, "decisions")
    monkeypatch.setattr(lexer.SourceUnit, "decisions", scan)
    return scanned


@pytest.fixture()
def dataclass_replaces(monkeypatch):
    """The instance of each ``dataclasses.replace`` call, through the
    module or any ``ompbleu`` module that binds it."""
    original = dataclasses.replace
    copied: list[object] = []

    def counting(obj, /, **changes):
        copied.append(obj)
        return original(obj, **changes)

    monkeypatch.setattr(dataclasses, "replace", counting)
    for name, module in list(sys.modules.items()):
        if name.startswith("ompbleu") and module is not None:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counting)
    return copied


@pytest.fixture()
def thread_pools(monkeypatch):
    """Sizes of the thread pools ``evaluate_dataset`` builds."""
    original = concurrent.futures.ThreadPoolExecutor
    sizes: list[int] = []

    def recording(max_workers):
        sizes.append(max_workers)
        return original(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", recording)
    return sizes


SOUP_LINES = [
    "#pragma omp parallel for private(i) reduction(+:s)",
    "#pragma omp parallel",
    "  #pragma omp for collapse(2)",
    "#pragma omp single",
    "#pragma omp atomic",
    "#pragma omp barrier",
    "#pragma omp critical(name)",
    "#pragma omp parallel \\\n    for schedule(static)",
    "#pragma omp task /* comment\n spanning lines */ untied",
    "#pragma GCC ivdep",
    "#define BODY { x++; }",
    "for (int i = 0; i < n; i++) {",
    "for (j = 0; j < m; j++)",
    "  for (k = 0; k < 4; ++k) s += a[k] && b[k];",
    "if (a || b) y++;",
    "while (x) { x--; }",
    "x += a[i] * b[j];",
    "{",
    "}",
    "/* #pragma omp parallel */",
    "// line comment",
    '"#pragma omp for"',
    "FOR_EACH(i, n) { t = i; }",
    "",
    "\t",
]


def pragma_soups() -> st.SearchStrategy[str]:
    """Sources of random pragma, loop, brace and comment lines plus noise."""
    return st.builds(
        lambda lines, newline, trailing: newline.join(lines) + (newline if trailing else ""),
        st.lists(
            st.one_of(
                st.sampled_from(SOUP_LINES),
                st.text(alphabet="ab{}();#\\ \t\n+&|", max_size=16),
            ),
            max_size=24,
        ),
        st.sampled_from(["\n", "\r\n"]),
        st.booleans(),
    )


# Brackets left open, closed by the wrong type, and on `#pragma omp` and
# `#define` lines, whose closers may lie on a later line.
BRACKET_FRAGMENTS = [
    "(", ")", "[", "]", "{", "}", ";", " ", "\n", "\\\n", "x", "a[i]", "f(x)",
    "for (i = 0; i < n; i++)", "for (;;)", "for (int j = 0; j < m; j++) {",
    "if", "while", "case", "&&", "||", "'('", '"{"', "/* } */", "// ;\n",
    "\n#pragma omp parallel\n", "\n#pragma omp parallel for private(",
    "\n#pragma omp for reduction(+:s) collapse(2", "\n#pragma omp critical(",
    "\n#pragma omp task depend(in: a[", "\n#pragma omp single\n",
    "\n#define M(a) { a; ", "\n#pragma GCC ivdep\n",
]

bracket_soups = st.lists(st.sampled_from(BRACKET_FRAGMENTS), max_size=60).map("".join)


# Config files and dataset records drawn from the key tables that read them:
# each key of a table has a draw of its valid JSON values here, and a key
# that a table gains without one fails every draw.  A config draws no key
# that the echo leaves out, so those keep their defaults.

WRONG_JSON = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.one_of(st.none(), st.integers(), st.text(max_size=3)), max_size=3),
    st.dictionaries(st.text(max_size=3), st.integers(), max_size=2),
)

_positive = st.one_of(st.integers(1, 1000), st.floats(min_value=1e-3, max_value=1e3))


def _composite_weights() -> st.SearchStrategy[dict]:
    """All eight composite weights, whose sum is 1 within the check's 1e-9."""
    parts = st.lists(
        st.integers(0, 20), min_size=len(SUBSCORE_WEIGHTS), max_size=len(SUBSCORE_WEIGHTS)
    ).filter(any)
    return parts.map(lambda ps: {k: p / sum(ps) for k, p in zip(SUBSCORE_WEIGHTS, ps)})


CONFIG_DRAWS = {
    "weights": st.builds(
        lambda composite, alpha: {**composite, **alpha},
        st.one_of(st.just({}), _composite_weights()),
        st.fixed_dictionaries({}, optional={"is_blend_alpha": st.floats(0, 1)}),
    ),
    "clause_weights": st.fixed_dictionaries(
        {},
        optional={
            "table": st.dictionaries(
                st.sampled_from(sorted(KNOWN_CLAUSE_KINDS)), _positive, max_size=4
            ),
            "default": _positive,
        },
    ),
    "backend": {
        "kind": st.sampled_from(["bag_of_tokens", "remote_embedding"]),
        "endpoint": st.one_of(st.none(), st.text(min_size=1, max_size=12)),
        "model_id": st.one_of(st.none(), st.text(min_size=1, max_size=12)),
        "timeout": _positive,
    },
    "compile": {
        "command": st.one_of(st.none(), st.lists(st.text(max_size=8), min_size=1, max_size=3)),
        "extra_flags": st.lists(st.text(max_size=8), max_size=3),
        "mode": st.sampled_from(["syntax_only", "full"]),
        "timeout": _positive,
        "wrap_snippets": st.booleans(),
        "timeout_as_failure": st.booleans(),
        "language": st.sampled_from(["auto", *sorted(LANGUAGE_SPELLINGS)]),
    },
    "compile_enabled": st.booleans(),
    "clause_vocabulary": st.one_of(st.none(), st.text(max_size=12)),
    "tag_vocabulary": st.one_of(st.none(), st.text(max_size=12)),
}
_SECTION_TABLES = {"backend": config._BACKEND_KEYS, "compile": config._COMPILE_KEYS}


def config_files(draws: dict = CONFIG_DRAWS) -> st.SearchStrategy[dict]:
    """Config files of some of the echoed keys of every table, each valued
    from its draw in ``draws``."""

    def section(table: dict, draws: dict) -> st.SearchStrategy[dict]:
        return st.fixed_dictionaries(
            {},
            optional={
                key: section(_SECTION_TABLES[key], draws[key])
                if isinstance(draws[key], dict)
                else draws[key]
                for key, k in table.items()
                if not k.unechoed
            },
        )

    return section(config._ROOT_KEYS, draws)


@st.composite
def record_lines(draw, sources: st.SearchStrategy[str]) -> str:
    """A JSONL line of a dataset record: each key of the record table valued
    as it should be, with a value of another JSON type, or left out, and
    now and then a key no record has, or a line that is no record at all."""
    valid = {
        "id": st.text(max_size=6),
        "reference": sources,
        "candidates": st.lists(sources, max_size=3),
        "language": st.one_of(st.none(), st.sampled_from([*sorted(LANGUAGE_SPELLINGS), "f90"])),
    }
    if draw(st.integers(0, 9)) == 0:
        return draw(st.sampled_from(["[1, 2]", "null", '"int x;"', "{not json", "  "]))
    record = {}
    for key in report._RECORD_KEYS:
        fate = draw(st.sampled_from(["valid"] * 6 + ["wrong", "missing"]))
        if fate != "missing":
            record[key] = draw(valid[key] if fate == "valid" else WRONG_JSON)
    if draw(st.integers(0, 9)) == 0:
        record[draw(st.sampled_from(["langauge", "candidate", "notes"]))] = draw(WRONG_JSON)
    return json.dumps(record)
