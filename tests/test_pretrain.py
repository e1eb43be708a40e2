import bisect
import math
import random
import re
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompbleu.config import ConfigError
from ompbleu.pretrain import (
    _CLAUSE_STRUCTURAL,
    _KEYWORD_ROLES,
    _OMP_CLAUSE_ROLES,
    _OMP_DIRECTIVE_ROLES,
    _PUNCT_ROLES,
    _STORAGE_KEYWORDS,
    _TYPE_KEYWORDS,
    LossComputationError,
    LossInputs,
    NoiseSchedule,
    TagVocabulary,
    corrupt,
    ssa_annotate,
    weighted_token_cross_entropy,
)
from ompbleu.syntax import Token, extract_directives, parse_source, tokenize
from ompbleu.syntax.directives import _SUCCESSORS, DIRECTIVE_KINDS, directive_kinds, directive_line_spans
from ompbleu.syntax.lexer import lexeme_kind

from conftest import FIXTURES, SOUP_LINES, fixture_text, perfbench_module, pragma_soups

SAMPLE = (
    "#pragma omp parallel for reduction(+:sum)\n"
    "for (int i = 0; i < 10; i++) {\n"
    "sum+=i;}\n"
)


def test_default_vocab_has_seventy_dense_ids():
    vocab = TagVocabulary.default()
    assert vocab.size == 70
    assert sorted(vocab.tags.values()) == list(range(70))
    assert vocab.tags["none"] == 0


def test_vocab_rejects_sparse_ids():
    with pytest.raises(ValueError):
        TagVocabulary(tags={"none": 0, "x": 2})


def test_vocab_file_with_duplicates_is_a_config_error(tmp_path):
    path = tmp_path / "tags.txt"
    path.write_text("none\ncomment\nidentifier\ncomment\nnone\n")
    with pytest.raises(ConfigError, match=r"\['comment', 'none'\]"):
        TagVocabulary.load(path)


def test_ssa_length_matches_nonwhitespace_tokens():
    for path in sorted(FIXTURES.glob("*.c")):
        unit = parse_source(path.read_text())
        tags = ssa_annotate(unit)
        visible = [t for t in unit.tokens if t.kind != "whitespace"]
        assert len(tags) == len(visible), path.name


def test_ssa_pragma_line_gets_openmp_tags():
    unit = parse_source(SAMPLE)
    vocab = TagVocabulary.default()
    tags = ssa_annotate(unit, vocab)
    visible = [t for t in unit.tokens if t.kind != "whitespace"]
    by_token = dict(zip([t.lexeme for t in visible], tags))
    assert by_token["#pragma"] == vocab.id_of("omp_pragma")
    assert by_token["omp"] == vocab.id_of("omp_marker")
    assert by_token["parallel"] == vocab.id_of("omp_parallel")
    assert by_token["reduction"] == vocab.id_of("omp_clause_reduction")
    assert sum(1 for t in tags if t != 0) >= 1


def test_ssa_unknown_role_is_zero():
    unit = parse_source("@ $\n")
    assert ssa_annotate(unit) == [0, 0]


def test_ssa_deterministic():
    unit = parse_source(fixture_text("multiple_gt.c"))
    assert ssa_annotate(unit) == ssa_annotate(unit)


def test_ssa_clause_args_inherit_clause_tag():
    unit = parse_source("#pragma omp parallel private(alpha, beta)\n{ }\n")
    vocab = TagVocabulary.default()
    tags = ssa_annotate(unit, vocab)
    visible = [t.lexeme for t in unit.tokens if t.kind != "whitespace"]
    priv = vocab.id_of("omp_clause_private")
    assert tags[visible.index("alpha")] == priv
    assert tags[visible.index("beta")] == priv


def test_ssa_non_omp_preprocessor_roles():
    unit = parse_source("#include <stdio.h>\n")
    vocab = TagVocabulary.default()
    tags = ssa_annotate(unit, vocab)
    assert tags[0] == vocab.id_of("preproc_directive")
    assert all(t == vocab.id_of("preproc_arg") for t in tags[1:])


# Oracle: the tagger before it shared the directive parser's pragma-line
# spans and kinds.  It grouped a preprocessor line from a whitespace-free
# token list and ran its own kind state machine, sharing only the role
# tables with ``ssa_annotate``.


def _oracle_pragma_line_roles(tokens):
    roles = ["omp_pragma"]
    words = tokens[1:]
    roles_rest = []
    state = "marker"
    kinds = []
    current_clause_role = None
    paren_depth = 0
    for tok in words:
        lex = tok.lexeme
        if state == "marker":
            roles_rest.append("omp_marker")
            state = "kinds"
            continue
        if state == "kinds":
            if tok.kind in ("identifier", "keyword") and (
                (not kinds and lex in DIRECTIVE_KINDS)
                or (kinds and lex in _SUCCESSORS.get(kinds[-1], frozenset()))
            ):
                kinds.append(lex)
                roles_rest.append(_OMP_DIRECTIVE_ROLES.get(lex, "omp_directive_other"))
                continue
            state = "clauses"
        if tok.kind in ("identifier", "keyword") and paren_depth == 0:
            current_clause_role = _OMP_CLAUSE_ROLES.get(lex, "omp_clause_other")
            roles_rest.append(current_clause_role)
        elif lex in _CLAUSE_STRUCTURAL:
            if lex == "(":
                paren_depth += 1
            elif lex == ")":
                paren_depth = max(0, paren_depth - 1)
                if paren_depth == 0:
                    current_clause_role = None
            roles_rest.append(_PUNCT_ROLES.get(lex, "none"))
        elif current_clause_role is not None and paren_depth > 0:
            roles_rest.append(current_clause_role)
        else:
            roles_rest.append("none")
    return roles + roles_rest


def _oracle_token_role(tok):
    if tok.kind == "comment":
        return "comment"
    if tok.kind == "string":
        return "char_literal" if tok.lexeme.startswith("'") else "string_literal"
    if tok.kind == "number":
        return "number_literal"
    if tok.kind == "identifier":
        return "identifier"
    if tok.kind == "keyword":
        if tok.lexeme in _TYPE_KEYWORDS:
            return "type_keyword"
        if tok.lexeme in _STORAGE_KEYWORDS:
            return "storage_keyword"
        return _KEYWORD_ROLES.get(tok.lexeme, "other_keyword")
    if tok.kind == "punctuation":
        return _PUNCT_ROLES.get(tok.lexeme, "none")
    if tok.kind == "preprocessor":
        return "preproc_directive"
    return "none"


def oracle_ssa_annotate(unit, vocab):
    visible = [t for t in unit.tokens if t.kind != "whitespace"]
    roles = []
    i = 0
    while i < len(visible):
        tok = visible[i]
        if tok.kind == "preprocessor":
            line = [tok]
            j = i + 1
            while j < len(visible) and visible[j].in_directive:
                line.append(visible[j])
                j += 1
            word = re.sub(r"(?s:/\*.*?\*/)|\\\r?\n|[#\s]", "", tok.lexeme)
            if word == "pragma" and len(line) > 1 and line[1].lexeme == "omp":
                roles.extend(_oracle_pragma_line_roles(line))
            else:
                roles.append("preproc_directive")
                roles.extend("comment" if t.kind == "comment" else "preproc_arg" for t in line[1:])
            i = j
            continue
        roles.append(_oracle_token_role(tok))
        i += 1
    return [vocab.id_of(r) for r in roles]


VOCAB = TagVocabulary.default()
_NAMES = {i: name for name, i in VOCAB.tags.items()}


def _tagged(source, annotate=ssa_annotate):
    """(lexeme, tag name) of every non-whitespace token."""
    unit = parse_source(source)
    visible = [t.lexeme for t in unit.tokens if t.kind != "whitespace"]
    tags = annotate(unit, VOCAB)
    assert len(tags) == len(visible)
    return [(lex, _NAMES[tag]) for lex, tag in zip(visible, tags)]


def test_tags_equal_the_oracle_on_fixtures():
    for path in sorted(FIXTURES.glob("*.c")):
        source = path.read_text()
        new, old = _tagged(source), _tagged(source, oracle_ssa_annotate)
        changed = [(n, o) for n, o in zip(new, old) if n != o]
        # xs_kernel.c opens with two `#include` lines, and the oracle read
        # the second as an argument of the first
        if path.name == "xs_kernel.c":
            assert changed == [(("#include", "preproc_directive"), ("#include", "preproc_arg"))]
        else:
            assert changed == [], path.name


# Pragma lines on which the oracle and the directive parser agree: no
# comment, a known first kind, and `(` only after the first kind or after a
# clause name that extends no directive kind.
_FIRST_KINDS = sorted(DIRECTIVE_KINDS)
_BARE_WORDS = sorted({w for ws in _SUCCESSORS.values() for w in ws} | {"nowait", "untied", "x"})
_CALL_CLAUSES = ["private", "shared", "firstprivate", "schedule", "collapse", "num_threads", "if"]
_CLAUSE_ARGS = ["i", "j, k", "+:s", "static, 4", "2", "a[0:n]", "(x)", ""]


@st.composite
def _agreeing_pragma_lines(draw):
    parts = ["#pragma omp", draw(st.sampled_from(_FIRST_KINDS))]
    if draw(st.booleans()):
        parts[-1] += f"({draw(st.sampled_from(_CLAUSE_ARGS))})"
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.booleans()):
            parts.append(draw(st.sampled_from(_BARE_WORDS)))
        else:
            name, arg = draw(st.sampled_from(_CALL_CLAUSES)), draw(st.sampled_from(_CLAUSE_ARGS))
            parts.append(f"{name}({arg})")
    seps = draw(st.lists(st.sampled_from([" ", ", ", " \\\n    "]), min_size=len(parts), max_size=len(parts)))
    return draw(st.sampled_from(["", "  "])) + "".join(p + s for p, s in zip(parts, seps)).rstrip(" \\\n,")


_OTHER_PREPROCESSOR_LINES = [
    "#include <stdio.h>",
    "#define BODY { x++; }",
    "#pragma GCC ivdep",
    "#pragma OMP parallel",
    "#pragma once",
    " # if X // why",
]
# each has a token that ends the preprocessor line before it
_CODE_LINES = [line for line in SOUP_LINES if line.strip() and not line.lstrip().startswith("#")] + [
    "int x = 'c' + 42;",
    "return 0;",
]


@given(
    st.lists(
        st.tuples(
            st.one_of(st.none(), st.sampled_from(_OTHER_PREPROCESSOR_LINES), _agreeing_pragma_lines()),
            st.one_of(
                st.sampled_from(_CODE_LINES),
                st.text(alphabet="ab{}();+&|\"' \t", max_size=16).filter(str.strip),
            ),
        ),
        max_size=16,
    ),
    st.sampled_from(["\n", "\r\n"]),
)
@settings(max_examples=300, deadline=None)
def test_tags_equal_the_oracle_on_soups_without_stacked_preprocessor_lines(pairs, newline):
    source = newline.join(line for pair in pairs for line in pair if line is not None) + newline
    assert _tagged(source) == _tagged(source, oracle_ssa_annotate)


def test_stacked_preprocessor_lines_are_tagged_apart():
    source = "#include <omp.h>\n#pragma omp parallel\n#pragma omp for reduction(+:s)\n#include <b.h>\n"
    assert _tagged(source) == [
        ("#include", "preproc_directive"),
        ("<", "preproc_arg"),
        ("omp", "preproc_arg"),
        (".", "preproc_arg"),
        ("h", "preproc_arg"),
        (">", "preproc_arg"),
        ("#pragma", "omp_pragma"),
        ("omp", "omp_marker"),
        ("parallel", "omp_parallel"),
        ("#pragma", "omp_pragma"),
        ("omp", "omp_marker"),
        ("for", "omp_for"),
        ("reduction", "omp_clause_reduction"),
        ("(", "open_paren"),
        ("+", "omp_clause_reduction"),
        (":", "omp_clause_reduction"),
        ("s", "omp_clause_reduction"),
        (")", "close_paren"),
        ("#include", "preproc_directive"),
        ("<", "preproc_arg"),
        ("b", "preproc_arg"),
        (".", "preproc_arg"),
        ("h", "preproc_arg"),
        (">", "preproc_arg"),
    ]


def test_comment_in_a_pragma_line_is_tagged_comment():
    source = "#pragma /* a */ omp parallel /* b */ for private(i) // c\n"
    assert _tagged(source) == [
        ("#pragma", "omp_pragma"),
        ("/* a */", "comment"),
        ("omp", "omp_marker"),
        ("parallel", "omp_parallel"),
        ("/* b */", "comment"),
        ("for", "omp_for"),
        ("private", "omp_clause_private"),
        ("(", "open_paren"),
        ("i", "omp_clause_private"),
        (")", "close_paren"),
        ("// c", "comment"),
    ]
    assert extract_directives(parse_source(source))[0].kinds == ("parallel", "for")


def test_unknown_first_word_is_a_degraded_directive_kind():
    source = "#pragma omp frobnicate nowait\n"
    assert _tagged(source) == [
        ("#pragma", "omp_pragma"),
        ("omp", "omp_marker"),
        ("frobnicate", "omp_directive_other"),
        ("nowait", "omp_clause_other"),
    ]
    (directive,) = extract_directives(parse_source(source))
    assert directive.kinds == ("frobnicate",) and directive.degraded


def test_successor_word_before_a_paren_is_a_clause():
    source = "#pragma omp declare reduction(merge : int : omp_out += omp_in)\n"
    assert _tagged(source)[2:5] == [
        ("declare", "omp_directive_other"),
        ("reduction", "omp_clause_reduction"),
        ("(", "open_paren"),
    ]
    assert extract_directives(parse_source(source))[0].kinds == ("declare",)


# -- corruption -------------------------------------------------------------


def test_ratio_ramp():
    sched = NoiseSchedule(r0=0.1, r1=0.5, ramp_steps=100)
    assert sched.ratio(0) == pytest.approx(0.1)
    assert sched.ratio(50) == pytest.approx(0.3)
    assert sched.ratio(100) == pytest.approx(0.5)
    assert sched.ratio(100000) == pytest.approx(0.5)


def test_a_negative_step_is_refused():
    # the ramp starts at step 0; below it the ratio would fall under r0
    with pytest.raises(ValueError, match="step must be non-negative"):
        corrupt(parse_source(SAMPLE), NoiseSchedule(), step=-1, seed=1)


def test_zero_ratio_is_identity():
    sched = NoiseSchedule(r0=0.0, r1=0.0, ramp_steps=1, modes=frozenset({"mask"}))
    assert corrupt(parse_source(SAMPLE), sched, step=0, seed=7) == SAMPLE


def test_full_ratio_masks_everything():
    sched = NoiseSchedule(r0=1.0, r1=1.0, ramp_steps=1, modes=frozenset({"mask"}))
    out = corrupt(parse_source(SAMPLE), sched, step=0, seed=7)
    # every code token became MASK, and only layout is left besides
    assert out.count("MASK") == len(parse_source(SAMPLE).lexemes)
    assert out.replace("MASK", "").isspace()


def test_identical_seed_reproduces_bytes():
    sched = NoiseSchedule(r0=0.3, r1=0.6, ramp_steps=10, modes=frozenset({"mask", "drop"}))
    a = corrupt(parse_source(SAMPLE), sched, step=4, seed=42)
    b = corrupt(parse_source(SAMPLE), sched, step=4, seed=42)
    assert a == b
    c = corrupt(parse_source(SAMPLE), sched, step=4, seed=43)
    assert a != c  # overwhelmingly likely for this ratio and size


def test_corruption_rate_statistics():
    # over many trials the affected fraction converges to the schedule ratio
    sched = NoiseSchedule(r0=0.15, r1=0.15, ramp_steps=1, modes=frozenset({"mask"}))
    unit = parse_source(SAMPLE)
    assert "MASK" not in SAMPLE  # so each MASK in the output is one masked token
    maskable = len(unit.lexemes)
    total_affected = 0
    trials = 10_000
    for seed in range(trials):
        out = corrupt(unit, sched, step=0, seed=seed)
        total_affected += out.count("MASK")
    rate = total_affected / (trials * maskable)
    assert abs(rate - 0.15) < 0.02


def test_keyword_drop_prefers_keywords():
    code = "for while if int x y z a b c d e f g h k m n p q\n"
    unit = parse_source(code)
    sched = NoiseSchedule(r0=0.25, r1=0.25, ramp_steps=1, modes=frozenset({"keyword_drop"}))
    kinds = list(map(lexeme_kind, unit.lexemes))
    kw_total = kinds.count("keyword")
    other_total = len(kinds) - kw_total
    kw_dropped = 0
    other_dropped = 0
    for seed in range(3000):
        # one blank separates the tokens, so the survivors lex as themselves
        out = list(map(lexeme_kind, tokenize(corrupt(unit, sched, step=0, seed=seed)).lexemes))
        kw_dropped += kw_total - out.count("keyword")
        other_dropped += other_total - (len(out) - out.count("keyword"))
    kw_rate = kw_dropped / (3000 * kw_total)
    other_rate = other_dropped / (3000 * other_total)
    assert kw_rate > 1.5 * other_rate


def test_lang_token_insert_prepends():
    sched = NoiseSchedule(
        r0=0.0, r1=0.0, ramp_steps=1, modes=frozenset({"lang_token_insert"})
    )
    out = corrupt(parse_source(SAMPLE), sched, step=0, seed=1)
    assert out.startswith("[cpp]")
    assert out.endswith(SAMPLE)


def test_shuffle_permutes_within_window():
    code = "a b c d e f g h\n"
    sched = NoiseSchedule(
        r0=1.0, r1=1.0, ramp_steps=1, modes=frozenset({"shuffle"}), shuffle_window=3
    )
    out = corrupt(parse_source(code), sched, step=0, seed=5)
    original = parse_source(code).lexemes
    shuffled = tokenize(out).lexemes
    assert sorted(shuffled) == sorted(original)
    for idx, lex in enumerate(shuffled):
        src = original.index(lex)
        assert abs(src - idx) < 3  # moved only within its window


def test_drop_removes_tokens_but_keeps_layout():
    sched = NoiseSchedule(r0=1.0, r1=1.0, ramp_steps=1, modes=frozenset({"drop"}))
    out = corrupt(parse_source("a b\n"), sched, step=0, seed=0)
    assert tokenize(out).lexemes == []
    assert out == " \n"


# Oracle: ``ssa_annotate`` and ``corrupt`` as they ran on the full token
# stream (``SourceUnit.tokens``, layout included), and ``render_tokens``,
# which joined the corrupted stream into text.


def _stream_pragma_line_roles(tokens):
    code = [t for t in tokens if t.kind not in ("whitespace", "comment")]
    kinds, _ = directive_kinds([t.lexeme for t in code[2:]])
    head = deque(
        ["omp_pragma", "omp_marker", *(_OMP_DIRECTIVE_ROLES.get(k, "omp_directive_other") for k in kinds)]
    )
    roles = []
    clause_role = None
    paren_depth = 0
    for tok in tokens:
        if tok.kind == "whitespace":
            continue
        lex = tok.lexeme
        if tok.kind == "comment":
            role = "comment"
        elif head:
            role = head.popleft()
        elif tok.kind in ("identifier", "keyword") and paren_depth == 0:
            role = clause_role = _OMP_CLAUSE_ROLES.get(lex, "omp_clause_other")
        elif lex in _CLAUSE_STRUCTURAL:
            if lex == "(":
                paren_depth += 1
            elif lex == ")":
                paren_depth = max(0, paren_depth - 1)
                if paren_depth == 0:
                    clause_role = None
            role = _PUNCT_ROLES[lex]
        elif clause_role is not None and paren_depth > 0:
            role = clause_role
        else:
            role = "none"
        roles.append(role)
    return roles


def _stream_token_role(tok):
    if tok.kind == "comment":
        return "comment"
    if tok.kind == "preprocessor":
        return "preproc_directive"
    if tok.in_directive:
        return "preproc_arg"
    return _oracle_token_role(tok)


def stream_ssa_annotate(unit, vocab):
    tokens = unit.tokens
    offsets = [t.byte_offset for t in tokens]
    roles = []
    pos = 0
    for lo, hi in directive_line_spans(unit):
        start = bisect.bisect_left(offsets, lo, pos)
        end = bisect.bisect_left(offsets, hi, start)
        roles.extend(_stream_token_role(t) for t in tokens[pos:start] if t.kind != "whitespace")
        roles.extend(_stream_pragma_line_roles(tokens[start:end]))
        pos = end
    roles.extend(_stream_token_role(t) for t in tokens[pos:] if t.kind != "whitespace")
    return [vocab.id_of(r) for r in roles]


def stream_corrupt(tokens, schedule, step, seed):
    rng = random.Random(f"{seed}:{step}")
    ratio = schedule.ratio(step)
    out = list(tokens)
    per_token_ops = []
    if "mask" in schedule.modes:
        per_token_ops.append("mask")
    if "drop" in schedule.modes or "keyword_drop" in schedule.modes:
        per_token_ops.append("drop")
    if "shuffle" in schedule.modes:
        per_token_ops.append("shuffle")
    maskable = [i for i, t in enumerate(out) if t.kind not in ("whitespace", "comment")]
    affected = []
    if per_token_ops and ratio > 0.0 and maskable:
        hits = sum(1 for _ in maskable if rng.random() < ratio)
        if "keyword_drop" in schedule.modes:
            keyed = sorted(
                maskable,
                key=lambda i: rng.random() ** (1.0 / (3.0 if out[i].kind == "keyword" else 1.0)),
                reverse=True,
            )
            affected = sorted(keyed[:hits])
        else:
            affected = sorted(rng.sample(maskable, hits)) if hits else []
    drops = set()
    shuffles = []
    for i in affected:
        op = per_token_ops[rng.randrange(len(per_token_ops))] if len(per_token_ops) > 1 else per_token_ops[0]
        if op == "mask":
            tok = out[i]
            out[i] = Token(schedule.mask_token, tok.kind, tok.byte_offset, tok.line)
        elif op == "drop":
            drops.add(i)
        else:
            shuffles.append(i)
    if shuffles:
        ordinal = {tok_i: k for k, tok_i in enumerate(maskable)}
        windows = {}
        for i in shuffles:
            windows.setdefault(ordinal[i] // schedule.shuffle_window, []).append(i)
        for group in windows.values():
            lexemes = [out[i].lexeme for i in group]
            rng.shuffle(lexemes)
            for i, lex in zip(group, lexemes):
                tok = out[i]
                out[i] = Token(lex, tok.kind, tok.byte_offset, tok.line)
    if drops:
        out = [t for i, t in enumerate(out) if i not in drops]
    if "lang_token_insert" in schedule.modes:
        out.insert(0, Token(schedule.lang_token, "identifier", 0, 1))
        if len(out) > 1 and out[1].kind != "whitespace":
            out.insert(1, Token(" ", "whitespace", 0, 1))
    return out


def render_tokens(tokens):
    return "".join(t.lexeme for t in tokens)


_MODES = ["mask", "shuffle", "drop", "keyword_drop", "lang_token_insert"]
_MODE_SETS = [frozenset({m}) for m in _MODES] + [frozenset(_MODES), frozenset({"mask", "shuffle", "drop"})]
_SEED_STEPS = [(0, 0), (7, 2500), (3004, 4000), (123, 10_000)]


def _assert_equal_to_the_stream(text, seed_steps=_SEED_STEPS, **schedule):
    unit = parse_source(text)
    assert ssa_annotate(unit, VOCAB) == stream_ssa_annotate(unit, VOCAB)
    for modes in _MODE_SETS:
        sched = NoiseSchedule(modes=modes, **schedule)
        for seed, step in seed_steps:
            expected = render_tokens(stream_corrupt(unit.tokens, sched, step, seed))
            assert corrupt(unit, sched, step, seed) == expected, (sorted(modes), seed, step)


def test_annotate_and_corrupt_equal_the_stream_oracle_on_fixtures():
    for path in sorted(FIXTURES.glob("*.c*")):
        _assert_equal_to_the_stream(path.read_text())


def test_annotate_and_corrupt_equal_the_stream_oracle_on_corpus_files():
    gen = perfbench_module("gen")
    for seed, round_index in ((3, 0), (71, 1)):
        for quarter, full in gen.corpus_files(seed, round_index, FIXTURES):
            for text, _ in (quarter, full):
                _assert_equal_to_the_stream(text, [(seed * 1000 + round_index, 4000)])


@given(pragma_soups(), st.sampled_from(_SEED_STEPS))
@settings(max_examples=400, deadline=None)
def test_annotate_and_corrupt_equal_the_stream_oracle_on_soups(text, seed_step):
    _assert_equal_to_the_stream(text, [seed_step], r0=0.2, r1=0.8)


@pytest.mark.parametrize(
    "text, kept, dropped",
    [
        ("", "[cpp]", "[cpp]"),
        ("/* c */ int x;\n", "[cpp] /* c */ int x;\n", "[cpp] /* c */  \n"),
        ("// c\nx", "[cpp] // c\nx", "[cpp] // c\n"),
        ("\\\nint x;", "[cpp]\\\nint x;", "[cpp]\\\n "),
        ("\nint x;", "[cpp]\nint x;", "[cpp]\n "),
        ("int x;", "[cpp] int x;", "[cpp] "),
        ("x+y/*c*/", "[cpp] x+y/*c*/", "[cpp] /*c*/"),
        ("x+y", "[cpp] x+y", "[cpp]"),
        ("\\x", "[cpp] \\x", "[cpp]"),
    ],
)
def test_lang_token_insert_spaces_only_before_code_or_a_comment(text, kept, dropped):
    unit = parse_source(text)
    for r, expected in ((0.0, kept), (1.0, dropped)):
        sched = NoiseSchedule(r0=r, r1=r, ramp_steps=1, modes=frozenset({"drop", "lang_token_insert"}))
        out = corrupt(unit, sched, step=0, seed=1)
        assert out == render_tokens(stream_corrupt(unit.tokens, sched, 0, 1)) == expected
    # the first code token dropped and the second kept, over many seeds
    sched = NoiseSchedule(r0=0.5, r1=0.5, ramp_steps=1, modes=frozenset({"drop", "lang_token_insert"}))
    for seed in range(40):
        assert corrupt(unit, sched, 0, seed) == render_tokens(stream_corrupt(unit.tokens, sched, 0, seed))


def test_schedule_validation():
    with pytest.raises(ValueError):
        NoiseSchedule(r0=0.5, r1=0.1)
    with pytest.raises(ValueError):
        NoiseSchedule(ramp_steps=0)
    with pytest.raises(ValueError):
        NoiseSchedule(modes=frozenset({"transmogrify"}))


# -- weighted loss ----------------------------------------------------------


def brute_force_loss(p, y, o, m, lam):
    total = 0.0
    n = 0.0
    B, T, C = p.shape
    for b in range(B):
        for t in range(T):
            n += m[b, t]
            if m[b, t] == 0:
                continue
            inner = 0.0
            for c in range(C):
                if y[b, t, c]:
                    inner += y[b, t, c] * math.log(p[b, t, c])
            w = lam if o[b, t] == 1 else 1.0
            total += m[b, t] * w * (-inner)
    return total / n


def _random_inputs(rng, lam=5.0):
    B = int(rng.integers(1, 4))
    T = int(rng.integers(1, 6))
    C = int(rng.integers(2, 5))
    p = rng.dirichlet(np.ones(C), size=(B, T))
    labels = rng.integers(0, C, size=(B, T))
    y = np.eye(C)[labels]
    o = rng.integers(0, 2, size=(B, T)).astype(float)
    m = rng.integers(0, 2, size=(B, T)).astype(float)
    if m.sum() == 0:
        m[0, 0] = 1.0
    return LossInputs(p, y, o, m, lam=lam)


def test_loss_matches_brute_force_on_random_tensors():
    rng = np.random.default_rng(1234)
    for _ in range(1000):
        inputs = _random_inputs(rng, lam=float(rng.integers(1, 8)))
        fast = weighted_token_cross_entropy(inputs)
        slow = brute_force_loss(
            inputs.probabilities,
            inputs.labels,
            inputs.omp_flags,
            inputs.padding_mask,
            inputs.lam,
        )
        assert abs(fast - slow) < 1e-9


def test_lambda_one_equals_unweighted_mean():
    rng = np.random.default_rng(7)
    for _ in range(50):
        inputs = _random_inputs(rng, lam=1.0)
        p_true = (inputs.probabilities * inputs.labels).sum(axis=2)
        mask = inputs.padding_mask.astype(bool)
        expected = float(-(np.log(p_true[mask])).sum() / inputs.padding_mask.sum())
        assert weighted_token_cross_entropy(inputs) == pytest.approx(expected, abs=1e-12)


def test_single_perfect_token_is_zero():
    inputs = LossInputs(
        probabilities=np.array([[[1.0, 0.0]]]),
        labels=np.array([[[1.0, 0.0]]]),
        omp_flags=np.array([[1.0]]),
        padding_mask=np.array([[1.0]]),
    )
    assert weighted_token_cross_entropy(inputs) == 0.0


def test_two_token_weighted_example():
    v = math.exp(-1.0)
    inputs = LossInputs(
        probabilities=np.array([[[v, 1 - v], [v, 1 - v]]]),
        labels=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
        omp_flags=np.array([[0.0, 1.0]]),
        padding_mask=np.array([[1.0, 1.0]]),
        lam=5.0,
    )
    assert weighted_token_cross_entropy(inputs) == pytest.approx(3.0, abs=1e-12)


def test_lambda_monotonicity():
    rng = np.random.default_rng(99)
    for _ in range(30):
        base = _random_inputs(rng, lam=2.0)
        if not ((base.omp_flags == 1) & (base.padding_mask == 1)).any():
            continue
        low = weighted_token_cross_entropy(base)
        high = weighted_token_cross_entropy(
            LossInputs(
                base.probabilities, base.labels, base.omp_flags, base.padding_mask, lam=6.0
            )
        )
        assert high >= low - 1e-12


def test_lambda_irrelevant_when_no_omp_tokens():
    rng = np.random.default_rng(5)
    inputs = _random_inputs(rng, lam=3.0)
    zero_flags = np.zeros_like(inputs.omp_flags)
    a = weighted_token_cross_entropy(
        LossInputs(inputs.probabilities, inputs.labels, zero_flags, inputs.padding_mask, lam=3.0)
    )
    b = weighted_token_cross_entropy(
        LossInputs(inputs.probabilities, inputs.labels, zero_flags, inputs.padding_mask, lam=9.0)
    )
    assert a == pytest.approx(b, abs=1e-15)


def test_padding_invariance():
    rng = np.random.default_rng(11)
    for _ in range(50):
        inputs = _random_inputs(rng)
        padded = ~inputs.padding_mask.astype(bool)
        if not padded.any():
            continue
        p2 = inputs.probabilities.copy()
        y2 = inputs.labels.copy()
        p2[padded] = rng.dirichlet(np.ones(p2.shape[2]), size=int(padded.sum()))
        y2[padded] = np.eye(p2.shape[2])[rng.integers(0, p2.shape[2], int(padded.sum()))]
        a = weighted_token_cross_entropy(inputs)
        b = weighted_token_cross_entropy(
            LossInputs(p2, y2, inputs.omp_flags, inputs.padding_mask, lam=inputs.lam)
        )
        assert a == pytest.approx(b, abs=1e-12)


def test_zero_probability_reports_position():
    inputs_ok = LossInputs(
        probabilities=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
        labels=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
        omp_flags=np.array([[0.0, 0.0]]),
        padding_mask=np.array([[1.0, 1.0]]),
    )
    with pytest.raises(LossComputationError, match=r"batch=0, token=1"):
        weighted_token_cross_entropy(inputs_ok)


def test_zero_probability_at_padded_position_is_fine():
    inputs = LossInputs(
        probabilities=np.array([[[1.0, 0.0], [0.0, 1.0]]]),
        labels=np.array([[[1.0, 0.0], [1.0, 0.0]]]),
        omp_flags=np.array([[0.0, 0.0]]),
        padding_mask=np.array([[1.0, 0.0]]),
    )
    assert weighted_token_cross_entropy(inputs) == 0.0


def test_loss_inputs_validation():
    with pytest.raises(ValueError):
        LossInputs(
            probabilities=np.array([[[0.5, 0.4]]]),  # does not sum to 1
            labels=np.array([[[1.0, 0.0]]]),
            omp_flags=np.array([[0.0]]),
            padding_mask=np.array([[1.0]]),
        )
    with pytest.raises(ValueError):
        LossInputs(
            probabilities=np.array([[[0.5, 0.5]]]),
            labels=np.array([[[1.0, 1.0]]]),  # not one-hot
            omp_flags=np.array([[0.0]]),
            padding_mask=np.array([[1.0]]),
        )
    with pytest.raises(ValueError):
        LossInputs(
            probabilities=np.array([[[0.5, 0.5]]]),
            labels=np.array([[[1.0, 0.0]]]),
            omp_flags=np.array([[0.0]]),
            padding_mask=np.array([[0.0]]),  # all padding
        )
