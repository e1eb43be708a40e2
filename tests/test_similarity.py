import itertools
import json
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ompbleu.similarity import (
    BagOfTokensBackend,
    CodeText,
    RemoteEmbeddingBackend,
    SimilarityError,
    SparseTokenVector,
    edit_distance,
    lcs_length,
    lcs_ratio,
    lev_similarity,
)


def brute_force_edit_distance(a: str, b: str) -> int:
    table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
    for i in range(len(a) + 1):
        table[i][0] = i
    for j in range(len(b) + 1):
        table[0][j] = j
    for i in range(1, len(a) + 1):
        for j in range(1, len(b) + 1):
            cost = 0 if a[i - 1] == b[j - 1] else 1
            table[i][j] = min(
                table[i - 1][j] + 1, table[i][j - 1] + 1, table[i - 1][j - 1] + cost
            )
    return table[len(a)][len(b)]


def brute_force_lcs(a, b) -> int:
    best = 0
    for r in range(len(a) + 1):
        for combo in itertools.combinations(range(len(a)), r):
            sub = [a[i] for i in combo]
            it = iter(b)
            if all(x in it for x in iter(sub)):
                best = max(best, r)
    return best


def dp_lcs_length(a, b) -> int:
    """The O(|a|*|b|) dynamic program ``lcs_length`` replaced."""
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0]
        for j, y in enumerate(b, 1):
            cur.append(prev[j - 1] + 1 if x == y else max(prev[j], cur[j - 1]))
        prev = cur
    return prev[len(b)]


def _affixed_pairs(rng: random.Random, alphabet, other, trials: int, max_len: int):
    """Pairs of lists up to ``max_len`` long, in turn: random ones, ones
    that share a long prefix and suffix around short random middles, equal
    ones, and ones whose second list is drawn from the ``other`` alphabet,
    disjoint from ``alphabet``."""

    def draw(hi: int, letters=alphabet) -> list:
        return [rng.choice(letters) for _ in range(rng.randint(0, hi))]

    for trial in range(trials):
        kind = trial % 4
        if kind == 0:
            yield draw(max_len), draw(max_len)
        elif kind == 1:
            prefix, suffix = draw(max_len // 3), draw(max_len // 3)
            yield prefix + draw(max_len // 6) + suffix, prefix + draw(max_len // 6) + suffix
        elif kind == 2:
            a = draw(max_len)
            yield a, list(a)
        else:
            yield draw(max_len), draw(max_len, other)


def _oracle_lev(a: str, b: str) -> float:
    if not a and not b:
        return 1.0
    return 1.0 - brute_force_edit_distance(a, b) / max(len(a), len(b))


def test_lev_examples():
    assert lev_similarity("abc", "abc") == 1.0
    assert abs(lev_similarity("abc", "abd") - (1 - 1 / 3)) < 1e-12
    assert lev_similarity("", "x") == 0.0
    assert lev_similarity("", "") == 1.0


def test_lev_matches_oracle_exhaustive_short():
    alphabet = "abc"
    strings = [
        "".join(p)
        for n in range(0, 4)
        for p in itertools.product(alphabet, repeat=n)
    ]
    for a in strings:
        for b in strings:
            assert lev_similarity(a, b) == pytest.approx(_oracle_lev(a, b), abs=1e-12)


def test_lev_matches_oracle_sampled_up_to_length_8():
    rng = random.Random(20240809)
    alphabet = "abc"
    for _ in range(4000):
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        b = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 8)))
        assert lev_similarity(a, b) == pytest.approx(_oracle_lev(a, b), abs=1e-12)


def test_lev_matches_oracle_past_one_machine_word():
    rng = random.Random(20261018)
    alphabets = ["ab", "acgt", "for(i=0;<n+)", "aé€😀 \n\t"]
    for trial in range(24):
        alphabet = alphabets[trial % len(alphabets)]
        a = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 400)))
        if trial % 6 == 5:
            b = ""
        elif trial % 3 == 0:
            # a mutated copy: long matching runs as well as edits
            b = "".join(
                c if rng.random() < 0.9 else rng.choice(alphabet) * rng.randint(0, 2)
                for c in a
            )
        else:
            b = "".join(rng.choice(alphabet) for _ in range(rng.randint(60, 400)))
        assert lev_similarity(a, b) == _oracle_lev(a, b)
        assert lev_similarity(b, a) == lev_similarity(a, b)


def test_lev_matches_oracle_on_replicated_directive_strings():
    from ompbleu.metrics import _directive_strings, analyze

    from conftest import fixture_text

    def directive_string(name: str) -> str:
        return _directive_strings(analyze(fixture_text(name) * 4).directives)

    gt = directive_string("multiple_gt.c")
    for case in ("multiple_case1.c", "multiple_case4.c"):
        gen = directive_string(case)
        assert len(gt) > 64 and len(gen) > 64
        assert lev_similarity(gt, gen) == _oracle_lev(gt, gen)
        assert lev_similarity(gen, gt) == lev_similarity(gt, gen)


@given(st.text(alphabet="abc", max_size=8), st.text(alphabet="abc", max_size=8))
@settings(max_examples=300, deadline=None)
def test_lev_symmetric_and_bounded(a, b):
    s = lev_similarity(a, b)
    assert 0.0 <= s <= 1.0
    assert s == lev_similarity(b, a)
    assert (s == 1.0) == (a == b)


def test_lcs_examples():
    assert lcs_ratio(["A", "B"], ["A", "B"]) == 1.0
    assert lcs_ratio(["A", "B"], ["B", "A"]) == 0.5
    assert lcs_ratio(["X"], ["Y"]) == 0.0
    assert lcs_ratio([], []) == 1.0


def test_lcs_matches_oracle_exhaustive_short():
    alphabet = [0, 1, 2]
    seqs = [
        list(p)
        for n in range(0, 4)
        for p in itertools.product(alphabet, repeat=n)
    ]
    for a in seqs:
        for b in seqs:
            expected = (
                1.0
                if not a and not b
                else 0.0
                if not a or not b
                else 2 * brute_force_lcs(a, b) / (len(a) + len(b))
            )
            assert lcs_ratio(a, b) == pytest.approx(expected, abs=1e-12)


def test_lcs_matches_oracle_sampled_up_to_length_6():
    rng = random.Random(77)
    for _ in range(1500):
        a = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
        b = [rng.randrange(3) for _ in range(rng.randint(0, 6))]
        expected = (
            1.0
            if not a and not b
            else 0.0
            if not a or not b
            else 2 * brute_force_lcs(a, b) / (len(a) + len(b))
        )
        assert lcs_ratio(a, b) == pytest.approx(expected, abs=1e-12)


def test_lcs_matches_the_dynamic_program_up_to_length_300():
    rng = random.Random(20261019)
    # tuples like the `or` elements: (signature, depth, collapse tag, construct)
    alphabets = [
        [("parallel", 0, None, "block"), ("for", 1, "collapse_valid", "for_loop")],
        [(s, d, None, "block") for s in ("parallel", "for", "barrier") for d in range(2)],
        [(k,) for k in range(8)],
    ]
    other = [("single", 0, None, "block"), ("task", 2, None, "statement")]
    for trial in range(30):
        alphabet = alphabets[trial % len(alphabets)]
        for a, b in _affixed_pairs(rng, alphabet, other, 4, 300):
            expected = dp_lcs_length(a, b)
            assert lcs_length(a, b) == expected == lcs_length(b, a), (a, b)
            if a or b:
                assert lcs_ratio(a, b) == 2.0 * expected / (len(a) + len(b)) == lcs_ratio(b, a)


def test_edit_distance_with_shared_prefix_and_suffix_matches_brute_force():
    rng = random.Random(20261020)
    for alphabet in ("ab", "acgt", "for(i=0;<n+)"):
        for a, b in _affixed_pairs(rng, alphabet, "XYZ", 40, 90):
            a, b = "".join(a), "".join(b)
            expected = brute_force_edit_distance(a, b)
            assert edit_distance(a, b) == expected == edit_distance(b, a), (a, b)


@given(
    st.lists(st.integers(0, 3), max_size=8),
    st.lists(st.integers(0, 3), max_size=8),
)
@settings(max_examples=200, deadline=None)
def test_lcs_identity_and_label_permutation(a, b):
    assert lcs_ratio(a, a) == 1.0
    # relabeling both sequences with the same injective map changes nothing
    relabel = {0: 7, 1: 5, 2: 9, 3: 4}
    assert lcs_ratio(a, b) == lcs_ratio([relabel[x] for x in a], [relabel[x] for x in b])


# -- cosine -----------------------------------------------------------------


def test_context_cosine_examples():
    context_cosine = BagOfTokensBackend().similarity
    assert context_cosine("for i", "for i") == 1.0
    assert context_cosine("for i", "for j") == pytest.approx(0.5)
    assert context_cosine("alpha beta", "gamma delta") == 0.0


def test_cosine_token_reordering_invariant():
    backend = BagOfTokensBackend()
    assert backend.similarity("a b c", "c a b") == 1.0


def test_cosine_empty_conventions():
    context_cosine = BagOfTokensBackend().similarity
    assert context_cosine("", "") == 1.0
    assert context_cosine("", "x") == 0.0
    assert context_cosine("/* only comment */", "") == 1.0


def test_sparse_vector_self_cosine():
    v = SparseTokenVector.from_code("for (i = 0; i < n; i++) sum += i;")
    assert v.cosine(v) == pytest.approx(1.0)


class _Untouchable:
    """A token source that fails if the bag is built from it."""

    def __getitem__(self, index):
        raise AssertionError("a bag was built")

    def __iter__(self):
        raise AssertionError("a bag was built")


def test_equal_texts_score_one_without_building_a_bag():
    backend = BagOfTokensBackend()
    text = "for (i = 0; i < n; i++) a[i] = 0;"
    code = CodeText(text, _Untouchable())
    assert backend.similarity(code, CodeText(text, _Untouchable(), 3, 9)) == 1.0
    assert backend.similarity(code, text) == 1.0
    with pytest.raises(AssertionError, match="a bag was built"):
        backend.similarity(code, CodeText(text + " ", _Untouchable()))


def test_comments_and_whitespace_excluded_from_bags():
    context_cosine = BagOfTokensBackend().similarity
    assert context_cosine("x + y // same", "x + y /* different */") == 1.0


# -- remote backend ---------------------------------------------------------


class _EmbedHandler(BaseHTTPRequestHandler):
    vectors = {"alpha": [1.0, 0.0], "beta": [0.0, 1.0], "both": [1.0, 1.0], "zero": [0.0, 0.0]}
    fail_mode = None
    malformed_body = b'{"nope": true}'

    def do_POST(self):
        if self.path != "/embed":
            self.send_error(404)
            return
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        if self.fail_mode == "http500":
            self.send_error(500)
            return
        if self.fail_mode == "malformed":
            payload = self.malformed_body
        else:
            text = body["text"]
            vec = self.vectors.get(text, [1.0, 2.0, 3.0])
            payload = json.dumps({"vector": vec}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        self.end_headers()
        self.wfile.write(payload)

    def log_message(self, *args):  # keep test output clean
        pass


@pytest.fixture()
def embed_server():
    server = HTTPServer(("127.0.0.1", 0), _EmbedHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _EmbedHandler.fail_mode = None
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()
    thread.join(timeout=5)


def test_remote_backend_cosine(embed_server):
    backend = RemoteEmbeddingBackend(embed_server, "test-model", timeout=5)
    assert backend.similarity("alpha", "beta") == 0.0
    assert backend.similarity("alpha", "both") == pytest.approx(1 / 2**0.5)
    assert backend.similarity("alpha", "alpha") == pytest.approx(1.0)


def test_remote_backend_rejects_a_zero_vector_even_for_equal_texts(embed_server):
    # only the bag backend may skip its work for equal texts
    backend = RemoteEmbeddingBackend(embed_server, "test-model", timeout=5)
    with pytest.raises(SimilarityError, match="zero vector"):
        backend.similarity(CodeText("zero", ()), CodeText("zero", ()))


def test_remote_backend_http_error(embed_server):
    _EmbedHandler.fail_mode = "http500"
    backend = RemoteEmbeddingBackend(embed_server, "test-model", timeout=5)
    with pytest.raises(SimilarityError):
        backend.similarity("alpha", "beta")


# Each malformed embedding response, with what its refusal says.
MALFORMED_EMBEDDINGS = [
    (b'{"nope": true}', r"unknown embedding response keys: \['nope'\]"),
    (b"{}", "no vector"),
    (b'{"vector": []}', "vector must be a non-empty list of numbers"),
    (b"not json", "Expecting value"),
    (b'{"vector": ["1.5", true, "2"], "extra": 1}', r"unknown .* keys: \['extra'\]"),
    (b'{"vector": ["1.5", true, "2"]}', r"vector\[0\] must be a number, got '1.5'"),
    (b'{"vector": [1.0, true]}', r"vector\[1\] must be a number, got True"),
    (b'{"vector": [NaN, 1.0]}', r"vector\[0\] must be a number, got nan"),
]


def test_remote_backend_malformed_body(embed_server, monkeypatch):
    _EmbedHandler.fail_mode = "malformed"
    for body, message in MALFORMED_EMBEDDINGS:
        monkeypatch.setattr(_EmbedHandler, "malformed_body", body)
        backend = RemoteEmbeddingBackend(embed_server, "test-model", timeout=5)
        with pytest.raises(SimilarityError, match="malformed embedding response: .*" + message):
            backend.similarity("alpha", "beta")


def test_remote_backend_unreachable():
    backend = RemoteEmbeddingBackend("http://127.0.0.1:1", "test-model", timeout=0.2)
    with pytest.raises(SimilarityError):
        backend.similarity("a", "b")


def test_remote_backend_caches_by_content(embed_server):
    backend = RemoteEmbeddingBackend(embed_server, "test-model", timeout=5)
    backend.similarity("alpha", "beta")
    _EmbedHandler.fail_mode = "http500"  # cache must make this invisible
    assert backend.similarity("alpha", "beta") == 0.0


def test_remote_cache_stays_bounded_under_threads(embed_server):
    # one backend serves every worker of a dataset run
    backend = RemoteEmbeddingBackend(embed_server, "test-model", timeout=5)
    backend.cache_entries = 4
    texts = ["alpha", "beta", "both"] + [f"text{i}" for i in range(9)]
    expected = {t: _EmbedHandler.vectors.get(t, [1.0, 2.0, 3.0]) for t in texts}
    wrong = []

    def work(seed):
        rng = random.Random(seed)
        for _ in range(25):
            text = rng.choice(texts)
            if backend.embed(text) != expected[text]:
                wrong.append(text)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(i,)) for i in range(6)]
        for w in workers:
            w.start()
        for w in workers:
            w.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(w.is_alive() for w in workers)
    assert wrong == []
    assert len(backend._cache) <= 4


def test_scoring_through_remote_backend(embed_server, thread_pools):
    # full pipeline with the mocked embedding service configured
    from ompbleu.config import BackendSpec, EvalConfig
    from ompbleu.metrics import ompbleu_score
    from ompbleu.report import DatasetRecord, evaluate_dataset

    cfg = EvalConfig(
        backend=BackendSpec(
            kind="remote_embedding", endpoint=embed_server, model_id="test-model"
        ),
        compile_enabled=False,
    )
    code = "int main(void){ return 0; }\n"
    assert ompbleu_score(code, code, cfg).composite == 100.0
    # a dataset run overlaps the embedding calls on threads, with the same report
    records = [
        DatasetRecord(id=f"r{k}", reference=code, candidates=(f"int x{k};\n", code))
        for k in range(4)
    ]
    one = evaluate_dataset(records, cfg, jobs=1).to_json()
    assert evaluate_dataset(records, cfg, jobs=2).to_json() == one
    assert thread_pools == [2]


def test_scoring_surfaces_backend_failure(embed_server):
    from ompbleu.config import BackendSpec, EvalConfig
    from ompbleu.metrics import ompbleu_score

    _EmbedHandler.fail_mode = "http500"
    cfg = EvalConfig(
        backend=BackendSpec(
            kind="remote_embedding", endpoint=embed_server, model_id="test-model"
        ),
        compile_enabled=False,
    )
    with pytest.raises(SimilarityError):
        ompbleu_score("int a;\n", "int b;\n", cfg)


def test_backend_fallback_key_is_refused_and_failures_raise(embed_server, tmp_path, capsys):
    # no second backend rescues a failed remote call
    from ompbleu.cli import main
    from ompbleu.config import load_config
    from ompbleu.metrics import ompbleu_score

    backend = {"kind": "remote_embedding", "endpoint": embed_server, "model_id": "test-model"}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": {**backend, "fallback": "bag_of_tokens"}}))
    source = tmp_path / "a.c"
    source.write_text("int a;\n")
    assert main(["--config", str(cfg), "score", str(source), str(source)]) == 2
    assert "unknown backend keys: ['fallback']" in capsys.readouterr().err
    cfg.write_text(json.dumps({"backend": backend, "compile_enabled": False}))
    _EmbedHandler.fail_mode = "http500"
    with pytest.raises(SimilarityError):
        ompbleu_score("int a;\n", "int b;\n", load_config(cfg))


@pytest.mark.parametrize("endpoint", ["mocked, HTTP 500", "http://127.0.0.1:1"])
def test_cli_score_reports_a_backend_failure_as_an_error_line(embed_server, tmp_path, capsys, endpoint):
    # port 1 refuses at once on the loopback interface
    from ompbleu.cli import main

    if endpoint.startswith("mocked"):
        endpoint, message = embed_server, "error: embedding service returned HTTP 500\n"
        _EmbedHandler.fail_mode = "http500"
    else:
        message = "error: embedding request failed: "
    backend = {"kind": "remote_embedding", "endpoint": endpoint, "model_id": "test-model", "timeout": 2}
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"backend": backend, "compile_enabled": False}))
    a, b = tmp_path / "a.c", tmp_path / "b.c"
    a.write_text("int a;\n")
    b.write_text("int b;\n")
    assert main(["--config", str(cfg), "score", str(a), str(b)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(message)
