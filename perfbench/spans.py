"""Spans around the program's public functions, installed from outside.

The tracer replaces each listed function or method, in every ``ompbleu``
module that binds it, with a wrapper that records a span: its name, start,
end, self time and round.  Self time is the span's duration minus the time
its child spans cover; children run nested in the same thread, so that is
the sum of their durations.  Spans stay in memory until the run ends.
Nothing is changed inside ``src/ompbleu``.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

# (module, function, span name).  Several functions may share a span name.
FUNCTIONS = [
    ("ompbleu.syntax.lexer", "tokenize", "lexer.tokenize"),
    ("ompbleu.metrics", "analyze", "metrics.analyze"),
    ("ompbleu.metrics", "ompbleu_score", "metrics.ompbleu_score"),
    ("ompbleu.metrics", "weighted_clause_score", "metrics.wc"),
    ("ompbleu.metrics", "variable_usage_score", "metrics.vu"),
    ("ompbleu.metrics", "integrated_semantic_score", "metrics.is"),
    ("ompbleu.metrics", "ordering_score", "metrics.or"),
    ("ompbleu.metrics", "redundancy_coverage_score", "metrics.rc"),
    ("ompbleu.metrics", "cyclomatic_ratio", "metrics.cc"),
    ("ompbleu.metrics", "pragma_location_score", "metrics.pl"),
    ("ompbleu.similarity", "lev_similarity", "similarity.lev"),
    ("ompbleu.similarity", "lcs_ratio", "similarity.lcs"),
    ("ompbleu.syntax.directives", "attached_construct_span", "directives.construct_span"),
    ("ompbleu.syntax.directives", "extract_directives", "directives.extract"),
    ("ompbleu.syntax.directives", "strip_openmp", "directives.strip"),
    ("ompbleu.syntax.regions", "parallel_region_blocks", "regions.region_blocks"),
    ("ompbleu.syntax.loops", "loop_contexts", "loops.loop_contexts"),
    ("ompbleu.compile_check", "compile_score", "compile_check.compile_score"),
    ("ompbleu.report", "rank_candidates", "report.rank"),
    ("ompbleu.report", "evaluate_dataset", "report.assemble"),
    ("ompbleu.classify", "clause_confusion", "classify"),
    ("ompbleu.classify", "aggregate", "classify"),
    ("ompbleu.classify", "classification_report", "classify"),
    ("ompbleu.pretrain", "ssa_annotate", "pretrain.annotate"),
    ("ompbleu.pretrain", "corrupt", "pretrain.corrupt"),
]

# (module, class, method, span name)
METHODS = [
    ("ompbleu.config", "EvalConfig", "make_backend", "config.make_backend"),
    ("ompbleu.similarity", "SparseTokenVector", "from_code", "similarity.bag_vector"),
    ("ompbleu.similarity", "BagOfTokensBackend", "similarity", "similarity.bag_similarity"),
    ("ompbleu.report", "Report", "to_json", "report.to_json"),
]

# per-layer metric -> span name; the value is the span's self time per
# round, the median over the traced rounds
SELF_TIME_METRICS = {
    "lexer.tokenize_s": "lexer.tokenize",
    "similarity.lev_s": "similarity.lev",
    "similarity.lcs_s": "similarity.lcs",
    "directives.construct_span_s": "directives.construct_span",
    "regions.region_blocks_s": "regions.region_blocks",
    "loops.loop_contexts_s": "loops.loop_contexts",
    "directives.extract_s": "directives.extract",
    "metrics.wc_s": "metrics.wc",
    "metrics.vu_s": "metrics.vu",
    "metrics.is_s": "metrics.is",
    "metrics.or_s": "metrics.or",
    "metrics.rc_s": "metrics.rc",
    "metrics.cc_s": "metrics.cc",
    "metrics.pl_s": "metrics.pl",
    "report.rank_s": "report.rank",
    "classify.s": "classify",
    "report.assemble_s": "report.assemble",
    "report.to_json_s": "report.to_json",
    "directives.strip_s": "directives.strip",
    "pretrain.annotate_s": "pretrain.annotate",
    "pretrain.corrupt_s": "pretrain.corrupt",
}

# per-layer metric -> span name; the value is calls per round
CALL_METRICS = {
    "config.make_backend_calls": "config.make_backend",
    "similarity.bag_vectors_built": "similarity.bag_vector",
    "similarity.lev_calls": "similarity.lev",
    "compile_check.calls": "compile_check.compile_score",
}

# unit of every per-layer metric
UNITS = {
    **{metric: "s" for metric in SELF_TIME_METRICS},
    **{metric: "count" for metric in CALL_METRICS},
    "lexer.tokenize_calls_per_pair": "count",
    "lexer.mb_per_s": "MB/s",
    "metrics.analyze_calls_per_pair": "count",
    "similarity.bag_cache_hit_ratio": "ratio",
    "compile_check.subprocess_runs": "count",
    "compile_check.subprocess_ms_p50": "ms",
    "compile_check.cache_hit_ratio": "ratio",
    "traced.pairs_per_s": "ops/s",
}

_PAIR = "metrics.ompbleu_score"
_TOKENIZE = "lexer.tokenize"


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.round = 0
        self.spans: list[tuple] = []  # (name, round, start, end, self, extra)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._restore: list[tuple] = []

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for module_name, func_name, span in FUNCTIONS:
            original = getattr(sys.modules[module_name], func_name)
            wrapper = self._wrap(original, span)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("ompbleu") or mod is None:
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
        for module_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules[module_name], cls_name)
            raw = cls.__dict__[meth]
            if isinstance(raw, classmethod):
                patched = classmethod(self._wrap(raw.__func__, span))
            else:
                patched = self._wrap(raw, span)
            self._restore.append((cls, meth, raw))
            setattr(cls, meth, patched)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def _wrap(self, fn, span: str):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [0.0, 0]  # time covered by children, tokenize calls inside
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
            extra = None
            if span == _TOKENIZE:
                extra = len(args[0]) if args else len(kwargs["text"])
                for outer in stack:
                    outer[1] += 1
            elif span == _PAIR:
                extra = frame[1]
            elif span == "compile_check.compile_score":
                extra = (result.cached, result.duration)
            with tracer._lock:
                tracer.spans.append((span, tracer.round, start, end, duration - frame[0], extra))
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- results -----------------------------------------------------------

    def write(self, path: Path) -> None:
        with path.open("w") as fh:
            for name, rnd, start, end, self_s, extra in self.spans:
                fh.write(json.dumps({"name": name, "round": rnd, "start": start, "end": end,
                                     "self_s": self_s, "extra": extra}) + "\n")

    def self_time_totals(self) -> dict[str, float]:
        totals: dict[str, float] = defaultdict(float)
        for name, _, _, _, self_s, _ in self.spans:
            totals[name] += self_s
        return dict(totals)

    def layer_metrics(self, rounds: list[int]) -> dict[str, float]:
        """Per-layer values; a layer the workload does not exercise reads 0."""
        self_s: dict[tuple, float] = defaultdict(float)
        calls: dict[tuple, int] = defaultdict(int)
        tok_bytes = 0
        tok_time = 0.0
        tok_per_pair: list[int] = []
        compile_cached = 0
        subprocess_ms: list[float] = []
        for name, rnd, _, _, s, extra in self.spans:
            self_s[name, rnd] += s
            calls[name, rnd] += 1
            if name == _TOKENIZE:
                tok_bytes += extra
                tok_time += s
            elif name == _PAIR:
                tok_per_pair.append(extra)
            elif name == "compile_check.compile_score":
                if extra[0]:
                    compile_cached += 1
                else:
                    calls["compile_check.subprocess", rnd] += 1
                    subprocess_ms.append(extra[1] * 1000.0)

        def per_round(table, span):
            return statistics.median(table[span, r] for r in rounds)

        def total(span):
            return sum(calls[span, r] for r in rounds)

        out = {metric: per_round(self_s, span) for metric, span in SELF_TIME_METRICS.items()}
        out.update({metric: per_round(calls, span) for metric, span in CALL_METRICS.items()})
        pairs = total(_PAIR)
        lookups = 2 * total("similarity.bag_similarity")
        compiles = total("compile_check.compile_score")
        out["lexer.tokenize_calls_per_pair"] = statistics.median(tok_per_pair) if tok_per_pair else 0
        out["lexer.mb_per_s"] = tok_bytes / tok_time / 1e6 if tok_time else 0.0
        out["metrics.analyze_calls_per_pair"] = total("metrics.analyze") / pairs if pairs else 0.0
        out["similarity.bag_cache_hit_ratio"] = (
            1.0 - total("similarity.bag_vector") / lookups if lookups else 0.0
        )
        out["compile_check.subprocess_runs"] = per_round(calls, "compile_check.subprocess")
        out["compile_check.subprocess_ms_p50"] = statistics.median(subprocess_ms) if subprocess_ms else 0.0
        out["compile_check.cache_hit_ratio"] = compile_cached / compiles if compiles else 0.0
        return out
