import dataclasses
import re

import numpy as np
import pytest

from revclass.corpus import CorpusFormatError
from revclass.preprocess import (
    DictionarySegmenter,
    KnowledgeBase,
    KnowledgeBaseError,
    PersonEntry,
    SurrogateMap,
    TokenizedCorpus,
    VectorizedCorpus,
    Vocabulary,
    WhitespaceSegmenter,
    build_surrogate_map,
    load_knowledge_base,
    load_stopwords,
    remove_stopwords,
    substitute,
    write_knowledge_base,
)

FORUM_STOPWORDS = {"BBS", "BT", "NB", "BS", "CU", "LOL", "4242", "SF", "YY"}


def _kb(roles=(), actors=()):
    return KnowledgeBase(
        series="test",
        roles=tuple(PersonEntry(n, "role", r, aliases=a) for n, r, a in roles),
        actors=tuple(PersonEntry(n, "actor", r, aliases=a) for n, r, a in actors),
    )


class TestKnowledgeBase:
    def test_ranks_must_be_contiguous_from_one(self):
        with pytest.raises(KnowledgeBaseError, match="contiguous"):
            _kb(roles=[("白子画", 1, ()), ("花千骨", 3, ())])

    def test_duplicate_rank_rejected(self):
        with pytest.raises(KnowledgeBaseError, match="contiguous"):
            _kb(roles=[("白子画", 1, ()), ("花千骨", 1, ())])

    def test_load_from_json(self, tmp_path):
        path = tmp_path / "kb.json"
        path.write_text(
            '{"series": "花千骨", "roles": [{"name": "白子画", "aliases": ["师父"], "rank": 1}],'
            ' "actors": [{"name": "霍建华", "aliases": [], "rank": 1}]}',
            encoding="utf-8",
        )
        kb = load_knowledge_base(path)
        assert kb.series == "花千骨"
        assert kb.roles[0].surfaces == ("白子画", "师父")
        assert kb.actors[0].canonical_name == "霍建华"


class TestBuildSurrogateMap:
    def test_roles_numbered_by_rank(self):
        kb = _kb(roles=[("白子画", 1, ()), ("花千骨", 2, ())])
        surrogates = build_surrogate_map(kb)
        assert surrogates.entries == {"白子画": "role_1", "花千骨": "role_2"}

    def test_alias_maps_to_same_tag(self):
        kb = _kb(actors=[("霍建华", 1, ("华哥",))])
        surrogates = build_surrogate_map(kb)
        assert surrogates.entries["霍建华"] == "actor_1"
        assert surrogates.entries["华哥"] == "actor_1"

    def test_roles_and_actors_numbered_independently(self):
        kb = _kb(roles=[("白子画", 1, ())], actors=[("霍建华", 1, ())])
        surrogates = build_surrogate_map(kb)
        assert set(surrogates.entries.values()) == {"role_1", "actor_1"}

    def test_shared_alias_is_ambiguous(self):
        kb = _kb(roles=[("花千骨", 1, ("小骨",)), ("妖神", 2, ("小骨",))])
        with pytest.raises(KnowledgeBaseError, match="ambiguous"):
            build_surrogate_map(kb)


class TestSubstitute:
    def test_single_match(self):
        surrogates = SurrogateMap({"白子画": "role_1"})
        assert substitute("白子画出场了", surrogates) == "role_1出场了"

    def test_no_names_is_identity(self):
        surrogates = SurrogateMap({"白子画": "role_1"})
        text = "这部剧很好看"
        assert substitute(text, surrogates) == text

    def test_longest_match_wins(self):
        surrogates = SurrogateMap({"花千骨": "role_2", "花千骨外传": "role_5"})
        assert substitute("花千骨外传", surrogates) == "role_5"
        # shorter-first would have produced a different string entirely
        assert substitute("花千骨外传真好看", surrogates) == "role_5真好看"

    def test_left_to_right(self):
        surrogates = SurrogateMap({"白子画": "role_1", "花千骨": "role_2"})
        assert substitute("花千骨爱白子画", surrogates) == "role_2爱role_1"

    def test_empty_map_identity(self):
        assert substitute("白子画", SurrogateMap({})) == "白子画"

    def test_idempotent_and_no_residual_fuzz(self):
        names = ["白子画", "花千骨", "花千骨外传", "杀阡陌", "东方彧卿", "糖宝"]
        surrogates = SurrogateMap({n: f"role_{i + 1}" for i, n in enumerate(names)})
        filler = "这部剧的情节发展真是出人意料而且台词写得很用心"
        rng = np.random.default_rng(42)
        for _ in range(200):
            parts = []
            for _ in range(int(rng.integers(1, 8))):
                if rng.random() < 0.5:
                    parts.append(names[int(rng.integers(0, len(names)))])
                else:
                    a = int(rng.integers(0, len(filler)))
                    b = int(rng.integers(a, min(a + 6, len(filler)) + 1))
                    parts.append(filler[a:b])
            text = "".join(parts)
            once = substitute(text, surrogates)
            for surface in surrogates.entries:
                assert surface not in once
            assert substitute(once, surrogates) == once


class TestTokenize:
    def test_whitespace_segmenter_keeps_tags(self):
        assert WhitespaceSegmenter()("role_1 很 好") == ["role_1", "很", "好"]

    def test_empty_text(self):
        assert WhitespaceSegmenter()("") == []
        assert DictionarySegmenter(["好"])("") == []

    def test_dictionary_longest_match(self):
        seg = DictionarySegmenter(["这部", "剧", "很", "好看", "好"])
        assert seg("这部剧很好看") == ["这部", "剧", "很", "好看"]

    def test_dictionary_reconstruction(self):
        seg = DictionarySegmenter(["这部", "剧", "很", "好看"])
        for text in ("这部剧很好看", "这部剧很好看啊", "role_1真不错", "abc这部xyz"):
            assert "".join(seg(text)) == text

    def test_dictionary_reconstruction_fuzz(self):
        rng = np.random.default_rng(7)
        alphabet = "这部剧很好看的演员表现力非常到位台词也棒"
        words = ["这部", "剧", "很", "好看", "演员", "表现力", "台词"]
        seg = DictionarySegmenter(words)
        for _ in range(300):
            n = int(rng.integers(0, 30))
            text = "".join(alphabet[int(rng.integers(0, len(alphabet)))] for _ in range(n))
            assert "".join(seg(text)) == text

    def test_surrogate_tags_survive_dictionary_segmenter(self):
        seg = DictionarySegmenter(["好"])
        assert seg("role_12好actor_3") == ["role_12", "好", "actor_3"]


class TestRemoveStopwords:
    def test_forum_words_removed(self):
        assert remove_stopwords(["LOL", "剧情", "4242"], FORUM_STOPWORDS) == ["剧情"]

    def test_empty_input(self):
        assert remove_stopwords([], FORUM_STOPWORDS) == []

    def test_disjoint_is_identity(self):
        tokens = ["剧情", "演员"]
        assert remove_stopwords(tokens, FORUM_STOPWORDS) == tokens

    def test_latin_case_insensitive_cjk_exact(self):
        assert remove_stopwords(["lol", "Lol", "LOL"], FORUM_STOPWORDS) == []
        assert remove_stopwords(["的"], {"的"}) == []
        # no case folding across scripts: a CJK stop word only matches itself
        assert remove_stopwords(["的话"], {"的"}) == ["的话"]

    def test_output_disjoint_from_stoplist(self):
        rng = np.random.default_rng(3)
        pool = ["LOL", "bs", "剧情", "演员", "4242", "yy", "好看", "CU"]
        for _ in range(100):
            tokens = [pool[int(rng.integers(0, len(pool)))] for _ in range(int(rng.integers(0, 12)))]
            out = remove_stopwords(tokens, FORUM_STOPWORDS)
            assert not set(out) & FORUM_STOPWORDS
            assert not {t for t in out if t.isascii()} & {s.lower() for s in FORUM_STOPWORDS}

    def test_load_stopwords_skips_comments_and_blanks(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# forum words\nLOL\n\n4242\n", encoding="utf-8")
        assert load_stopwords(path) == {"LOL", "4242"}


def _presence(tokens, vocab):
    """One document's row over the whole vocabulary, as the members see it."""
    vc = VectorizedCorpus.from_tokens([tokens], [0], vocab)
    return vc.dense_matrix(range(len(vocab)))[0]


class TestVectorize:
    def test_presence_not_count(self):
        vocab = Vocabulary(("a", "b", "c"))
        assert _presence(["a", "a", "b"], vocab).tolist() == [1, 1, 0]

    def test_empty_tokens(self):
        vocab = Vocabulary(("a", "b", "c"))
        assert _presence([], vocab).tolist() == [0, 0, 0]

    def test_all_oov(self):
        vocab = Vocabulary(("a", "b", "c"))
        assert _presence(["x", "y"], vocab).tolist() == [0, 0, 0]

    def test_dedup_invariant(self):
        vocab = Vocabulary(("a", "b", "c", "d"))
        rng = np.random.default_rng(5)
        pool = ["a", "b", "c", "d", "e", "f"]
        for _ in range(50):
            tokens = [pool[int(rng.integers(0, len(pool)))] for _ in range(int(rng.integers(0, 10)))]
            assert np.array_equal(_presence(tokens, vocab), _presence(sorted(set(tokens)), vocab))

    def test_vocabulary_first_occurrence_order(self):
        vocab = Vocabulary.from_documents([["b", "a"], ["a", "c"]])
        assert vocab.terms == ("b", "a", "c")
        assert vocab.index == {"b": 0, "a": 1, "c": 2}


def _dense_reference(vc, term_positions):
    """The per-document loop over ``doc_terms`` that ``dense_matrix`` replaced."""
    X = np.zeros((len(vc.doc_terms), len(term_positions)))
    for i, present in enumerate(vc.doc_terms):
        for j, t in enumerate(term_positions):
            if t in present:
                X[i, j] = 1.0
    return X


class TestVectorizedCorpus:
    def test_csr_arrays_hold_the_document_terms(self):
        vc = VectorizedCorpus.from_tokens([["b", "a", "b", "x"], [], ["c"]], [0, 1, 2], Vocabulary(("a", "b", "c")))
        assert vc.doc_terms == ((0, 1), (), (2,))
        assert vc.indptr.tolist() == [0, 2, 2, 3]
        assert vc.indices.tolist() == [0, 1, 2]
        assert vc.rows.tolist() == [0, 0, 2]

    def test_dense_matrix_equals_reference_built_from_doc_terms(self):
        rng = np.random.default_rng(5)
        terms = [f"t{i}" for i in range(12)]
        # Repeated and out-of-vocabulary tokens, and empty documents.
        docs = [[(terms + ["oov"])[j] for j in rng.integers(0, 13, rng.integers(0, 9))] for _ in range(50)]
        docs[:2] = [[], ["t3", "t3", "t3"]]
        vc = VectorizedCorpus.from_tokens(docs, [0] * len(docs), Vocabulary(tuple(terms)))
        for selected in ([7, 2, 11, 0, 3], list(range(12)), [5], []):
            X = vc.dense_matrix(selected)
            assert X.dtype == np.float64
            assert np.array_equal(X, _dense_reference(vc, selected))

    def test_select_scattered_equals_reference_built_from_doc_terms(self):
        rng = np.random.default_rng(6)
        terms = [f"t{i}" for i in range(12)]
        # Repeated and out-of-vocabulary tokens, and empty documents.
        docs = [[(terms + ["oov"])[j] for j in rng.integers(0, 13, rng.integers(0, 9))] for _ in range(50)]
        docs[:2] = [[], ["t3", "t3", "t3"]]
        vc = VectorizedCorpus.from_tokens(docs, [0] * len(docs), Vocabulary(tuple(terms)))
        for selected in ([7, 2, 11, 0, 3], list(range(12)), [5], []):
            X = vc.select(selected)
            assert X.shape == (50, len(selected))
            assert np.all(np.diff(X.rows) >= 0) and X.vals.dtype == np.float64 and np.all(X.vals == 1.0)
            dense = np.zeros(X.shape)
            dense[X.rows, X.cols] = X.vals
            assert len(X.rows) == np.count_nonzero(dense)
            assert np.array_equal(dense, _dense_reference(vc, selected))
            # Each row keeps its terms in vocabulary order.
            for i in range(len(vc)):
                assert [selected[j] for j in X.cols[X.rows == i]] == [t for t in vc.doc_terms[i] if t in selected]

    def test_select_equals_the_flatnonzero_construction(self):
        rng = np.random.default_rng(7)
        docs = [[f"t{j}" for j in rng.integers(0, 15, rng.integers(0, 9))] for _ in range(60)]
        vc = VectorizedCorpus.from_tokens(docs, [0] * len(docs))
        V = len(vc.vocab)
        for selected in (rng.permutation(V)[:6], rng.permutation(V), np.arange(V), [], [4]):
            # select as it was: the positions of the selected entries, then copies at them.
            column = np.full(V, -1, dtype=np.int64)
            column[np.asarray(selected, dtype=np.int64)] = np.arange(len(selected))
            cols = column[vc.indices]
            at = np.flatnonzero(cols >= 0)
            X = vc.select(selected)
            assert X.rows.tolist() == vc.rows[at].tolist() and X.cols.tolist() == cols[at].tolist()
            assert X.vals.shape == X.cols.shape and X.vals.tolist() == [1.0] * len(at)
            assert X.shape == (len(vc), len(selected))

    def test_selected_values_are_read_only(self):
        vc = VectorizedCorpus.from_tokens([["a", "b"], ["b"]], [0, 1])
        for selected in ([0, 1], [1]):
            vals = vc.select(selected).vals
            assert not vals.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                vals[0] = 2.0

    def test_class_term_counts_equal_the_per_entry_construction(self):
        rng = np.random.default_rng(8)
        docs = [[f"t{j}" for j in rng.integers(0, 15, rng.integers(0, 9))] for _ in range(60)]
        for labels in (rng.integers(0, 8, 60), rng.integers(-2, 10, 60), np.full(60, -1)):
            vc = VectorizedCorpus.from_tokens(docs, labels)
            # class_term_counts as it was: each entry's label through its row.
            V = len(vc.vocab)
            y = vc.label_array[vc.rows]
            known = (y >= 0) & (y < 8)
            want = np.bincount(y[known] * V + vc.indices[known], minlength=8 * V).reshape(8, V)
            assert vc.class_term_counts.tolist() == want.tolist()

    def test_constructor_takes_sets_of_positions(self):
        vocab = Vocabulary(("a", "b", "c"))
        vc = VectorizedCorpus(vocab, (frozenset({2, 0}), frozenset()), (1, 1))
        assert vc.dense_matrix([0, 1, 2]).tolist() == [[1.0, 0.0, 1.0], [0.0, 0.0, 0.0]]
        assert vc.class_term_counts[1].tolist() == [1, 0, 1]


class TestTokenizedCorpus:
    def test_save_load_roundtrip(self, tmp_path):
        corpus = TokenizedCorpus(
            ids=("r0", "r1"),
            series=("s1", "s2"),
            docs=(("role_1", "很", "好"), ("还行",)),
            labels=(3, None),
        )
        path = tmp_path / "tokens.jsonl"
        corpus.save(path)
        assert TokenizedCorpus.load(path) == corpus

    def test_load_rejects_non_integer_label(self, tmp_path):
        path = tmp_path / "tokens.jsonl"
        path.write_text(
            '{"id": "r0", "series": "s", "label": "plot", "tokens": []}\n', encoding="utf-8"
        )
        with pytest.raises(ValueError, match="label"):
            TokenizedCorpus.load(path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("not json", "line 2: invalid JSON"),
            ('["r1", "s", 0, []]', "line 2: expected a JSON object"),
            ('{"id": "r1", "series": "s", "label": 0, "tokens": "plot twist"}', "line 2: field 'tokens'"),
            ('{"id": "r1", "series": "s", "label": 0, "tokens": ["plot", 3]}', "line 2: field 'tokens'"),
            ('{"id": "r1", "series": "s", "label": 0}', "line 2: missing field 'tokens'"),
            ('{"id": "r1", "series": "s", "label": 0, "tokens": ["a", 1, "b"]}', "line 2: field 'tokens'"),
            ('{"id": "r1", "series": "s", "label": 0, "tokens": ["a", ["a"]]}', "line 2: field 'tokens'"),
        ],
        ids=[
            "invalid_json", "not_an_object", "string_tokens", "non_string_token", "missing_tokens",
            "non_string_token_after_a_known_one", "list_token_after_a_known_one",
        ],
    )
    def test_load_rejects_malformed_line_naming_file_line_and_field(self, tmp_path, line, message):
        path = tmp_path / "tokens.jsonl"
        path.write_text('{"id": "r0", "series": "s", "label": 0, "tokens": ["a"]}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as info:
            TokenizedCorpus.load(path)
        assert str(info.value).startswith(f"{path}: {message}")

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("label", "true", "field 'label' must be an integer in [0, 7] or null"),
            ("label", "-1", "field 'label' must be an integer in [0, 7] or null"),
            ("label", "8", "field 'label' must be an integer in [0, 7] or null"),
            ("label", "1.0", "field 'label' must be an integer in [0, 7] or null"),
            ("tokens", '["a", 3]', "field 'tokens' must be a list of strings"),
            ("tokens", '[null, "a"]', "field 'tokens' must be a list of strings"),
            ("tokens", "[true]", "field 'tokens' must be a list of strings"),
            ("id", "5", "field 'id' must be a non-empty string"),
            ("series", '""', "field 'series' must be a non-empty string"),
            ("tokens", '[["a"]]', "field 'tokens' must be a list of strings"),
            ("tokens", "[{}]", "field 'tokens' must be a list of strings"),
            ("tokens", "NaN", "field 'tokens' must be a list of strings"),
            ("tokens", '["a", NaN, NaN]', "field 'tokens' must be a list of strings"),
            ("tokens", '{"a": "a"}', "field 'tokens' must be a list of strings"),
        ],
        ids=[
            "label_true", "label_minus_one", "label_eight", "label_float",
            "int_token", "null_token", "true_token", "int_id", "empty_series",
            "list_token", "object_token", "nan_tokens", "nan_token", "object_tokens",
        ],
    )
    def test_load_messages(self, tmp_path, field, value, message):
        """``value`` is the field's JSON text."""
        fields = {"id": '"r0"', "series": '"s"', "label": "0", "tokens": '["a"]', field: value}
        path = tmp_path / "tokens.jsonl"
        path.write_text("{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}\n", encoding="utf-8")
        with pytest.raises(CorpusFormatError) as info:
            TokenizedCorpus.load(path)
        assert str(info.value) == f"{path}: line 1: {message}"

    def test_load_shares_one_string_per_distinct_token(self, tmp_path):
        corpus = TokenizedCorpus(
            ids=("r0", "r1", "r2"),
            series=("s", "s", "t"),
            docs=(("role_1", "很", "好", "很"), (), ("好", "role_1", "还行")),
            labels=(0, None, 7),
        )
        path = tmp_path / "tokens.jsonl"
        corpus.save(path)
        loaded = TokenizedCorpus.load(path)
        assert loaded == corpus
        tokens = [t for doc in loaded.docs for t in doc]
        distinct = {t: t for t in tokens}
        assert all(t is distinct[t] for t in tokens)
        assert loaded.docs[0][0] is loaded.docs[2][1] and loaded.docs[0][1] is loaded.docs[0][3]


class TestWriteKnowledgeBase:
    def test_load_reads_back_what_write_wrote(self, tmp_path):
        kb = KnowledgeBase(
            series="甄嬛传",
            roles=(
                PersonEntry("甄嬛", "role", 1, aliases=("嬛嬛", "莞贵人")),
                PersonEntry("皇上", "role", 2),
            ),
            actors=(PersonEntry("孙俪", "actor", 1, aliases=("Sun Li",)),),
        )
        path = tmp_path / "kb.json"
        write_knowledge_base(kb, path)
        assert load_knowledge_base(path) == kb
        assert "莞贵人" in path.read_text(encoding="utf-8")
        write_knowledge_base(load_knowledge_base(path), tmp_path / "again.json")
        assert (tmp_path / "again.json").read_bytes() == path.read_bytes()


class TestDerivedFieldsCannotBePassed:
    def test_vocabulary_index_is_not_an_argument(self):
        with pytest.raises(TypeError):
            Vocabulary(("a", "b"), {"x": 0, "y": 1})
        with pytest.raises(TypeError):
            Vocabulary(terms=("a", "b"), index={"a": 0, "b": 1})

    def test_replaced_vocabulary_rederives_its_index(self):
        v = Vocabulary(("a", "b"))
        w = dataclasses.replace(v, terms=("c", "d"))
        assert w.index == {"c": 0, "d": 1} and "c" in w.index and "a" not in w.index
        assert v.index == {"a": 0, "b": 1} and w != v
        with pytest.raises(ValueError, match="vocabulary terms must be unique"):
            dataclasses.replace(v, terms=("c", "c"))

    def test_surrogate_map_pattern_is_not_an_argument(self):
        with pytest.raises(TypeError):
            SurrogateMap({"白子画": "role_1"}, re.compile("x"))
        with pytest.raises(TypeError):
            SurrogateMap({"白子画": "role_1"}, _pattern=re.compile("x"))
        replaced = dataclasses.replace(SurrogateMap({"白子画": "role_1"}), entries={"花千骨": "role_2"})
        assert substitute("白子画 花千骨", replaced) == "白子画 role_2"


def _tuple_corpus(docs, labels, vocab):
    """``from_tokens`` as it was: every document a tuple of its sorted
    distinct positions, then the CSR arrays built from those tuples."""
    index = vocab.index
    doc_terms = tuple(tuple(sorted({index[t] for t in doc if t in index})) for doc in docs)
    indptr = np.zeros(len(doc_terms) + 1, dtype=np.int64)
    np.cumsum([len(d) for d in doc_terms], out=indptr[1:])
    indices = np.array([t for d in doc_terms for t in d], dtype=np.int64)
    return doc_terms, tuple(int(y) for y in labels), indptr, indices


class TestVectorizedCorpusStoresCsrOnly:
    """The CSR arrays are a corpus's only per-document store; ``doc_terms``
    is read back from them on first read, and no pipeline step reads it."""

    @pytest.mark.parametrize("seed", range(6))
    def test_from_tokens_equals_the_tuple_construction(self, seed):
        rng = np.random.default_rng(seed)
        terms = [f"t{i}" for i in range(int(rng.integers(1, 20)))]
        # Repeated and out-of-vocabulary tokens, and empty documents.
        pool = terms + ["oov1", "oov2"]
        docs = [[pool[j] for j in rng.integers(0, len(pool), rng.integers(0, 12))] for _ in range(int(rng.integers(1, 80)))]
        docs[0] = []
        docs.append([terms[0]] * 5)
        labels = rng.integers(-1, 9, len(docs))
        for vocab in (Vocabulary(tuple(terms)), Vocabulary(tuple(rng.permutation(terms))), None):
            vc = VectorizedCorpus.from_tokens(docs, labels, vocab)
            doc_terms, want_labels, indptr, indices = _tuple_corpus(docs, labels, vc.vocab)
            assert vc.indptr.dtype == vc.indices.dtype == np.int64
            assert vc.indptr.tolist() == indptr.tolist() and vc.indices.tolist() == indices.tolist()
            assert vc.labels == want_labels and len(vc) == len(docs)
            assert "doc_terms" not in vars(vc)
            assert vc.doc_terms == doc_terms
            assert all(type(t) is int for d in vc.doc_terms for t in d)
            assert vc.doc_terms is vc.doc_terms  # cached after the first read

    def test_a_corpus_holds_its_vocabulary_labels_and_csr_arrays_only(self):
        vc = VectorizedCorpus.from_tokens([["b", "a"], [], ["c", "c"]], [0, 1, 2])
        assert [f.name for f in dataclasses.fields(vc)] == ["vocab", "labels", "indptr", "indices"]
        assert set(vars(vc)) == {"vocab", "labels", "indptr", "indices"}
        assert vc.doc_terms == ((0, 1), (), (2,))

    def test_positional_and_keyword_construction_and_misaligned_labels(self):
        vocab = Vocabulary(("a", "b", "c"))
        by_position = VectorizedCorpus(vocab, ((0, 2), ()), (3, 4))
        by_keyword = VectorizedCorpus(vocab=vocab, doc_terms=[[0, 2], []], labels=(3, 4))
        for vc in (by_position, by_keyword):
            assert vc.indptr.tolist() == [0, 2, 2] and vc.indices.tolist() == [0, 2] and vc.labels == (3, 4)
        with pytest.raises(ValueError, match="doc_terms and labels must align"):
            VectorizedCorpus(vocab, ((0,),), (1, 2))
        with pytest.raises(dataclasses.FrozenInstanceError):
            by_position.labels = (0, 0)

    def test_ranking_training_and_scoring_a_split_never_build_the_view(self, monkeypatch):
        from revclass.classify import DEFAULT_BUDGETS, Hyperparams, rank_classes, score_documents, train_members

        built = []
        init = VectorizedCorpus.__init__

        def record(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append(self)

        monkeypatch.setattr(VectorizedCorpus, "__init__", record)
        rng = np.random.default_rng(11)
        docs = [[f"c{c}w{int(rng.integers(0, 5))}" for _ in range(4)] + [f"bg{int(rng.integers(0, 9))}"]
                for c in range(8) for _ in range(10)]
        labels = [c for c in range(8) for _ in range(10)]
        train, test = [i for i in range(len(docs)) if i % 4], [i for i in range(len(docs)) if not i % 4]
        vc = VectorizedCorpus.from_tokens([docs[i] for i in train], [labels[i] for i in train])
        rankings = rank_classes(vc, DEFAULT_BUDGETS, "chi2")
        members = train_members(vc, rankings, ("nb", "lr", "svm"), Hyperparams(lr_epochs=5, svm_epochs=2), 42)
        scores = score_documents(members, [docs[i] for i in test])
        assert scores.shape == (len(test), 24) and len(built) >= 2
        assert all("doc_terms" not in vars(corpus) for corpus in built)
