"""Unit tests for the RDF term model."""

import pytest
from hypothesis import given, strategies as st

from repro.rdf import (
    BlankNode,
    IRI,
    Literal,
    RDF_LANG_STRING,
    Variable,
    XSD_STRING,
)


class TestIRI:
    def test_value_stored(self):
        assert IRI("http://a/b").value == "http://a/b"

    def test_equality(self):
        assert IRI("http://a") == IRI("http://a")
        assert IRI("http://a") != IRI("http://b")

    def test_hashable(self):
        assert len({IRI("http://a"), IRI("http://a"), IRI("http://b")}) == 2

    def test_n3(self):
        assert IRI("http://a/b#c").n3() == "<http://a/b#c>"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IRI("")

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            IRI(42)

    def test_immutable(self):
        iri = IRI("http://a")
        with pytest.raises(AttributeError):
            iri.value = "http://b"

    def test_is_ground(self):
        assert IRI("http://a").is_ground()

    def test_not_equal_to_literal_with_same_text(self):
        assert IRI("http://a") != Literal("http://a")


class TestBlankNode:
    def test_label(self):
        assert BlankNode("b1").label == "b1"

    def test_n3(self):
        assert BlankNode("b1").n3() == "_:b1"

    def test_equality(self):
        assert BlankNode("b") == BlankNode("b")
        assert BlankNode("b") != BlankNode("c")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BlankNode("")

    def test_immutable(self):
        node = BlankNode("b")
        with pytest.raises(AttributeError):
            node.label = "c"


class TestLiteral:
    def test_plain_gets_xsd_string(self):
        lit = Literal("hello")
        assert lit.datatype == XSD_STRING
        assert lit.language is None

    def test_language_tag_forces_langstring(self):
        lit = Literal("hello", language="EN")
        assert lit.datatype == RDF_LANG_STRING
        assert lit.language == "en"  # normalized to lower case

    def test_custom_datatype(self):
        lit = Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert lit.datatype.endswith("integer")

    def test_language_with_conflicting_datatype_rejected(self):
        with pytest.raises(ValueError):
            Literal("x", language="en", datatype="http://other")

    def test_n3_plain(self):
        assert Literal("hi").n3() == '"hi"'

    def test_n3_language(self):
        assert Literal("hi", language="en").n3() == '"hi"@en'

    def test_n3_datatype(self):
        lit = Literal("5", datatype="http://www.w3.org/2001/XMLSchema#integer")
        assert lit.n3() == '"5"^^<http://www.w3.org/2001/XMLSchema#integer>'

    def test_n3_escapes(self):
        assert Literal('a"b\nc\\d').n3() == '"a\\"b\\nc\\\\d"'

    def test_equality_considers_language(self):
        assert Literal("x", language="en") != Literal("x", language="fr")
        assert Literal("x", language="en") != Literal("x")

    def test_equality_considers_datatype(self):
        integer = "http://www.w3.org/2001/XMLSchema#integer"
        assert Literal("5", datatype=integer) != Literal("5")

    def test_rejects_non_string_lexical(self):
        with pytest.raises(ValueError):
            Literal(5)

    def test_immutable(self):
        lit = Literal("x")
        with pytest.raises(AttributeError):
            lit.lexical = "y"


class TestVariable:
    def test_name(self):
        assert Variable("x").name == "x"

    def test_sigils_stripped(self):
        assert Variable("?x") == Variable("x") == Variable("$x")

    def test_n3(self):
        assert Variable("x").n3() == "?x"

    def test_not_ground(self):
        assert not Variable("x").is_ground()

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Variable("")
        with pytest.raises(ValueError):
            Variable("?")


class TestOrdering:
    def test_kinds_are_grouped(self):
        # IRIs < blanks < literals < variables by construction.
        assert IRI("z") < BlankNode("a") < Literal("a") < Variable("a")

    def test_same_kind_orders_by_payload(self):
        assert IRI("http://a") < IRI("http://b")
        assert Literal("a") < Literal("b")

    @given(st.text(min_size=1), st.text(min_size=1))
    def test_ordering_is_total_on_iris(self, a, b):
        left, right = IRI(a), IRI(b)
        assert (left < right) or (right < left) or (left == right)

    def test_comparison_with_non_term_not_supported(self):
        with pytest.raises(TypeError):
            IRI("http://a") < 5


class TestLiteralEscaping:
    """``_escape_literal`` returns clean text untouched and rewrites only
    the five N-Triples escapes; the per-character loop it replaced is
    kept here, frozen, as the oracle."""

    ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}

    @classmethod
    def reference(cls, text):
        return "".join(cls.ESCAPES.get(ch, ch) for ch in text)

    @given(
        st.text(st.sampled_from('\\"\n\r\t') | st.characters(), max_size=40)
        | st.text(st.sampled_from("ab é世\u2028\\\"\n\r\t'"), max_size=12)
    )
    def test_matches_the_per_character_loop(self, text):
        from repro.rdf.terms import _escape_literal

        assert _escape_literal(text) == self.reference(text)
        assert Literal(text).n3() == f'"{self.reference(text)}"'

    def test_edge_cases(self):
        from repro.rdf.terms import _escape_literal

        for text in ["", "plain", "non-ASCII é世\u2028", *self.ESCAPES, "\\\\\"\"\n\r\t"]:
            assert _escape_literal(text) == self.reference(text)
        clean = "no escapes here"
        assert _escape_literal(clean) is clean


class TestProcessIndependentHash:
    """Term hashes, and the term ids a store assigns from a dataset,
    repeat across processes under a fixed ``PYTHONHASHSEED`` — also
    before Python 3.12, where ``hash(None)`` (a plain literal's
    language) is an address."""

    PROBE = "\n".join(
        [
            "from repro.rdf import IRI, Dataset, Literal, Triple",
            "from repro.storage import TripleStore",
            "print(hash(Literal('x')))",
            "ex = 'http://example.org/'",
            "triples = [Triple(IRI(ex + f's{i}'), IRI(ex + 'p'), Literal(f'v{i}'))",
            "           for i in range(40)]",
            "triples += [Triple(IRI(ex + f's{i}'), IRI(ex + 'q'), Literal(f'{i}', language='en'))",
            "            for i in range(0, 40, 3)]",
            "store = TripleStore.from_dataset(Dataset(triples))",
            "print([store.decode(i).n3() for i in range(len(store.dictionary))])",
        ]
    )

    def run_probe(self) -> str:
        import os
        import pathlib
        import subprocess
        import sys

        import repro

        env = dict(os.environ, PYTHONHASHSEED="0")
        env["PYTHONPATH"] = str(pathlib.Path(repro.__file__).resolve().parent.parent)
        completed = subprocess.run(
            [sys.executable, "-c", self.PROBE],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        return completed.stdout

    def test_hash_and_term_ids_repeat_across_processes(self):
        first, second = self.run_probe(), self.run_probe()
        first_hash, first_ids = first.splitlines()
        second_hash, second_ids = second.splitlines()
        assert first_hash == second_hash
        assert first_ids == second_ids
