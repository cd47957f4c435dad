"""Unit tests for the command-line interface."""

import io

import pytest

from repro.cli import main
from repro.rdf import Dataset, IRI, Literal, dump_ntriples


@pytest.fixture
def data_file(tmp_path):
    d = Dataset()
    EX = "http://x/"
    for i in range(10):
        d.add_spo(IRI(EX + f"s{i}"), IRI(EX + "p"), IRI(EX + f"o{i % 3}"))
        d.add_spo(IRI(EX + f"s{i}"), IRI(EX + "name"), Literal(f"n{i}"))
    path = tmp_path / "data.nt"
    dump_ntriples(d, str(path))
    return str(path)


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


class TestQuery:
    def test_basic_query(self, data_file):
        code, output = run(
            ["query", data_file, "SELECT ?x WHERE { ?x <http://x/p> <http://x/o0> }"]
        )
        assert code == 0
        lines = output.strip().split("\n")
        assert lines[0] == "?x"
        assert len(lines) == 5  # header + 4 matches (s0, s3, s6, s9)

    def test_query_from_file(self, data_file, tmp_path):
        query_path = tmp_path / "q.rq"
        query_path.write_text("SELECT ?n WHERE { ?x <http://x/name> ?n }")
        code, output = run(["query", data_file, "-f", str(query_path)])
        assert code == 0
        assert output.count("\n") == 11  # header + 10 rows

    def test_limit(self, data_file):
        code, output = run(
            ["query", data_file, "SELECT ?n WHERE { ?x <http://x/name> ?n }", "--limit", "3"]
        )
        assert code == 0
        assert "more rows" in output

    def test_unbound_optional_prints_empty_cell(self, data_file):
        query = (
            "SELECT ?x ?n WHERE { ?x <http://x/p> <http://x/o0> "
            "OPTIONAL { ?x <http://x/missing> ?n } }"
        )
        code, output = run(["query", data_file, query])
        assert code == 0
        body = [line for line in output.splitlines()[1:] if line]
        assert body
        assert all(line.endswith("\t") for line in body)

    def test_stats_flag(self, data_file):
        code, output = run(
            ["query", data_file, "SELECT ?x WHERE { ?x <http://x/p> ?o }", "--stats"]
        )
        assert code == 0
        assert "join space" in output

    def test_explain_flag(self, data_file):
        code, output = run(
            ["query", data_file, "SELECT ?x WHERE { ?x <http://x/p> ?o }", "--explain"]
        )
        assert code == 0
        assert "GROUP" in output and "BGP" in output

    def test_all_modes_and_engines(self, data_file):
        for mode in ("base", "tt", "cp", "full"):
            for engine in ("wco", "hashjoin"):
                code, output = run(
                    [
                        "query", data_file,
                        "SELECT ?x WHERE { ?x <http://x/p> ?o }",
                        "--mode", mode, "--engine", engine,
                    ]
                )
                assert code == 0
                assert output.count("\n") == 11

    def test_syntax_error_reports_nonzero(self, data_file):
        code, _ = run(["query", data_file, "SELECT WHERE { broken"])
        assert code == 2

    def test_missing_query_text(self, data_file):
        with pytest.raises(SystemExit):
            run(["query", data_file])


class TestQueryFormats:
    QUERY = "SELECT ?x ?n WHERE { ?x <http://x/name> ?n }"

    def test_format_json(self, data_file):
        import json

        code, output = run(["query", data_file, self.QUERY, "--format", "json"])
        assert code == 0
        document = json.loads(output)
        assert document["head"]["vars"] == ["x", "n"]
        assert len(document["results"]["bindings"]) == 10
        binding = document["results"]["bindings"][0]
        assert binding["x"]["type"] == "uri"
        assert binding["n"]["type"] == "literal"

    def test_format_csv(self, data_file):
        code, output = run(["query", data_file, self.QUERY, "--format", "csv"])
        assert code == 0
        lines = output.split("\r\n")
        assert lines[0] == "x,n"
        assert len([line for line in lines if line]) == 11  # header + 10

    def test_format_tsv_renders_ntriples_terms(self, data_file):
        code, output = run(["query", data_file, self.QUERY, "--format", "tsv"])
        assert code == 0
        lines = output.rstrip("\n").split("\n")
        assert lines[0] == "?x\t?n"
        iri_cell, literal_cell = lines[1].split("\t")
        assert iri_cell.startswith("<http://x/") and iri_cell.endswith(">")
        assert literal_cell.startswith('"') and literal_cell.endswith('"')

    def test_format_with_limit(self, data_file):
        import json

        code, output = run(
            ["query", data_file, self.QUERY, "--format", "json", "--limit", "3"]
        )
        assert code == 0
        assert len(json.loads(output)["results"]["bindings"]) == 3

    @staticmethod
    def _split_rows(fmt, text):
        """(head, rows, separator, tail) of a formatted result, rows as raw text."""
        if fmt != "json":
            newline = "\r\n" if fmt == "csv" else "\n"
            head, *rows = text.split(newline)[:-1]
            return head + newline, [row + newline for row in rows], "", ""
        import json

        start = text.index('"bindings": [') + len('"bindings": [')
        decoder = json.JSONDecoder()
        rows, position = [], start
        while text[position] != "]":
            _, end = decoder.raw_decode(text, position)
            rows.append(text[position:end])
            position = end + 2 if text.startswith(", ", end) else end
        return text[:start], rows, ", ", text[position:]

    @pytest.mark.parametrize("fmt", ["json", "csv", "tsv"])
    def test_limit_is_a_byte_prefix_of_the_rows(self, data_file, fmt):
        code, full = run(["query", data_file, self.QUERY, "--format", fmt])
        assert code == 0
        code, limited = run(["query", data_file, self.QUERY, "--format", fmt, "--limit", "3"])
        assert code == 0
        head, rows, separator, tail = self._split_rows(fmt, full)
        assert len(rows) == 10
        assert limited == head + separator.join(rows[:3]) + tail

    @pytest.mark.parametrize("fmt", ["json", "csv", "tsv", "table"])
    def test_limit_renders_from_ids(self, data_file, fmt):
        from repro.core.metrics import EXEC_COUNTERS

        before = EXEC_COUNTERS.snapshot()
        code, _ = run(["query", data_file, self.QUERY, "--format", fmt, "--limit", "3"])
        assert code == 0
        # The serializers render the 3 rows from ids; the table builds
        # term rows for the 3 it shows (two cells each), not for all 10.
        expected = 3 * 2 if fmt == "table" else 0
        assert EXEC_COUNTERS.delta_since(before)["decoded_cells"] == expected

    def test_stats_do_not_corrupt_formatted_output(self, data_file, capsys):
        import json

        code, output = run(["query", data_file, self.QUERY, "--format", "json", "--stats"])
        assert code == 0
        json.loads(output)  # payload stays machine-readable …
        assert "join space" in capsys.readouterr().err  # … stats went to stderr

    def test_format_matches_library_serializers(self, data_file):
        from repro.core import SparqlUOEngine
        from repro.rdf import load_ntriples
        from repro.sparql.results import to_csv, to_json, to_tsv

        engine = SparqlUOEngine.for_dataset(load_ntriples(data_file))
        result = engine.execute(self.QUERY)
        expected = {
            "json": to_json(result.variables, result.solutions) + "\n",
            "csv": to_csv(result.variables, result.solutions),
            "tsv": to_tsv(result.variables, result.solutions),
        }
        for fmt, text in expected.items():
            code, output = run(["query", data_file, self.QUERY, "--format", fmt])
            assert code == 0
            assert output == text


class TestGenerate:
    def test_generate_lubm(self, tmp_path):
        out_path = tmp_path / "lubm.nt"
        code, output = run(
            ["generate", "lubm", str(out_path), "--universities", "1"]
        )
        assert code == 0
        assert "wrote" in output
        assert out_path.stat().st_size > 100_000

    def test_generate_dbpedia(self, tmp_path):
        out_path = tmp_path / "dbp.nt"
        code, output = run(["generate", "dbpedia", str(out_path), "--articles", "300"])
        assert code == 0
        assert out_path.exists()

    def test_generated_file_queryable(self, tmp_path):
        out_path = tmp_path / "small.nt"
        run(["generate", "dbpedia", str(out_path), "--articles", "200"])
        code, output = run(
            [
                "query", str(out_path),
                "SELECT ?x WHERE { ?x <http://dbpedia.org/ontology/wikiPageWikiLink> "
                "<http://dbpedia.org/resource/Economic_system> }",
            ]
        )
        assert code == 0
        assert output.count("\n") > 1


class TestSnapshot:
    def test_build_and_info(self, data_file, tmp_path):
        snap = str(tmp_path / "data.snap")
        code, output = run(["snapshot", "build", data_file, snap])
        assert code == 0
        assert "wrote snapshot of 20 triples" in output
        code, output = run(["snapshot", "info", snap, "--verify"])
        assert code == 0
        assert "triples       20" in output
        assert "checksums     OK" in output
        assert "section META" in output

    def test_query_runs_on_snapshot(self, data_file, tmp_path):
        snap = str(tmp_path / "data.snap")
        run(["snapshot", "build", data_file, snap])
        query = "SELECT ?x WHERE { ?x <http://x/p> <http://x/o0> }"
        code_nt, out_nt = run(["query", data_file, query])
        code_snap, out_snap = run(["query", snap, query])
        assert code_nt == code_snap == 0
        assert sorted(out_nt.splitlines()) == sorted(out_snap.splitlines())

    def test_info_rejects_non_snapshot(self, data_file):
        code, _ = run(["snapshot", "info", data_file])
        assert code == 2

    def test_generate_with_snapshot(self, tmp_path):
        nt = str(tmp_path / "lubm.nt")
        snap = str(tmp_path / "lubm.snap")
        code, output = run(
            ["generate", "lubm", nt, "--universities", "1", "--snapshot", snap]
        )
        assert code == 0
        assert "wrote snapshot" in output
        code, output = run(["snapshot", "info", snap])
        assert code == 0
        assert "generation" in output


class TestStats:
    def test_stats_output(self, data_file):
        code, output = run(["stats", data_file])
        assert code == 0
        assert "triples" in output and "20" in output
