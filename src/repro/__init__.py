"""repro — reproduction of "Efficient Execution of SPARQL Queries with
OPTIONAL and UNION Expressions" (Zou, Pang, Özsu, Chen; ICDE 2025).

A pure-Python SPARQL-UO query engine: BGP-based evaluation trees
(BE-trees), cost-driven merge/inject transformations, and query-time
candidate pruning, on top of a from-scratch RDF store with two BGP
engines (worst-case-optimal joins and binary hash joins).

Quick start::

    from repro import Dataset, SparqlUOEngine, parse_ntriples_string

    data = Dataset(parse_ntriples_string(open("data.nt").read()))
    engine = SparqlUOEngine.for_dataset(data, bgp_engine="wco", mode="full")
    for row in engine.execute("SELECT ?x WHERE { ?x a <http://…> }"):
        print(row)
"""

from .bgp import (
    BGPEngine,
    HashJoinEngine,
    PlanEstimate,
    WCOJoinEngine,
)
from .core import (
    BETree,
    CandidatePolicy,
    CostModel,
    EngineOptions,
    ExecutionMode,
    PreparedQuery,
    QueryResult,
    SparqlUOEngine,
    ThresholdMode,
    UpdateResult,
    count_bgp,
    depth,
    join_space,
)
from .rdf import (
    BlankNode,
    Dataset,
    IRI,
    Literal,
    Namespace,
    TermDictionary,
    Triple,
    TriplePattern,
    Variable,
    load_ntriples,
    parse_ntriples,
    parse_ntriples_string,
    serialize_ntriples,
)
from .sparql import (
    Bag,
    QueryTimeoutError,
    SelectQuery,
    SparqlSyntaxError,
    UnsupportedFeatureError,
    parse_query,
)
from .storage import SnapshotError, SnapshotReader, TripleStore, bulk_load_ntriples

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # rdf
    "IRI",
    "BlankNode",
    "Literal",
    "Variable",
    "Triple",
    "TriplePattern",
    "Dataset",
    "Namespace",
    "TermDictionary",
    "parse_ntriples",
    "parse_ntriples_string",
    "serialize_ntriples",
    "load_ntriples",
    # storage
    "TripleStore",
    "SnapshotError",
    "SnapshotReader",
    "bulk_load_ntriples",
    # sparql
    "parse_query",
    "SelectQuery",
    "Bag",
    "SparqlSyntaxError",
    "QueryTimeoutError",
    "UnsupportedFeatureError",
    # bgp
    "BGPEngine",
    "WCOJoinEngine",
    "HashJoinEngine",
    "PlanEstimate",
    # core
    "SparqlUOEngine",
    "UpdateResult",
    "EngineOptions",
    "ExecutionMode",
    "PreparedQuery",
    "QueryResult",
    "BETree",
    "CostModel",
    "CandidatePolicy",
    "ThresholdMode",
    "count_bgp",
    "depth",
    "join_space",
]
