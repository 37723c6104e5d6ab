"""graphfc: multi-hop fact checking over entity-relationship claim graphs.

Claims are decomposed (by a pluggable text backend) into a two-section graph
of latent-entity definitions and fact triplets; latent entities are grounded
by retrieval-backed infilling along multiple identification orders; each
triplet is verified against BM25-retrieved evidence; and a lightweight
selector routes simple claims straight to one-shot verification.
"""

from .backend import (
    BackendError,
    BackendSuite,
    CachedBackend,
    CostLedger,
    GenPolicy,
    GenRequest,
    GenResponse,
    HttpBackend,
    ResponseCache,
    ScriptedBackend,
)
from .evaluate import ClaimRecord, EvalReport, load_dataset, macro_f1, recall_at_k, run_eval
from .graph import (
    ClaimGraph,
    GraphDiagnostic,
    PlaceholderId,
    Triplet,
    parse_graph,
    placeholders_of,
    render_sentence,
    serialize_graph,
)
from .infill import (
    InfillOutcome,
    Path,
    PathBudget,
    build_infill_query,
    build_retrieval_query,
    enumerate_paths,
    infill_path,
)
from .retrieval import (
    Document,
    EvidenceBundle,
    Index,
    build_index,
    load_index,
    merge_gold,
    save_index,
    search,
    tokenize,
)
from .verdict import (
    DocStrategy,
    Label,
    PipelineOptions,
    StrategyChoice,
    VerdictTrace,
    dp_graphcheck,
    format_trace_dict,
    run_pipeline,
    select_strategy,
    trace_to_dict,
    verify_claim_graphcheck,
    verify_path,
    verify_triplet,
)

__version__ = "0.1.0"
