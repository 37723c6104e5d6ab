"""graphfc: multi-hop fact checking over entity-relationship claim graphs.

Claims are decomposed (by a pluggable text backend) into a two-section graph
of latent-entity definitions and fact triplets; latent entities are grounded
by retrieval-backed infilling along multiple identification orders; each
triplet is verified against BM25-retrieved evidence; and a lightweight
selector routes simple claims straight to one-shot verification.

Import each name from its module: ``graphfc.retrieval``, ``graphfc.verdict``
and so on.
"""

__version__ = "0.1.0"
