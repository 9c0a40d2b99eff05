"""Genome assembly algorithms, PIM-mapped and software golden models.

Extensions beyond the paper's pipeline: bidirected (strand-aware)
assembly, spectral read error correction, and mate-pair scaffolding.
"""

from repro._lazy import lazy_exports

# public names resolve on first use (PEP 562): importing the pipeline
# does not import the bidirected/correction/scaffolding extensions
__getattr__, __dir__, __all__ = lazy_exports(
    __name__,
    {
        "bidirected": (
            "BidirectedDeBruijnGraph",
            "CanonicalKmerCounter",
            "PimCanonicalKmerCounter",
            "assemble_bidirected",
        ),
        "correction": (
            "CorrectionResult",
            "SpectralCorrector",
            "correct_reads",
        ),
        "simplify": (
            "SimplifyStats",
            "clip_tips",
            "pop_bubbles",
            "simplify_graph",
        ),
        "mate_scaffold": (
            "ContigLink",
            "MateScaffold",
            "build_scaffolds",
            "link_contigs",
            "scaffold_assembly",
        ),
        "contigs": (
            "Contig",
            "assemble_contigs",
            "contigs_from_paths",
            "spell_path",
        ),
        "debruijn": ("DeBruijnGraph", "Edge", "build_graph_from_sequences"),
        "euler": (
            "degree_table",
            "eulerian_path",
            "eulerian_paths",
            "find_start_node",
            "fleury_path",
            "has_eulerian_path",
            "unitigs",
        ),
        "hashmap": (
            "PimKmerCounter",
            "SoftwareKmerCounter",
            "kmer_partition",
        ),
        "metrics": (
            "AssemblyReport",
            "evaluate_assembly",
            "genome_fraction",
            "largest_contig",
            "misassembled_contigs",
            "n50",
            "nx_length",
            "total_length",
        ),
        "pipeline": ("AssemblyResult", "PimPipeline", "assemble_with_pim"),
        "reference_impl": ("SoftwareAssemblyResult", "assemble"),
        "scaffold": ("Scaffold", "greedy_scaffold", "scaffold_n50"),
    },
)
