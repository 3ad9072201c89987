"""Linear alignment of embedding spaces with biometric evaluation protocols."""

from .align import (
    AlignmentMap,
    fit_linear,
    fit_map,
    fit_procrustes,
    fit_ridge,
    load_map,
    save_map,
    training_residual,
    transform,
)
from .analysis import (
    CompatibilityMatrix,
    Dendrogram,
    agglomerative_cluster,
    asymmetry_stats,
    build_compatibility_matrix,
    symmetrize,
    training_size_sweep,
)
from .embedstore import EmbeddingSet, intersect_on_images, load_embeddings, save_embeddings
from .ident_eval import (
    RetrievalReport,
    cmc_curve,
    evaluate_identification,
    mean_average_precision,
    rank_k_accuracy,
    score_matrix,
)
from .prep import PrepStats, apply_prep, fit_prep, l2_normalize
from .reports import TOOL_VERSION as __version__
from .splits import (
    DEFAULT_SEEDS,
    PairList,
    SplitSpec,
    all_genuine_pairs,
    identity_disjoint_split,
    sample_impostor_pairs,
    sample_pairs_capped,
)
from .synth import IdentityCloud, embed_view, generate_identity_cloud
from .verif_eval import (
    VerificationReport,
    auc,
    eer,
    evaluate_verification,
    pair_scores,
    roc_curve,
    tmr_at_fmr,
)
