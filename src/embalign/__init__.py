"""Linear alignment of embedding spaces with biometric evaluation protocols."""

import os
import sys

# OpenBLAS reads this exponent once, when numpy loads it: an idle worker
# busy-waits 2**N cycles after each BLAS call before it sleeps (default 28,
# about 0.1 s, a core burnt while the main thread ranks or writes reports).
# 2**20 cycles (under a millisecond) saves that CPU and still keeps the
# workers awake through the runs of small products a matrix makes.
# A user's own setting wins, and a host that already loaded numpy is left
# as it is. scipy's OpenBLAS, loaded later, reads the variable too.
if "numpy" not in sys.modules:
    os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "20")

from .align import (
    AlignmentMap,
    fit_map,
    load_map,
    save_map,
    training_residual,
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
