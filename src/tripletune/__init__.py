"""Triple embeddings from pre-trained knowledge-graph embeddings.

Seed entity/predicate vectors are repurposed into single-vector triple
representations by sampling weakly supervised pair-similarity targets and
fine-tuning a Siamese encoder; evaluation covers predicate classification
and clusterability against a line-graph random-walk baseline.
"""

from .graph import (GraphParseError, GraphStats, KnowledgeGraph, compute_stats,
                    load_triples, multi_predicate_triple_ids, save_triples)
from .seeds import (EmbeddingSet, SeedTrainConfig, import_embeddings, export_embeddings,
                    train_seed)
from .pairs import (PtssDataset, build_dataset, compute_ptss, cosine_sim,
                    sample_candidates)
from .siamese import (AGG_OPS, FineTuneConfig, SiameseModel, aggregate,
                      init_embedding_layer, train)
from .evaluation import (CLASSIFIERS, EvalReport, LogisticOvR, MlpClassifier,
                         calinski_harabasz, evaluate, kfold_split, kmeans, micro_f1,
                         pearson, spearman, train_classify)
from .baseline import (LineGraph, build_cm, build_line_graph, cooccurrence_counts,
                       random_walks, train_baseline, train_skipgram, train_sppmi)
from .pipeline import ExperimentConfig, RunManifest, compare_report, run_pipeline

__version__ = "0.1.0"
