"""Hierarchical graph-attention engine for personalized outfit
recommendation and outfit compatibility scoring."""

from .dataio import (
    Dataset,
    DatasetError,
    Item,
    Splits,
    SyntheticConfig,
    datasets_equal,
    generate_synthetic,
    load_dataset,
    split_interactions,
    write_dataset,
)
from .embed import ModelDims, ModelState, init_model, load_checkpoint, save_checkpoint
from .evaluate import RankingReport, auc, fltb_accuracy, rank_outfits, topk_metrics
from .graph import CategoryGraph, FashionGraph, build_fashion_graph, category_cooccurrence_weights
from .propagate import PropagationOutput, forward
from .score import outfit_compat_score, rec_score, view_scores
from .train import (
    Adam,
    TrainConfig,
    TrainingDivergedError,
    TripleBatch,
    bpr_comp_loss,
    bpr_rec_loss,
    gradient_check,
    make_model,
    sample_negatives,
    train_epoch,
)

__version__ = "0.1.0"
