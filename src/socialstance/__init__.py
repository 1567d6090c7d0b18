"""Stance classification and hesitancy analytics for vaccine discourse on
social networks.

The pipeline: load posts (corpus), build the interaction/follower graph
(socialgraph), embed post texts (embed), encode each author's neighborhood
with shell attention over post histories (encoder, model), train and
evaluate the classifier (model, metrics), then run attitude analytics and
change prediction on top (hesitancy, gbdt). cli exposes the whole thing as
one executable.
"""

from .corpus import (Corpus, Post, StanceLabel, VACCINE_KEYWORDS, clean_text,
                     filter_vaccine_related, load_posts, recent_posts, relabel,
                     select_annotation_set, write_posts)
from .embed import (HashedNgramEncoder, PrecomputedStore, load_embedding_store,
                    precompute, save_embedding_store)
from .encoder import (AggregateParams, EncoderParams, aggregate_history_mean,
                      aggregate_history_pe, gat_aggregate, gat_attention,
                      gcn_aggregate, h2_layer, init_position_weights,
                      social_encode)
from .errors import EmptyResultError, InputDataError, TrainingDivergedError
from .gbdt import GbdtConfig, GbdtModel
from .hesitancy import (ChangeLabel, HesitancyRecord, Theme, classify_change,
                        daily_label_proportions, eligible_users,
                        hesitancy_score, perceived_theme_vector,
                        select_popular, window_scores)
from .metrics import (MetricReport, agreement_report,
                      average_observed_agreement, fleiss_kappa,
                      krippendorff_alpha, multiclass_report, stance_report)
from .model import (ModelParams, Prediction, TrainConfig, classify, evaluate,
                    forward, load_checkpoint, save_checkpoint, split_dataset,
                    sweep, train)
from .socialgraph import (InteractionRecord, Interactions, SocialGraph,
                          build_social_graph, exact_order_neighborhood,
                          induced_subgraph, khop_neighborhood,
                          largest_weakly_connected_component)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
