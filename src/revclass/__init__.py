"""Series-agnostic TV review classification toolkit.

Pipeline: load labeled review corpora, replace role/actor names with
importance-ranked surrogate tags, tokenize and vectorize into binary
bag-of-words features, select features by chi-square or DRC, train
one-vs-rest Naive Bayes / logistic regression / linear SVM classifiers,
and evaluate cross-series generalization.
"""

__version__ = "0.1.0"

from revclass.corpus import Category, Corpus, Review, agreement_filter, load_corpus
from revclass.preprocess import (
    DictionarySegmenter,
    KnowledgeBase,
    PersonEntry,
    SurrogateMap,
    Vocabulary,
    WhitespaceSegmenter,
    build_surrogate_map,
    remove_stopwords,
    substitute,
)
from revclass.feature_select import ContingencyTable, FeatureRanking, chi_square, contingency, drc, rank_features, rcv
from revclass.classify import (
    LrModel,
    NbModel,
    OvrModel,
    SvmModel,
    lr_prob,
    nb_log_odds,
    predict,
    svm_decision,
    train_lr,
    train_nb,
    train_ovr,
    train_svm,
)
from revclass.topic_model import LdaConfig, LdaModel, export_heatmap, fit_lda, top_words
from revclass.evaluate import (
    ExperimentConfig,
    SyntheticSpec,
    accuracy,
    binary_accuracy,
    cross_series_experiment,
    feature_size_sweep,
    generate_synthetic,
)
